"""Vectorized fast paths (numpy).

CPython's interpreter overhead — not the algorithms — limits the
pure-Python reference implementation; this subpackage provides
drop-in-compatible accelerated variants validated against the reference
by the test suite.
"""

from repro.fast.assoc import fast_association_graph
from repro.fast.batch_sweep import (
    batch_components,
    batch_join_rows,
    compress_labels,
)
from repro.fast.similarity import fast_similarity_columns

__all__ = [
    "batch_components",
    "batch_join_rows",
    "compress_labels",
    "fast_association_graph",
    "fast_similarity_columns",
]
