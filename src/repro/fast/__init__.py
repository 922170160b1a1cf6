"""Optional vectorized fast paths (numpy / scipy.sparse).

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
from repro.fast.similarity import (
    adjacency_matrix,
    fast_similarity_columns,
    fast_similarity_map,
)
from repro.fast.sweep import fast_sweep

__all__ = [
    "adjacency_matrix",
    "batch_components",
    "batch_join_rows",
    "compress_labels",
    "fast_association_graph",
    "fast_similarity_columns",
    "fast_similarity_map",
    "fast_sweep",
]
