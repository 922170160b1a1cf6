"""Vectorized word-association-network construction.

The reference builder enumerates every within-document word pair in
Python (O(sum_d k_d^2) dict updates).  Here the corpus becomes a binary
document-word incidence matrix ``B`` (CSR) and the co-occurrence counts
are one sparse product: ``(B^T B)[i, j]`` = number of documents
containing both words.  The PMI weights of Eq. (3) are then elementwise
array math, and edges keep only the positive entries — identical to
:func:`repro.corpus.assoc.build_association_graph` (property-tested),
an order of magnitude faster on large corpora.
"""

from __future__ import annotations

import numpy as np

from repro.corpus.documents import Corpus
from repro.errors import CorpusError
from repro.graph.graph import Graph

__all__ = ["fast_association_graph"]


def fast_association_graph(corpus: Corpus, alpha: float = 1.0) -> Graph:
    """Vectorized equivalent of ``build_association_graph(corpus, alpha)``.

    Returns the same graph: vertices are the top-``alpha`` fraction of
    candidate words in rank order, edges carry the positive Eq.-(3)
    weights.
    """
    import scipy.sparse as sp  # deferred: a cold ``import repro`` skips SciPy

    if corpus.num_documents == 0:
        raise CorpusError("cannot build an association graph from an empty corpus")
    vocab_list = corpus.top_fraction(alpha)
    word_index = {word: i for i, word in enumerate(vocab_list)}
    n_words = len(vocab_list)
    m = corpus.num_documents

    # Binary document-word incidence matrix.
    doc_rows = []
    word_cols = []
    for d, doc in enumerate(corpus.documents):
        seen = {word_index[w] for w in doc if w in word_index}
        doc_rows.extend([d] * len(seen))
        word_cols.extend(seen)
    incidence = sp.csr_matrix(
        (np.ones(len(doc_rows), dtype=np.int64), (doc_rows, word_cols)),
        shape=(m, n_words),
    )

    presence = np.asarray(incidence.sum(axis=0)).ravel().astype(np.float64)
    cooc = sp.triu((incidence.T @ incidence).tocsr(), k=1).tocoo()

    graph = Graph()
    for word in vocab_list:
        graph.add_vertex(word)
    if cooc.nnz == 0:
        return graph

    wi = cooc.row.astype(np.int64)
    wj = cooc.col.astype(np.int64)
    n_ij = cooc.data.astype(np.float64)
    p_ij = n_ij / m
    p_i = presence[wi] / m
    p_j = presence[wj] / m
    weights = p_ij * np.log(p_ij / (p_i * p_j))

    positive = weights > 0.0
    for i, j, w in zip(
        wi[positive].tolist(), wj[positive].tolist(), weights[positive].tolist()
    ):
        graph.add_edge(vocab_list[i], vocab_list[j], w)
    return graph
