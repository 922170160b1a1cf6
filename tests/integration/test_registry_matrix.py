"""Every registry cell against the two oracles, level by level.

The cells are enumerated from the capability registry itself: every
coarse ``(engine, backend, pairs_format)`` that ``RunConfig`` (that is,
``validate_run_settings``) accepts with two workers, plus the fine
sweep's pair formats.  A cell the registry stops accepting drops out of
the enumeration, and a new one is checked the day it is registered.

For each cell, Hypothesis generates small graphs with the shapes that
break sweeps: no edges, isolated vertices, several components, stars,
cliques and tied weights.  A coarse cell must reproduce the dict chained
sweep (Algorithm 2's chunked form, the oracle) at every dendrogram
level; a fine cell must reproduce ``baselines.ahn``'s single-linkage
partition at every similarity threshold.  One runtime per parallel
backend serves every example, so the file runs in seconds.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.ahn import ahn_link_clustering
from repro.core.coarse import CoarseParams, coarse_sweep
from repro.core.config import RunConfig
from repro.core.linkclust import LinkClustering
from repro.core.registry import (
    backend_names,
    engine_names,
    get_backend,
    make_runtime,
    pair_format_names,
)
from repro.core.similarity import compute_similarity_map
from repro.errors import ParameterError
from repro.fast.similarity import fast_similarity_columns
from repro.graph.graph import Graph

WORKERS = 2


def _accepted(**settings_):
    try:
        return RunConfig(num_workers=WORKERS, **settings_)
    except ParameterError:
        return None


def _coarse_cells():
    cells = []
    for engine, backend, fmt in itertools.product(
        engine_names(), backend_names(), pair_format_names()
    ):
        config = _accepted(
            coarse=True, engine=engine, backend=backend, pairs_format=fmt
        )
        if config is not None:
            cells.append(pytest.param(engine, backend, fmt, id=f"{engine}-{backend}-{fmt}"))
    return cells


def _fine_cells():
    return [
        pytest.param(fmt, id=fmt)
        for fmt in pair_format_names()
        if _accepted(pairs_format=fmt) is not None
    ]


COARSE_CELLS = _coarse_cells()
FINE_CELLS = _fine_cells()


@st.composite
def graphs(draw):
    """Small weighted graphs, isolated vertices included; weights are
    drawn from three values so similarity ties are common."""
    weight = st.sampled_from([1.0, 2.0, 3.0])
    graph = Graph()
    shape = draw(st.sampled_from(["empty", "random", "star", "clique", "components"]))
    isolated = draw(st.integers(0, 3))
    edges = []
    if shape == "random":
        n = draw(st.integers(2, 9))
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=18,
            )
        )
        edges = [(a, b) for a, b in pairs if a != b]
    elif shape == "star":
        leaves = draw(st.integers(1, 7))
        edges = [(0, leaf) for leaf in range(1, leaves + 1)]
    elif shape == "clique":
        k = draw(st.integers(2, 6))
        edges = list(itertools.combinations(range(k), 2))
    elif shape == "components":
        offset = 0
        for size in draw(st.lists(st.integers(2, 4), min_size=2, max_size=4)):
            edges.extend(
                (offset + a, offset + b)
                for a, b in itertools.combinations(range(size), 2)
            )
            offset += size
    seen = set()
    for a, b in edges:
        if frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            graph.add_edge(a, b, draw(weight))
    for extra in range(isolated):
        graph.add_vertex(100 + extra)
    return graph


def _phase_one(graph, fmt):
    """Phase I output for a resolved pair format (mmap builds its store
    from columns)."""
    if fmt == "dict":
        return compute_similarity_map(graph)
    return fast_similarity_columns(graph)


def _levels(dendrogram):
    return [
        dendrogram.labels_at_level(level)
        for level in range(dendrogram.num_levels + 1)
    ]


@pytest.fixture(scope="module")
def runtimes():
    """One warm runtime per parallel backend, shared by every example."""
    pool = {
        name: make_runtime(name, WORKERS)
        for name in backend_names()
        if get_backend(name).parallel
    }
    try:
        yield pool
    finally:
        for runtime in pool.values():
            runtime.shutdown()


@pytest.mark.parametrize("engine, backend, fmt", COARSE_CELLS)
@settings(max_examples=15, deadline=None)
@given(
    graph=graphs(),
    phi=st.integers(1, 3),
    delta0=st.integers(1, 6),
)
def test_coarse_cell_matches_dict_chained_oracle(
    runtimes, engine, backend, fmt, graph, phi, delta0
):
    params = CoarseParams(phi=phi, delta0=float(delta0))
    oracle = coarse_sweep(
        graph, compute_similarity_map(graph), params=params, engine="chained"
    )
    config = RunConfig(
        coarse=params,
        engine=engine,
        backend=backend,
        pairs_format=fmt,
        num_workers=WORKERS,
    )
    clustering = LinkClustering(graph, config=config, runtime=runtimes.get(backend))
    result = clustering.run(
        similarity_map=_phase_one(graph, clustering.resolved_pairs_format())
    )
    assert result.num_levels == oracle.num_levels
    assert _levels(result.dendrogram) == _levels(oracle.dendrogram)


@pytest.mark.parametrize("fmt", FINE_CELLS)
@settings(max_examples=25, deadline=None)
@given(graph=graphs())
def test_fine_cell_matches_ahn(fmt, graph):
    clustering = LinkClustering(graph, config=RunConfig(pairs_format=fmt))
    result = clustering.run(
        similarity_map=_phase_one(graph, clustering.resolved_pairs_format())
    )
    reference = ahn_link_clustering(graph).dendrogram
    # Single linkage at a threshold does not depend on how ties were
    # ordered, so compare just below every distinct merge similarity.
    sims = sorted(
        {m.similarity for m in result.dendrogram.merges}
        | {m.similarity for m in reference.merges},
        reverse=True,
    )
    for sim in sims:
        threshold = sim - 1e-9
        assert result.dendrogram.labels_at_similarity(
            threshold
        ) == reference.labels_at_similarity(threshold), sim
    assert result.edge_labels() == reference.labels_at_level(10**9)


def test_every_engine_and_backend_has_a_cell():
    engines = {p.values[0] for p in COARSE_CELLS}
    backends = {p.values[1] for p in COARSE_CELLS}
    assert engines == set(engine_names())
    assert backends == set(backend_names())
