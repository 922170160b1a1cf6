"""Out-of-core identity: the mmap store reproduces the in-memory
dendrogram bitwise — every level, every engine, every backend, spill or
no spill."""

from __future__ import annotations

import pytest

from repro.core import LinkClustering
from repro.core.coarse import CoarseParams
from repro.core.config import RunConfig
from repro.core.registry import get_backend
from repro.graph import generators

# Forces spilling on every graph below (well under one graph's pair
# bytes) while staying a legal budget.
TINY_BUDGET = 256

GRAPHS = {
    "caveman": lambda: generators.caveman_graph(
        4, 5, weight=generators.random_weights(seed=7)
    ),
    "planted": lambda: generators.planted_partition(3, 6, 0.8, 0.1, seed=9),
}


def _levels(result):
    return [result.labels_at_level(i) for i in range(result.num_levels)]


def _oracle(graph):
    cfg = RunConfig(coarse=CoarseParams(), pairs_format="columnar")
    return _levels(LinkClustering(graph, config=cfg).run())


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("engine", get_backend("serial").engines)
def test_serial_mmap_identity(graph_name, engine):
    graph = GRAPHS[graph_name]()
    oracle = _oracle(graph)
    for budget in (None, TINY_BUDGET):
        cfg = RunConfig(
            coarse=CoarseParams(),
            pairs_format="mmap",
            engine=engine,
            memory_budget_bytes=budget,
        )
        result = LinkClustering(graph, config=cfg).run()
        assert result.pairs_format == "mmap"
        assert _levels(result) == oracle, (graph_name, engine, budget)


@pytest.mark.parametrize(
    "backend, engine",
    [
        pytest.param(backend, engine, id=f"{engine}-{backend}")
        for engine in ("chained", "batch", "sharded")
        for backend in ("thread", "process", "shm")
        if engine in get_backend(backend).engines
    ],
)
def test_parallel_mmap_identity(backend, engine):
    graph = GRAPHS["caveman"]()
    oracle = _oracle(graph)
    cfg = RunConfig(
        coarse=CoarseParams(),
        pairs_format="mmap",
        backend=backend,
        num_workers=2,
        engine=engine,
        memory_budget_bytes=TINY_BUDGET,
    )
    result = LinkClustering(graph, config=cfg).run()
    assert _levels(result) == oracle, (backend, engine)


def test_storage_dir_used_and_cleaned(tmp_path):
    import os

    graph = GRAPHS["caveman"]()
    cfg = RunConfig(
        coarse=CoarseParams(),
        pairs_format="mmap",
        storage_dir=str(tmp_path),
        memory_budget_bytes=TINY_BUDGET,
    )
    result = LinkClustering(graph, config=cfg).run()
    assert result.num_levels > 0
    # Run-scoped spill directory is removed once the sweep finishes.
    assert os.listdir(str(tmp_path)) == []
