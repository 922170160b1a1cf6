"""Shared pieces of the benchmark: scales, seeded inputs, oracles, checks.

Every workload is a graph family.  The library, the ``repro cluster``
CLI and the ``repro serve`` daemon all run on inputs drawn from that
family, so one command per workload prints every end-to-end metric.
The library only ever sees the generated graphs; the seed stays here.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy

from repro.bench.datasets import PRESETS
from repro.cluster.dendrogram import Dendrogram
from repro.cluster.serialize import dumps_dendrogram
from repro.core.coarse import CoarseParams, coarse_sweep
from repro.core.config import RunConfig
from repro.core.similarity import compute_similarity_map
from repro.core.sweep import sweep
from repro.corpus.assoc import build_association_graph
from repro.corpus.synthetic import generate_corpus
from repro.graph import generators
from repro.graph.graph import Graph

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("assoc", "powerlaw")

#: The CLI's ``--coarse`` defaults; every coarse cell and served job uses them.
COARSE = CoarseParams()

#: Similarities may differ in the last bits between the dict and the
#: columnar Phase I, which sum wedge contributions in different orders.
SIM_TOLERANCE = 1e-12

#: Relative jitter the seed applies to assoc weights.
ASSOC_JITTER = 0.05

#: Structure seed of the powerlaw graph; at n=12000 it gives |E| = 35,991,
#: K1 = 604,432 and K2 = 611,965.
STRUCTURE_SEED = 1


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark scale."""

    corpus_preset: str
    alpha: float
    powerlaw_n: int
    serve_jobs: int
    assoc_serve_vertices: int
    powerlaw_serve_n: int
    setups: int


SCALES: Dict[str, Scale] = {
    # The default scale.  assoc keeps the paper's regime (K2 ~ 70x |E|,
    # ~30x the vertex pairs); powerlaw has K2 ~ K1, so expansion is a
    # no-op and the sweep over |E| dominates.  Both are smaller than the
    # "paper" scale so that every cell gets several samples per run
    # (see NOTES.md).  200 misses leave 20 samples beyond the p90.
    "full": Scale("small", 0.05, 2000, 200, 50, 300, 3),
    # The sizes the paper-regime profile in ROADMAP.md was taken at.
    "paper": Scale("small", 0.1, 12000, 200, 72, 300, 3),
    # For the smoke tests: every code path, a few seconds per run.
    "tiny": Scale("tiny", 0.1, 300, 12, 20, 60, 2),
}


def edge_triples(graph: Graph) -> List[Tuple[Any, Any, float]]:
    label = graph.vertex_label
    return [(label(e.u), label(e.v), e.weight) for e in graph.edges()]


def build_graph(workload: str, seed: int, scale: Scale) -> Graph:
    """The workload's main graph for ``seed``.

    The structure is fixed per scale: the preset corpus's association
    graph, or a preferential-attachment graph drawn from
    ``STRUCTURE_SEED``.  The seed shuffles the edge order (and so the
    vertex ids) and draws the weights: assoc weights are jittered by up
    to ``ASSOC_JITTER``, powerlaw weights are uniform in [0.1, 1).  Runs
    on different seeds then sweep in different orders and merge
    differently, while |V|, |E|, K1 and K2 stay the same, so the spread
    across seeds measures the program rather than the input size.
    """
    rng = random.Random(seed)
    if workload == "assoc":
        corpus = generate_corpus(PRESETS[scale.corpus_preset].corpus)
        base = build_association_graph(corpus, alpha=scale.alpha)
        triples = [
            (u, v, w * (1.0 + ASSOC_JITTER * rng.uniform(-1.0, 1.0)))
            for u, v, w in edge_triples(base)
        ]
    elif workload == "powerlaw":
        base = generators.barabasi_albert(scale.powerlaw_n, 3, seed=STRUCTURE_SEED)
        triples = [(u, v, rng.uniform(0.1, 1.0)) for u, v, _ in edge_triples(base)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(triples)
    return Graph.from_edge_list(triples)


def serve_graphs(
    workload: str, graph: Graph, seed: int, scale: Scale
) -> List[List[Tuple[Any, Any, float]]]:
    """Distinct mid-size edge lists of the workload's family, for the daemon.

    assoc: induced subgraphs of the main graph on random vertex subsets
    (dense, K2 >> |E| like the parent).  powerlaw: fresh small
    preferential-attachment graphs with random weights.  As for the
    main graph, the structures are fixed per scale and the seed sets
    only edge order and weights, so every seed serves graphs of the
    same sizes and the spread across seeds measures the program.
    """
    shapes = random.Random(f"serve-{workload}")
    rng = random.Random(f"serve-{workload}-{seed}")
    out: List[List[Tuple[Any, Any, float]]] = []
    if workload == "assoc":
        # The main graph's edge order and weights already follow the seed.
        triples = edge_triples(graph)
        labels = sorted((graph.vertex_label(v) for v in range(graph.num_vertices)), key=str)
        k = min(scale.assoc_serve_vertices, len(labels))
        for _ in range(scale.serve_jobs):
            keep = set(shapes.sample(labels, k))
            out.append([t for t in triples if t[0] in keep and t[1] in keep])
    else:
        for _ in range(scale.serve_jobs):
            shape = generators.barabasi_albert(
                scale.powerlaw_serve_n, 3, seed=shapes.randrange(2**31)
            )
            edges = [(e.u, e.v, round(rng.uniform(0.1, 1.0), 6)) for e in shape.edges()]
            rng.shuffle(edges)
            out.append(edges)
    if len({json.dumps(edges) for edges in out}) != len(out):
        raise RuntimeError("serve inputs are not distinct; every first submit must miss")
    return out


def coarse_config(**changes: Any) -> RunConfig:
    return RunConfig(coarse=COARSE, **changes)


#: The served job config (coarse, batch engine, serial), as sent on the wire.
SERVE_CONFIG: Dict[str, Any] = coarse_config(engine="batch").to_dict()


def pair_column_bytes(k1: int, k2: int) -> int:
    """Bytes of the in-memory pair columns: four K1 columns, two K2 columns."""
    return 8 * (4 * k1 + 2 * k2)


# ----------------------------------------------------------------------
# Oracle and output checks
# ----------------------------------------------------------------------


@dataclass
class Oracle:
    """Dict-path reference dendrograms: chained coarse and fine (Algorithm 2)."""

    coarse: Dendrogram
    fine: Dendrogram
    k1: int
    k2: int

    @classmethod
    def compute(cls, graph: Graph) -> "Oracle":
        sim_map = compute_similarity_map(graph)
        coarse = coarse_sweep(graph, sim_map, params=COARSE, engine="chained")
        fine = sweep(graph, sim_map)
        return cls(coarse.dendrogram, fine.dendrogram, sim_map.k1, sim_map.k2)


def same_levels(got: Dendrogram, ref: Dendrogram) -> bool:
    """Merge-by-merge equality, similarities within ``SIM_TOLERANCE``."""
    if got.num_items != ref.num_items or len(got.merges) != len(ref.merges):
        return False
    for a, b in zip(got.merges, ref.merges):
        if (a.level, a.left, a.right, a.parent) != (b.level, b.left, b.right, b.parent):
            return False
        if (a.similarity is None) != (b.similarity is None):
            return False
        if a.similarity is not None and abs(a.similarity - b.similarity) > SIM_TOLERANCE:
            return False
    return True


def level_partitions(dendrogram: Dendrogram) -> List[List[int]]:
    """Minimum-member cluster label of every item after each level."""
    parent = list(range(dendrogram.num_items))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    out: List[List[int]] = []
    merges = dendrogram.merges
    for pos, merge in enumerate(merges):
        a, b = find(merge.left), find(merge.right)
        parent[max(a, b)] = min(a, b)
        if pos + 1 == len(merges) or merges[pos + 1].level != merge.level:
            out.append([find(i) for i in range(len(parent))])
    return out


class Checker:
    """Counts checked operations and mismatches against the oracle.

    A coarse output must match the chained-over-dict oracle level by
    level: merge by merge (similarities within ``SIM_TOLERANCE``) where
    the engine records the chained merge sequence, else as the same
    partition after every level.  Outputs of one engine must also match
    each other byte for byte: the first accepted one fixes the bytes.
    """

    def __init__(self, oracle: Oracle):
        self.oracle = oracle
        self._oracle_levels: Optional[List[List[int]]] = None
        self.accepted: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def _matches_oracle(self, kind: str, dendrogram: Dendrogram) -> bool:
        if kind == "fine":
            return same_levels(dendrogram, self.oracle.fine)
        if same_levels(dendrogram, self.oracle.coarse):
            return True
        if self._oracle_levels is None:
            self._oracle_levels = level_partitions(self.oracle.coarse)
        return level_partitions(dendrogram) == self._oracle_levels

    def check(self, kind: str, group: str, dendrogram: Dendrogram, what: str) -> bool:
        """``kind`` is "fine" or "coarse"; ``group`` names the byte-identity class."""
        text = dumps_dendrogram(dendrogram)
        fixed = self.accepted.get(group)
        if fixed is None:
            ok = self._matches_oracle(kind, dendrogram)
            if ok:
                self.accepted[group] = text
        else:
            ok = text == fixed
        return self.record(ok, what)


# ----------------------------------------------------------------------
# Timing, statistics, subprocesses
# ----------------------------------------------------------------------


def timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    """Wall time of one call, after a full collection outside the timed region."""
    gc.collect()
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


#: Median ``calibration_seconds()`` of the reference host (2-vCPU Xeon at a
#: nominal 2.0 GHz) in its fast state, so host-scaled times read as that
#: host's seconds.
CALIBRATION_REF_S = 0.018


def calibration_seconds() -> float:
    """Time a fixed mix of interpreter, allocation and NumPy sorting work.

    It never calls the program under test, so its time tracks only the
    host's current speed, which drifts by up to half within a minute on
    a shared host (NOTES.md).
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(120_000):
        total += i * i
    table = {i: str(i) for i in range(40_000)}
    values = np.random.default_rng(len(table)).random(500_000)
    values.sort()
    return time.perf_counter() - t0


def host_scaled(fn: Callable[[], Any]) -> Tuple[float, float, Any]:
    """``(wall s, host-scaled s, result)`` of one call.

    The host-scaled time is the wall time times ``CALIBRATION_REF_S``
    over the mean of calibration samples taken right before and right
    after the call: the time the call would take on the reference host.
    """
    before = calibration_seconds()
    seconds, out = timed(fn)
    after = calibration_seconds()
    return seconds, seconds * CALIBRATION_REF_S * 2.0 / (before + after), out


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


def child_env(workdir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(workdir)
    return env


def child_pids() -> List[int]:
    """PIDs of this process's live (or unreaped) children, from ``/proc``."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue  # ended while we looked
        # The command name may hold spaces and parentheses; the fields
        # after its closing parenthesis are state, then the parent pid.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    The shm cells allocate shared memory, which makes ``multiprocessing``
    start a resource-tracker process that would otherwise outlive the
    benchmark; it is stopped here the way ``multiprocessing`` stops it.
    Any other child still present is terminated, then reaped.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # reaped elsewhere meanwhile


@dataclass
class ChildRun:
    seconds: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def run_child(argv: List[str], env: Dict[str, str], workdir: Path) -> ChildRun:
    """Run a fresh process to completion, timing it and taking its peak RSS.

    The command starts from ``spawn.py``, whose small footprint is the
    floor Linux carries into the command's ``ru_maxrss``; output goes to
    files so the command can never block on a full pipe.
    """
    out, err = workdir / "child.out", workdir / "child.err"
    gc.collect()
    report = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("spawn.py")), str(out), str(err), *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    stats = json.loads(report.stdout)
    return ChildRun(
        stats["seconds"],
        stats["peak_rss_kib"] / 1024.0,
        stats["returncode"],
        out.read_text(encoding="utf-8", errors="replace"),
        err.read_text(encoding="utf-8", errors="replace"),
    )


#: Summary fields a CLI run must share with the in-process run of its config.
SUMMARY_KEYS = ("num_vertices", "num_edges", "k1", "k2", "num_levels", "best_cut")


def cli_summary_ok(child: ChildRun, reference: Dict[str, Any]) -> bool:
    if child.returncode != 0:
        return False
    try:
        summary = json.loads(child.stdout)
    except json.JSONDecodeError:
        return False
    return all(summary.get(key) == reference[key] for key in SUMMARY_KEYS)


def cli_argv(edge_file: Path, *extra: str) -> List[str]:
    return [
        sys.executable, "-m", "repro", "cluster", str(edge_file),
        "--coarse", "--engine", "batch", "--json", *extra,
    ]


def provenance(workload: str, seed: int, graph: Graph, k1: int, k2: int) -> Dict[str, Any]:
    """Where and on what a run measured."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unavailable"
    except OSError:
        sha = "unavailable"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "workload": workload,
        "seed": seed,
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "k1": k1,
        "k2": k2,
    }


def oversubscribed(workers: int) -> bool:
    """More workers than CPUs: such a cell is never reported as a speed-up."""
    return workers > (os.cpu_count() or 1)
