"""Link-clustering benchmark: one command per workload, every metric by name.

    python3 linkbench/run.py --workload assoc --seed 1 --seconds 42 --trace 0

``--trace 0`` runs the end-to-end cells untraced and prints the
``end_to_end`` metrics of ``BENCHMARK.json``, times in host-scaled
seconds (``common.host_scaled``); ``--trace 1`` runs the
per-layer suite and prints the ``per_layer`` metrics.  Every output is
checked against the dict-path oracle outside the timed regions; a
mismatch counts as a failed operation.  The last stdout line is the
JSON result; the lines before it record provenance and raw samples.
``--scale tiny`` shrinks every input for the smoke tests; ``--scale
paper`` runs the paper-regime sizes (see NOTES.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from common import (  # noqa: E402
    ROOT,
    SCALES,
    WORKLOADS,
    Checker,
    Oracle,
    build_graph,
    child_env,
    cli_argv,
    cli_summary_ok,
    coarse_config,
    host_scaled,
    median,
    oversubscribed,
    pair_column_bytes,
    percentile,
    provenance,
    run_child,
    serve_graphs,
    stop_children,
)
from repro.core.config import RunConfig  # noqa: E402
from repro.core.linkclust import LinkClustering  # noqa: E402
from repro.graph import generators  # noqa: E402
from repro.graph.io import read_edge_list, write_edge_list  # noqa: E402
from serving import Daemon, check_loop, closed_loop  # noqa: E402

#: Every timing cell runs at least this often per run; see NOTES.md.
MIN_ROUNDS = 3

#: Distinct graphs per closed-loop block of the serve traffic.
SERVE_BLOCK = 40


def cell_configs(budget_bytes: int, workdir: Path) -> dict:
    """The in-process end-to-end cells: name -> (oracle kind, config)."""
    return {
        "batch_serial_s": ("coarse", coarse_config(engine="batch")),
        "fine_serial_s": ("fine", RunConfig()),
        "chained_serial_s": ("coarse", coarse_config(pairs_format="columnar")),
        "batch_thread2_s": ("coarse", coarse_config(engine="batch", backend="thread", num_workers=2)),
        "batch_shm2_s": ("coarse", coarse_config(engine="batch", backend="shm", num_workers=2)),
        "budget_serial_s": (
            "coarse",
            coarse_config(
                engine="batch",
                pairs_format="mmap",
                memory_budget_bytes=budget_bytes,
                storage_dir=str(workdir),
            ),
        ),
    }


class Inputs:
    """One set-up: the seeded graph (as the CLI reads it), serve inputs, daemon."""

    def __init__(self, workload: str, seed: int, scale, workdir: Path, env: dict):
        built = build_graph(workload, seed, scale)
        self.edge_file = workdir / "graph.edges"
        write_edge_list(built, self.edge_file)
        # Cells run on the graph read back from the file, so in-process
        # and CLI runs see identical vertex and edge ids.
        self.graph = read_edge_list(self.edge_file)
        self.payloads = serve_graphs(workload, built, seed, scale)
        warm_up(workdir)
        self.daemon = Daemon(workdir, env, cache_entries=2 * len(self.payloads) + 8)


def warm_up(workdir: Path) -> None:
    """Import and exercise every cell's code path once on a tiny graph."""
    tiny = generators.caveman_graph(3, 5, weight=generators.random_weights(seed=0))
    for _, config in cell_configs(1 << 20, workdir).values():
        LinkClustering(tiny, config=config).run()


def set_up(args, scale, workdir: Path, env: dict):
    """Set up ``scale.setups`` times; return host-scaled times and the last set-up."""
    times = []
    inputs = None
    for _ in range(scale.setups):
        if inputs is not None:
            inputs.daemon.stop()
        _, scaled, inputs = host_scaled(lambda: Inputs(args.workload, args.seed, scale, workdir, env))
        times.append(scaled)
    return times, inputs


def end_to_end(args, inputs: Inputs, oracle: Oracle, checker: Checker, workdir, env):
    graph = inputs.graph
    budget = pair_column_bytes(oracle.k1, oracle.k2) // 4
    cells = cell_configs(budget, workdir)
    names = list(cells) + ["cli_s"]
    samples = {name: [] for name in names}
    wall = {name: [] for name in names}
    rss = []
    reference = None
    # Each serve block's wall-clock statistics.
    serve = []
    # Host speed (scaled over wall) around every sample of the run.
    factors = []
    n = len(inputs.payloads)
    blocks = [range(first, min(first + SERVE_BLOCK, n)) for first in range(0, n, SERVE_BLOCK)]

    def serve_block(block: range) -> float:
        """Serve one block of graphs; return the seconds its check took."""
        seconds, scaled, loop = host_scaled(
            lambda: closed_loop(inputs.daemon, inputs.payloads, block)
        )
        factors.append(scaled / seconds)
        misses = [r.latency_s for r in loop.misses]
        hits = [r.latency_s for r in loop.hits]
        if misses and hits:
            serve.append({
                "jobs_per_s": loop.jobs / loop.elapsed_s,
                "miss_p50_s": percentile(misses, 50),
                "miss_p90_s": percentile(misses, 90),
                "hit_p50_s": percentile(hits, 50),
                "misses": len(misses),
                "hits": len(hits),
                "factor": factors[-1],
            })
        t0 = time.perf_counter()
        check_loop(loop, inputs.payloads, checker)
        return time.perf_counter() - t0

    start = time.perf_counter()
    deadline = start + args.seconds
    rounds = 0
    while True:
        # One block of serve traffic opens each round until none is left,
        # so the serve samples meet the same host stretches as the
        # clustering cells.  Checking a block is not measured time.
        if blocks:
            deadline += serve_block(blocks.pop(0))
            if not blocks:
                inputs.daemon.stop()
        shift = rounds % len(names)
        for name in names[shift:] + names[:shift]:
            if name == "cli_s":
                launch_s, launch_scaled, child = host_scaled(
                    lambda: run_child(cli_argv(inputs.edge_file), env, workdir)
                )
                factors.append(launch_scaled / launch_s)
                # The child's own wall time, without the launcher's start-up.
                wall[name].append(child.seconds)
                samples[name].append(child.seconds * factors[-1])
                rss.append(child.peak_rss_mb)
                checker.record(cli_summary_ok(child, reference), f"cli_s: {child.stderr[-300:]}")
                continue
            kind, config = cells[name]
            seconds, scaled, result = host_scaled(lambda: LinkClustering(graph, config=config).run())
            factors.append(scaled / seconds)
            wall[name].append(seconds)
            samples[name].append(scaled)
            checker.check(kind, config.engine if kind == "coarse" else kind, result.dendrogram, name)
            if name == "batch_serial_s" and reference is None:
                reference = result.to_dict()
        rounds += 1
        now = time.perf_counter()
        if not blocks and rounds >= MIN_ROUNDS and now + (now - start) / rounds > deadline:
            break

    budget_args = (
        "--pairs-format", "mmap", "--memory-budget-bytes", str(budget), "--storage-dir", str(workdir)
    )
    budget_child = run_child(cli_argv(inputs.edge_file, *budget_args), env, workdir)
    checker.record(
        cli_summary_ok(budget_child, reference), f"budget cli: {budget_child.stderr[-300:]}"
    )
    values = {name: median(values) for name, values in samples.items()}
    values.update(peak_rss_mb=median(rss), budget_peak_rss_mb=budget_child.peak_rss_mb)
    # Each serve metric is the median over blocks of the block's wall
    # value, so a host stall that slows one block does not move it,
    # scaled by the run's median host speed: the speed measured around
    # one block is as noisy as the block itself (NOTES.md).
    factor = median(factors)
    values.update(
        jobs_per_s=median([block["jobs_per_s"] for block in serve]) / factor,
        miss_p50_s=median([block["miss_p50_s"] for block in serve]) * factor,
        miss_p90_s=median([block["miss_p90_s"] for block in serve]) * factor,
        hit_p50_s=median([block["hit_p50_s"] for block in serve]) * factor,
    )
    raw = {
        "rounds": rounds,
        "wall_s": round(time.perf_counter() - start, 3),
        "budget_bytes": budget,
        "host_factor": round(factor, 4),
        "serve_blocks": [{k: round(v, 5) for k, v in block.items()} for block in serve],
        "wall_samples": {name: [round(v, 4) for v in vals] for name, vals in wall.items()},
        "samples": {name: [round(v, 4) for v in vals] for name, vals in samples.items()},
        "peak_rss_mb": [round(v, 1) for v in rss],
    }
    return values, raw


def declared(kind: str) -> list:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[kind]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)
    scale = SCALES[args.scale]
    os.chdir(ROOT)

    workdir = ROOT / ".linkbench-work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(workdir)
    env = child_env(workdir)
    inputs = None
    try:
        setup_times, inputs = set_up(args, scale, workdir, env)
        oracle = Oracle.compute(inputs.graph)
        checker = Checker(oracle)
        if args.trace:
            from layers import per_layer

            values, raw = per_layer(args, scale, inputs, oracle, checker, workdir)
            spec = declared("per_layer")
        else:
            values, raw = end_to_end(args, inputs, oracle, checker, workdir, env)
            values["setup_s"] = median(setup_times)
            spec = declared("end_to_end")
    finally:
        try:
            if inputs is not None:
                inputs.daemon.stop()
        finally:
            stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    record = provenance(args.workload, args.seed, inputs.graph, oracle.k1, oracle.k2)
    # Every parallel cell runs 2 workers; on fewer CPUs none of them is
    # a speed-up, and NOTES.md reports them as oversubscribed.
    record["parallel_workers"] = 2
    record["oversubscribed"] = oversubscribed(2)
    print("provenance " + json.dumps(record))
    raw["setup_s"] = [round(t, 4) for t in setup_times]
    print("raw " + json.dumps(raw))
    for failure in checker.failures:
        print("FAILED " + failure)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in spec
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
