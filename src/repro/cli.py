"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``stats``       graph statistics (|V|, |E|, density, K1, K2, K3, bounds)
``cluster``     link-cluster an edge-list file, print communities
``corpus``      build a word-association graph from a text file of
                messages (one per line) and write it as an edge list
``reproduce``   regenerate one or all of the paper's figures
``analyze``     run the project's static-analysis rules (SHM/PAR/DET/
                COR/API catalog) over python files; non-zero exit on
                findings — this is the CI gate
``serve``       run the clustering daemon: an async job API over HTTP
                (TCP or unix socket) with warm runtime pools, result
                caching, progress streaming, and cancellation

Run flags (uniform across ``cluster`` and ``reproduce``)
--------------------------------------------------------
``--backend``, ``--workers``, ``--profile``, ``--metrics-out`` are
accepted by both run-style subcommands with identical spelling.
``--profile`` prints a per-span timing summary to stderr at the end;
``--metrics-out PATH`` writes the full trace as JSON lines.

Examples
--------
    python -m repro stats graph.txt
    python -m repro cluster graph.txt --coarse --phi 50
    python -m repro cluster graph.txt --profile --metrics-out trace.jsonl
    python -m repro corpus tweets.txt --alpha 0.01 -o words.edges
    python -m repro reproduce --figure 4.1 --profile
    python -m repro analyze src/ --format json
    python -m repro serve --port 8137 --job-workers 2
    python -m repro serve --socket /tmp/repro.sock
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.coarse import CoarseParams
from repro.core.config import RunConfig
from repro.core.registry import backend_names, engine_names, pair_format_names
from repro.core.linkclust import LinkClustering
from repro.core.metrics import (
    compute_metrics,
    standard_cost_bound,
    sweeping_cost_bound,
)
from repro.errors import ReproError
from repro.graph.io import read_edge_list, write_edge_list

__all__ = ["main", "build_parser"]

_FIGURES = {
    "2.1": "fig2_1_changes_on_c",
    "2.2": "fig2_2_sigmoid_fit",
    "4.1": "fig4_1_statistics",
    "4.2": "fig4_2_execution_time",
    "4.3": "fig4_3_memory",
    "5.1": "fig5_1_epoch_breakdown",
    "5.2": "fig5_2_time_memory",
    "6.1": "fig6_1_init_speedup",
    "6.2": "fig6_2_sweep_speedup",
}


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """The uniform run-flag block shared by ``cluster`` and ``reproduce``."""
    # Choices come from the live capability registry so engines and
    # backends registered by extensions surface in the CLI unchanged.
    parser.add_argument(
        "--backend",
        choices=backend_names(),
        default="serial",
        help="execution backend for the run",
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="parallel workers"
    )
    parser.add_argument(
        "--pairs-format",
        choices=pair_format_names(),
        default="auto",
        help="map M representation: dict (pure-python oracle), columnar "
        "(numpy structure-of-arrays), mmap (out-of-core memory-mapped "
        "store; requires --coarse), or auto (size-based dispatch, "
        "never mmap)",
    )
    parser.add_argument(
        "--storage-dir",
        metavar="DIR",
        default=None,
        help="root for the out-of-core store's run-scoped spill "
        "directory (--pairs-format mmap only; system temp dir when "
        "unset)",
    )
    parser.add_argument(
        "--memory-budget-bytes",
        type=int,
        metavar="N",
        default=None,
        help="RAM cap for building/reading the out-of-core store; "
        "exceeding it spills sorted runs and external-merges them "
        "(--pairs-format mmap only)",
    )
    parser.add_argument(
        "--engine",
        choices=engine_names(),
        default="chained",
        help="sweep merge engine: chained (the paper's sequential MERGE "
        "chain), batch (per-level vectorized connected components), or "
        "sharded (owner-computes C shards with boundary reconciliation); "
        "batch and sharded require --coarse",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a per-span timing summary to stderr when the run ends",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the run's trace as JSON lines to PATH",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Link clustering on multi-core machines (ICDCS 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="graph statistics and cost bounds")
    p_stats.add_argument("graph", help="edge-list file (u v [weight] per line)")
    p_stats.add_argument(
        "--int-labels", action="store_true", help="parse vertex labels as ints"
    )

    p_cluster = sub.add_parser("cluster", help="link-cluster an edge list")
    p_cluster.add_argument("graph", help="edge-list file")
    p_cluster.add_argument(
        "--int-labels", action="store_true", help="parse vertex labels as ints"
    )
    p_cluster.add_argument(
        "--coarse", action="store_true", help="coarse-grained sweeping"
    )
    p_cluster.add_argument("--gamma", type=float, default=2.0,
                           help="soundness bound (coarse mode)")
    p_cluster.add_argument("--phi", type=int, default=100,
                           help="cluster-count cutoff (coarse mode)")
    p_cluster.add_argument("--delta0", type=float, default=100.0,
                           help="initial chunk size (coarse mode)")
    _add_run_flags(p_cluster)
    p_cluster.add_argument("--min-edges", type=int, default=2,
                           help="smallest community to print")
    p_cluster.add_argument("--top", type=int, default=10,
                           help="how many communities to print")
    p_cluster.add_argument(
        "--json",
        action="store_true",
        help="print the result summary as JSON instead of the text report",
    )

    p_corpus = sub.add_parser(
        "corpus", help="build a word-association graph from raw messages"
    )
    p_corpus.add_argument("texts", help="file with one message per line")
    p_corpus.add_argument("--alpha", type=float, default=0.01,
                          help="fraction of most frequent words to keep")
    p_corpus.add_argument("-o", "--output", required=True,
                          help="output edge-list path")

    p_repro = sub.add_parser("reproduce", help="regenerate paper figures")
    p_repro.add_argument(
        "--figure",
        choices=sorted(_FIGURES) + ["all"],
        default="all",
        help="which figure to regenerate",
    )
    p_repro.add_argument(
        "--markdown",
        metavar="PATH",
        help="write a full markdown report (all figures + claim checklist)",
    )
    # Same block as `cluster`.  The figures drive their own workloads, so
    # --backend is recorded on the trace rather than re-routing them;
    # --workers extends the worker sweep of the fig. 6 experiments.
    _add_run_flags(p_repro)

    p_analyze = sub.add_parser(
        "analyze", help="run project static-analysis rules (CI gate)"
    )
    p_analyze.add_argument(
        "paths", nargs="*", help="python files or directories to scan"
    )
    p_analyze.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format",
    )
    p_analyze.add_argument(
        "--select", action="append", metavar="RULE", default=None,
        help="run only these rule ids (repeatable, e.g. --select SHM001)",
    )
    p_analyze.add_argument(
        "--ignore", action="append", metavar="RULE", default=None,
        help="skip these rule ids (repeatable)",
    )
    p_analyze.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    p_analyze.add_argument(
        "--baseline", metavar="PATH", default="analysis-baseline.json",
        help="baseline file: findings listed there do not fail the gate "
        "(default: analysis-baseline.json when present)",
    )
    p_analyze.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file; report every finding",
    )
    p_analyze.add_argument(
        "--write-baseline", action="store_true",
        help="snapshot current findings into the baseline file and exit 0",
    )
    p_analyze.add_argument(
        "--changed-only", action="store_true",
        help="scan only files changed vs --diff-base (plus untracked)",
    )
    p_analyze.add_argument(
        "--diff-base", metavar="REF", default="HEAD",
        help="git ref for --changed-only (default: HEAD)",
    )
    p_analyze.add_argument(
        "--cache", metavar="PATH", default=".repro-analysis-cache.json",
        help="result-cache file (default: .repro-analysis-cache.json)",
    )
    p_analyze.add_argument(
        "--no-cache", action="store_true",
        help="disable the mtime-keyed result cache",
    )

    p_serve = sub.add_parser(
        "serve", help="run the clustering daemon (async job API)"
    )
    bind = p_serve.add_mutually_exclusive_group(required=True)
    bind.add_argument(
        "--port", type=int, metavar="N",
        help="listen on TCP 127.0.0.1:N (0 = any free port)",
    )
    bind.add_argument(
        "--socket", metavar="PATH", help="listen on a unix socket at PATH"
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address for --port"
    )
    p_serve.add_argument(
        "--job-workers", type=int, default=2,
        help="concurrent jobs (each job's sweep parallelism is its own)",
    )
    p_serve.add_argument(
        "--queue-size", type=int, default=16,
        help="pending-job bound; a full queue rejects submissions (429)",
    )
    p_serve.add_argument(
        "--cache-entries", type=int, default=32,
        help="result-cache LRU capacity (0 disables caching)",
    )
    p_serve.add_argument(
        "--default-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock limit unless the submission sets its own",
    )
    p_serve.add_argument(
        "--warm", action="append", default=None, metavar="BACKEND:WORKERS",
        help="pre-build a warm runtime for this key at startup "
        "(repeatable, e.g. --warm thread:4 --warm shm:4)",
    )
    p_serve.add_argument(
        "--verbose", action="store_true", help="log every request to stderr"
    )
    return parser


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.graph, int_labels=args.int_labels)
    m = compute_metrics(graph)
    print(f"vertices        {m.num_vertices:>12,}")
    print(f"edges           {m.num_edges:>12,}")
    print(f"density         {m.density:>12.4f}")
    print(f"K1 (vertex prs) {m.k1:>12,}")
    print(f"K2 (edge pairs) {m.k2:>12,}")
    print(f"K3 (distinct)   {m.k3:>12,}")
    print(f"sweeping bound  {sweeping_cost_bound(m):>12.3e}")
    print(f"standard bound  {standard_cost_bound(m):>12.3e}")
    return 0


def _run_config_from_args(args: argparse.Namespace) -> RunConfig:
    """Build the RunConfig the uniform run flags (+ coarse knobs) describe."""
    coarse = None
    if getattr(args, "coarse", False):
        coarse = CoarseParams(gamma=args.gamma, phi=args.phi, delta0=args.delta0)
    return RunConfig(
        backend=args.backend,
        num_workers=args.workers,
        coarse=coarse,
        pairs_format=args.pairs_format,
        engine=args.engine,
        storage_dir=args.storage_dir,
        memory_budget_bytes=args.memory_budget_bytes,
        profile=args.profile,
        metrics_out=args.metrics_out,
    )


def _cmd_cluster(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.graph, int_labels=args.int_labels)
    config = _run_config_from_args(args)
    clustering = LinkClustering(graph, config=config)
    try:
        result = clustering.run()
    finally:
        # Closing flushes the JSON-lines file and prints the --profile
        # summary (to stderr, so --json output stays parseable).
        clustering.tracer.close()
    if args.json:
        print(result.to_json(indent=2))
        return 0
    partition, level, density = result.best_partition()
    print(
        f"clustered {graph.num_edges} edges: {result.dendrogram.num_merges} "
        f"merges, {result.num_levels} levels"
    )
    if result.coarse is not None:
        print(
            f"coarse epochs: {result.coarse.epoch_kind_counts()} "
            f"({result.coarse.processed_fraction:.1%} of pairs processed)"
        )
    print(f"best cut: level {level}, partition density {density:.4f}")
    communities = result.node_communities(level=level, min_edges=args.min_edges)
    communities.sort(key=len, reverse=True)
    print(f"top {min(args.top, len(communities))} of {len(communities)} communities:")
    for i, community in enumerate(communities[: args.top]):
        labels = sorted(str(graph.vertex_label(v)) for v in community)
        shown = ", ".join(labels[:12])
        more = f" (+{len(labels) - 12})" if len(labels) > 12 else ""
        print(f"  [{i}] {shown}{more}")
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.corpus.assoc import build_association_graph
    from repro.corpus.documents import preprocess

    with open(args.texts, "r", encoding="utf-8") as fh:
        texts = [line.rstrip("\n") for line in fh if line.strip()]
    corpus = preprocess(texts)
    graph, stats = build_association_graph(
        corpus, alpha=args.alpha, return_stats=True
    )
    write_edge_list(graph, args.output)
    print(
        f"{stats.num_documents} documents, {stats.vocabulary_size} words kept "
        f"-> {graph.num_vertices} vertices, {graph.num_edges} edges "
        f"written to {args.output}"
    )
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    if args.markdown:
        from repro.bench.report import generate_report

        text = generate_report()
        with open(args.markdown, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"report written to {args.markdown}")
        return 0
    import repro.bench.experiments as experiments

    config = _run_config_from_args(args)
    tracer = config.make_tracer()
    names = sorted(_FIGURES) if args.figure == "all" else [args.figure]
    # The figure experiments drive their own workloads; --workers widens
    # the worker sweep where one exists (fig. 6), --backend is recorded
    # on the trace for provenance.
    worker_sweep = tuple(
        sorted(set(experiments.WORKER_COUNTS) | {args.workers})
    )
    try:
        with tracer.span(
            "run", command="reproduce", backend=args.backend, num_workers=args.workers
        ):
            for name in names:
                fn = getattr(experiments, _FIGURES[name])
                with tracer.span(f"figure:{name}"):
                    if name in ("6.1", "6.2") and args.workers > 1:
                        out = fn(workers=worker_sweep)
                    else:
                        out = fn()
                table = out[0] if isinstance(out, tuple) else out
                table.show()
    finally:
        tracer.close()
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import (
        all_rules,
        analyze_paths,
        render_json,
        render_text,
        write_baseline,
    )

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  [{rule.severity}]  {rule.summary}")
        return 0
    if not args.paths:
        print("error: no paths given (or use --list-rules)", file=sys.stderr)
        return 2
    cache_path = None if args.no_cache else args.cache
    baseline_path = None if (args.no_baseline or args.write_baseline) else args.baseline
    result = analyze_paths(
        args.paths,
        select=args.select,
        ignore=args.ignore,
        cache_path=cache_path,
        baseline_path=baseline_path,
        changed_only=args.changed_only,
        diff_base=args.diff_base,
    )
    if args.write_baseline:
        count = write_baseline(args.baseline, result.findings)
        print(f"wrote {count} findings to {args.baseline}")
        return 0
    if args.format == "json":
        print(render_json(result.findings, result.stats))
    else:
        print(render_text(result.findings, result.stats))
    return 1 if result.findings else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.errors import ParameterError
    from repro.serve.jobs import JobManager
    from repro.serve.server import make_server

    manager = JobManager(
        job_workers=args.job_workers,
        queue_size=args.queue_size,
        cache_entries=args.cache_entries,
        default_timeout=args.default_timeout,
    )
    for spec in args.warm or ():
        backend, sep, workers = spec.partition(":")
        if not sep or not workers.isdigit():
            raise ParameterError(
                f"--warm expects BACKEND:WORKERS (e.g. thread:4), got {spec!r}"
            )
        manager.pool.warm(backend, int(workers))
    server = make_server(
        manager,
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        verbose=args.verbose,
    )
    manager.start()
    if args.socket is not None:
        where = args.socket
    else:
        host, port = server.server_address[:2]
        where = f"http://{host}:{port}"
    # Announce readiness on stdout so wrappers (CI smoke, benchmarks)
    # can wait for this line instead of polling the socket.
    print(f"repro serve: listening on {where}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        manager.shutdown()
        print("repro serve: stopped", flush=True)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "stats": _cmd_stats,
        "cluster": _cmd_cluster,
        "corpus": _cmd_corpus,
        "reproduce": _cmd_reproduce,
        "analyze": _cmd_analyze,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
