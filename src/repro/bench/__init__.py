"""Benchmark harness: workloads, measurement, and figure reproduction."""

from repro.bench.datasets import (
    PRESETS,
    ScalePreset,
    alpha_sweep,
    association_graph,
    bench_corpus,
    current_scale,
)
from repro.bench.experiments import (
    coarse_params_for,
    fig2_1_changes_on_c,
    fig2_2_sigmoid_fit,
    fig4_1_statistics,
    fig4_2_execution_time,
    fig4_3_memory,
    fig5_1_epoch_breakdown,
    fig5_2_time_memory,
    fig6_1_init_speedup,
    fig6_2_sweep_speedup,
)
from repro.bench.memory import deep_sizeof, measure_peak
from repro.bench.parallel_runtime import (
    make_chunk_workload,
    runtime_spawn_comparison,
)
from repro.bench.plots import bar_chart, line_plot, sparkline
from repro.bench.report import generate_report
from repro.bench.runner import ResultTable, format_number, save_json
from repro.bench.sensitivity import (
    delta0_sensitivity,
    eta0_sensitivity,
    gamma_sensitivity,
    phi_sensitivity,
)
from repro.bench.timing import Timer, TimingStats, time_call
from repro.bench.workloads import (
    DEFAULT_CHUNK_WORKLOAD,
    Fig5Workload,
    fig5_workload,
)

__all__ = [
    "DEFAULT_CHUNK_WORKLOAD",
    "Fig5Workload",
    "PRESETS",
    "ResultTable",
    "ScalePreset",
    "Timer",
    "TimingStats",
    "alpha_sweep",
    "bar_chart",
    "association_graph",
    "bench_corpus",
    "coarse_params_for",
    "current_scale",
    "deep_sizeof",
    "delta0_sensitivity",
    "eta0_sensitivity",
    "fig2_1_changes_on_c",
    "fig2_2_sigmoid_fit",
    "fig4_1_statistics",
    "fig4_2_execution_time",
    "fig4_3_memory",
    "fig5_1_epoch_breakdown",
    "fig5_2_time_memory",
    "fig5_workload",
    "fig6_1_init_speedup",
    "fig6_2_sweep_speedup",
    "format_number",
    "gamma_sensitivity",
    "generate_report",
    "line_plot",
    "make_chunk_workload",
    "measure_peak",
    "phi_sensitivity",
    "runtime_spawn_comparison",
    "save_json",
    "sparkline",
    "time_call",
]
