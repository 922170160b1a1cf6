"""Parallel layer: backends, partitioning, and the parallel phases."""

from repro.parallel.merge_arrays import (
    hierarchical_merge,
    join_partition_labels,
    merge_chain_into,
    merge_chain_into_flawed,
)
from repro.parallel.par_init import hierarchical_map_merge, parallel_similarity_map
from repro.parallel.par_sweep import parallel_coarse_sweep
from repro.parallel.calibrate import calibrate_cost_model
from repro.parallel.runtime import (
    SWEEP_BACKENDS,
    LocalSweepRuntime,
    RuntimePool,
    ShmSweepRuntime,
    SweepRuntime,
    get_sweep_runtime,
)
from repro.parallel.shm_sweep import ShmArena, describe_exitcode
from repro.parallel.partitioner import (
    ClassifiedPairs,
    ShardedPartition,
    contiguous_partition,
    lpt_partition,
    partition_range,
    round_robin_partition,
)
from repro.parallel.sharded_sweep import (
    ShardedChunkStats,
    ShardTask,
    sharded_components,
)
from repro.parallel.pool import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    get_backend,
)
from repro.parallel.workmodel import (
    CostModel,
    InitWorkModel,
    SweepWorkModel,
    speedup_curve,
)

__all__ = [
    "ClassifiedPairs",
    "CostModel",
    "ExecutionBackend",
    "InitWorkModel",
    "LocalSweepRuntime",
    "ProcessBackend",
    "RuntimePool",
    "SWEEP_BACKENDS",
    "SerialBackend",
    "ShardTask",
    "ShardedChunkStats",
    "ShardedPartition",
    "ShmArena",
    "ShmSweepRuntime",
    "SweepRuntime",
    "SweepWorkModel",
    "sharded_components",
    "calibrate_cost_model",
    "describe_exitcode",
    "get_sweep_runtime",
    "ThreadBackend",
    "contiguous_partition",
    "get_backend",
    "hierarchical_map_merge",
    "hierarchical_merge",
    "join_partition_labels",
    "lpt_partition",
    "merge_chain_into",
    "merge_chain_into_flawed",
    "parallel_coarse_sweep",
    "parallel_similarity_map",
    "partition_range",
    "round_robin_partition",
    "speedup_curve",
]
