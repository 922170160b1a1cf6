"""The engine/backend capability registry and its shared validation."""

from __future__ import annotations

import pytest

from repro.core.coarse import CoarseParams, coarse_sweep
from repro.core.config import RunConfig
from repro.core.registry import (
    backend_names,
    engine_names,
    get_backend,
    get_engine,
    get_pair_format,
    make_runtime,
    pair_format_names,
    validate_run_settings,
)
from repro.errors import ParameterError
from repro.graph import generators
from repro.parallel.par_sweep import parallel_coarse_sweep
from repro.parallel.runtime import SweepRuntime


class TestBuiltinTable:
    def test_builtin_names(self):
        assert backend_names() == ("serial", "thread", "process", "shm")
        assert engine_names() == ("chained", "batch", "sharded")
        assert pair_format_names() == ("columnar", "mmap")

    def test_engine_capabilities(self):
        assert not get_engine("chained").requires_coarse
        assert get_engine("batch").requires_coarse
        assert get_engine("sharded").requires_coarse

    def test_backend_capabilities(self):
        assert not get_backend("serial").parallel
        for name in ("thread", "process", "shm"):
            assert get_backend(name).parallel
        for name in ("serial", "thread", "process"):
            assert get_backend(name).engines == ("chained", "batch")
        # The shared-memory arena has no chained MERGE path, and it is
        # the only backend that runs the sharded engine.
        assert get_backend("shm").engines == ("batch", "sharded")
        assert get_engine("sharded").min_workers == 2

    def test_pair_format_capabilities(self):
        assert not get_pair_format("columnar").requires_coarse
        assert get_pair_format("mmap").requires_coarse

    def test_unknown_names_raise(self):
        with pytest.raises(ParameterError, match="engine must be one of"):
            get_engine("quantum")
        with pytest.raises(ParameterError, match="backend must be one of"):
            get_backend("gpu")
        with pytest.raises(ParameterError, match="pairs_format must be one of"):
            get_pair_format("parquet")


class TestValidation:
    def test_valid_defaults(self):
        validate_run_settings(
            backend="serial", engine="chained", pairs_format="columnar",
            coarse=False, num_workers=1,
        )

    def test_engine_requires_coarse(self):
        with pytest.raises(ParameterError, match="requires coarse sweeping"):
            validate_run_settings(
                backend="serial", engine="batch", pairs_format="columnar",
                coarse=False, num_workers=1,
            )

    def test_engine_rejects_dict_pairs(self):
        # The dict map is the Phase I oracle, not a run format: no
        # engine takes it, and the message names the formats that exist.
        for engine in engine_names():
            for fmt in ("dict", "auto"):
                with pytest.raises(
                    ParameterError, match=r"one of \('columnar', 'mmap'\)"
                ):
                    validate_run_settings(
                        backend="serial", engine=engine, pairs_format=fmt,
                        coarse=True, num_workers=1,
                    )

    def test_coarse_chained_rejected_on_shm(self):
        for workers in (1, 2):
            with pytest.raises(ParameterError, match=r"'chained'.*'batch', 'sharded'"):
                validate_run_settings(
                    backend="shm", engine="chained", pairs_format="columnar",
                    coarse=True, num_workers=workers,
                )
        # The fine sweep ignores the backend's sweep engines.
        validate_run_settings(
            backend="shm", engine="chained", pairs_format="columnar",
            coarse=False, num_workers=2,
        )
        with pytest.raises(ParameterError, match="does not run on backend='shm'"):
            RunConfig(coarse=True, engine="chained", backend="shm", num_workers=2)
        # The sharded engine runs only on the arena, with two or more
        # workers (a one-worker run takes the serial sweep).
        for backend in ("serial", "thread", "process"):
            for workers in (1, 2):
                with pytest.raises(
                    ParameterError,
                    match=rf"'sharded' does not run on backend='{backend}'",
                ):
                    RunConfig(
                        coarse=True, engine="sharded", backend=backend,
                        num_workers=workers,
                    )
        with pytest.raises(ParameterError, match=r"'sharded' needs num_workers >= 2"):
            RunConfig(coarse=True, engine="sharded", backend="shm", num_workers=1)
        RunConfig(coarse=True, engine="sharded", backend="shm", num_workers=2)
        # The drivers check the same table: the serial sweeper has no
        # sharded path, and a pool runtime none either.
        triangle = generators.complete_graph(3)
        with pytest.raises(ParameterError, match="backend='serial'"):
            coarse_sweep(triangle, params=CoarseParams(), engine="sharded")
        with pytest.raises(ParameterError, match="backend='thread'"):
            parallel_coarse_sweep(
                triangle, num_workers=2, backend="thread", engine="sharded"
            )

    def test_epsilon_is_an_unknown_config_key(self):
        with pytest.raises(ParameterError, match="unknown RunConfig keys.*epsilon"):
            RunConfig.from_dict({"coarse": True, "engine": "sharded", "epsilon": 0.5})
        assert "epsilon" not in RunConfig().to_dict()

    def test_mmap_requires_coarse(self):
        with pytest.raises(ParameterError, match="requires coarse sweeping"):
            validate_run_settings(
                backend="serial", engine="chained", pairs_format="mmap",
                coarse=False, num_workers=1,
            )

    def test_storage_knobs_require_mmap(self):
        with pytest.raises(ParameterError, match="storage_dir"):
            validate_run_settings(
                backend="serial", engine="chained", pairs_format="columnar",
                coarse=True, num_workers=1,
                storage_dir="/tmp/spill",
            )
        with pytest.raises(ParameterError, match="memory_budget_bytes"):
            validate_run_settings(
                backend="serial", engine="chained", pairs_format="columnar",
                coarse=True, num_workers=1,
                memory_budget_bytes=1 << 20,
            )

    def test_bad_memory_budget_rejected(self):
        for bad in (0, -1, True, 1.5):
            with pytest.raises(ParameterError, match="memory_budget_bytes"):
                validate_run_settings(
                    backend="serial", engine="chained", pairs_format="mmap",
                    coarse=True, num_workers=1,
                    memory_budget_bytes=bad,
                )

    def test_bad_worker_count(self):
        with pytest.raises(ParameterError, match="num_workers"):
            validate_run_settings(
                backend="thread", engine="chained", pairs_format="columnar",
                coarse=True, num_workers=0,
            )

    def test_runconfig_goes_through_registry(self):
        # RunConfig.validate() is the same shared table.
        with pytest.raises(ParameterError, match="engine must be one of"):
            RunConfig(engine="quantum")
        cfg = RunConfig(backend="thread", num_workers=2, coarse=True)
        cfg.validate()  # an existing config is always re-validatable


class TestFactories:
    def test_make_runtime_builds_each_backend(self):
        for name in ("thread", "process", "shm"):
            runtime = make_runtime(name, 2)
            try:
                assert isinstance(runtime, SweepRuntime)
            finally:
                runtime.shutdown()

    def test_make_runtime_rejects_unknown_backend(self):
        with pytest.raises(ParameterError, match="backend must be one of"):
            make_runtime("gpu", 2)
