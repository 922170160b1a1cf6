"""The engine/backend capability registry and its shared validation."""

from __future__ import annotations

import pytest

from repro.core.config import RunConfig
from repro.core.registry import (
    BackendSpec,
    EngineSpec,
    PairFormatSpec,
    backend_names,
    engine_names,
    get_backend,
    get_engine,
    get_pair_format,
    make_runtime,
    pair_format_names,
    register_backend,
    register_engine,
    register_pair_format,
    validate_run_settings,
)
from repro.errors import ParameterError
from repro.parallel.runtime import SweepRuntime


class TestBuiltinTable:
    def test_builtin_names(self):
        assert backend_names() == ("serial", "thread", "process", "shm")
        assert engine_names() == ("chained", "batch", "sharded")
        assert pair_format_names() == ("dict", "columnar", "auto", "mmap")

    def test_engine_capabilities(self):
        chained = get_engine("chained")
        assert not chained.requires_coarse
        assert chained.accepts_dict_pairs
        batch = get_engine("batch")
        assert batch.requires_coarse and not batch.accepts_dict_pairs
        sharded = get_engine("sharded")
        assert sharded.requires_coarse and not sharded.accepts_dict_pairs

    def test_backend_capabilities(self):
        assert not get_backend("serial").parallel
        for name in ("thread", "process", "shm"):
            assert get_backend(name).parallel
        for name in ("serial", "thread", "process"):
            assert get_backend(name).engines == engine_names()
        # The shared-memory arena has no chained MERGE path.
        assert get_backend("shm").engines == ("batch", "sharded")

    def test_pair_format_concreteness(self):
        assert get_pair_format("dict").concrete
        assert get_pair_format("columnar").concrete
        assert not get_pair_format("auto").concrete
        mmap_spec = get_pair_format("mmap")
        assert mmap_spec.concrete and mmap_spec.requires_coarse

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
            backend="serial", engine="chained", pairs_format="auto",
            coarse=False, num_workers=1,
        )

    def test_engine_requires_coarse(self):
        with pytest.raises(ParameterError, match="requires coarse sweeping"):
            validate_run_settings(
                backend="serial", engine="batch", pairs_format="auto",
                coarse=False, num_workers=1,
            )

    def test_engine_rejects_dict_pairs(self):
        with pytest.raises(ParameterError, match="columnar"):
            validate_run_settings(
                backend="serial", engine="sharded", pairs_format="dict",
                coarse=True, num_workers=1,
            )

    def test_coarse_chained_rejected_on_shm(self):
        for workers in (1, 2):
            with pytest.raises(ParameterError, match=r"'chained'.*'batch', 'sharded'"):
                validate_run_settings(
                    backend="shm", engine="chained", pairs_format="auto",
                    coarse=True, num_workers=workers,
                )
        # The fine sweep ignores the backend's sweep engines.
        validate_run_settings(
            backend="shm", engine="chained", pairs_format="auto",
            coarse=False, num_workers=2,
        )
        with pytest.raises(ParameterError, match="does not run on backend='shm'"):
            RunConfig(coarse=True, engine="chained", backend="shm", num_workers=2)

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
                backend="serial", engine="chained", pairs_format="auto",
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
                backend="thread", engine="chained", pairs_format="auto",
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


class TestRegistration:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ParameterError, match="already registered"):
            register_engine(EngineSpec(name="chained", summary="dup"))
        with pytest.raises(ParameterError, match="already registered"):
            register_backend(BackendSpec(name="thread", summary="dup"))
        with pytest.raises(ParameterError, match="already registered"):
            register_pair_format(PairFormatSpec(name="dict", summary="dup"))
