"""RunConfig validation, round-trip, and tracer construction."""

from __future__ import annotations

import pytest

from repro.core.coarse import CoarseParams
from repro.core.config import RunConfig
from repro.errors import ParameterError, ReproError
from repro.obs import NULL_TRACER, JsonLinesSink, SummarySink, Tracer


class TestValidation:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.backend == "serial"
        assert cfg.num_workers == 1
        assert cfg.coarse is None
        assert cfg.seed is None
        assert cfg.vectorized is False
        assert cfg.tracing_enabled is False

    def test_bad_backend(self):
        with pytest.raises(ParameterError, match="backend"):
            RunConfig(backend="gpu")

    def test_bad_workers(self):
        with pytest.raises(ParameterError, match="num_workers"):
            RunConfig(num_workers=0)

    def test_bad_seed(self):
        with pytest.raises(ParameterError, match="seed"):
            RunConfig(seed="abc")

    def test_bad_coarse(self):
        with pytest.raises(ParameterError, match="coarse"):
            RunConfig(coarse="yes")

    def test_errors_are_repro_errors(self):
        with pytest.raises(ReproError):
            RunConfig(backend="nope")

    def test_bool_coarse_coerced(self):
        assert RunConfig(coarse=True).coarse == CoarseParams()
        assert RunConfig(coarse=False).coarse is None

    def test_default_engine_is_chained(self):
        assert RunConfig().engine == "chained"

    def test_bad_engine(self):
        with pytest.raises(ParameterError, match="engine"):
            RunConfig(engine="quantum")

    def test_batch_engine_requires_coarse(self):
        with pytest.raises(ParameterError, match="coarse"):
            RunConfig(engine="batch")
        with pytest.raises(ParameterError, match="coarse"):
            RunConfig(engine="batch", coarse=False)

    def test_batch_engine_rejects_dict_pairs(self):
        with pytest.raises(ParameterError, match="columnar"):
            RunConfig(engine="batch", coarse=True, pairs_format="dict")

    def test_batch_engine_with_coarse_accepted(self):
        # The check must run after bool coercion: coarse=True is enough.
        assert RunConfig(engine="batch", coarse=True).engine == "batch"
        cfg = RunConfig(engine="batch", coarse=CoarseParams(phi=5))
        assert cfg.coarse.phi == 5
        assert RunConfig(
            engine="batch", coarse=True, pairs_format="columnar"
        ).pairs_format == "columnar"

    def test_frozen(self):
        cfg = RunConfig()
        with pytest.raises(AttributeError):
            cfg.backend = "thread"

    def test_replace_revalidates(self):
        cfg = RunConfig(backend="thread", num_workers=4)
        assert cfg.replace(num_workers=2).num_workers == 2
        with pytest.raises(ParameterError):
            cfg.replace(backend="gpu")


class TestRoundTrip:
    def test_to_from_dict(self):
        cfg = RunConfig(
            backend="shm",
            num_workers=4,
            engine="batch",
            coarse=CoarseParams(gamma=3.0, phi=10, delta0=50.0),
            seed=7,
            vectorized=True,
            profile=True,
            metrics_out="trace.jsonl",
        )
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_engine_round_trips(self):
        cfg = RunConfig(engine="batch", coarse=True)
        d = cfg.to_dict()
        assert d["engine"] == "batch"
        assert RunConfig.from_dict(d) == cfg

    def test_fine_config_round_trip(self):
        cfg = RunConfig()
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_coarse_expands_to_plain_dict(self):
        d = RunConfig(coarse=True).to_dict()
        assert d["coarse"]["gamma"] == 2.0
        assert d["coarse"]["phi"] == 100

    def test_unknown_keys_rejected(self):
        with pytest.raises(ParameterError, match="unknown RunConfig keys"):
            RunConfig.from_dict({"backend": "serial", "turbo": True})


class TestMakeTracer:
    def test_default_is_null_singleton(self):
        assert RunConfig().make_tracer() is NULL_TRACER

    def test_profile_builds_summary_tracer(self):
        tracer = RunConfig(profile=True).make_tracer()
        assert isinstance(tracer, Tracer)
        assert tracer.enabled
        assert any(isinstance(s, SummarySink) for s in tracer.sinks)

    def test_metrics_out_builds_jsonl_tracer(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = RunConfig(metrics_out=str(path)).make_tracer()
        assert any(isinstance(s, JsonLinesSink) for s in tracer.sinks)
        with tracer.span("run"):
            pass
        tracer.close()
        assert path.exists()

    def test_both_sinks(self, tmp_path):
        cfg = RunConfig(profile=True, metrics_out=str(tmp_path / "t.jsonl"))
        tracer = cfg.make_tracer()
        assert len(tracer.sinks) == 2
