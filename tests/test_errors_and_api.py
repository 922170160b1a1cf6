"""Tests for the exception hierarchy and the public package surface."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro import errors


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in errors.__all__:
            exc_type = getattr(errors, name)
            assert issubclass(exc_type, errors.ReproError)

    def test_lookup_errors_are_key_errors(self):
        assert issubclass(errors.VertexNotFoundError, KeyError)
        assert issubclass(errors.EdgeNotFoundError, KeyError)

    def test_parameter_errors_are_value_errors(self):
        assert issubclass(errors.ParameterError, ValueError)
        assert issubclass(errors.InvalidWeightError, ValueError)

    def test_messages_readable(self):
        assert "vertex" in str(errors.VertexNotFoundError("x"))
        assert "edge" in str(errors.EdgeNotFoundError((1, 2)))

    def test_single_except_catches_library_errors(self):
        from repro.graph.graph import Graph

        with pytest.raises(errors.ReproError):
            Graph().add_edge("a", "a")


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolvable(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_subpackage_exports_resolvable(self):
        import repro.analysis
        import repro.baselines
        import repro.bench
        import repro.cluster
        import repro.core
        import repro.corpus
        import repro.graph
        import repro.parallel

        for module in (
            repro.analysis,
            repro.baselines,
            repro.bench,
            repro.cluster,
            repro.core,
            repro.corpus,
            repro.graph,
            repro.parallel,
        ):
            for name in module.__all__:
                assert getattr(module, name) is not None, (module.__name__, name)

    def test_facade_importable_from_top_level(self):
        from repro import CoarseParams, Graph, LinkClustering, sweep

        assert callable(sweep)
        assert LinkClustering and Graph and CoarseParams


class TestColdImport:
    def test_cli_and_daemon_imports_skip_scipy(self):
        # SciPy takes about half a second to import; only the sigmoid
        # fit and the vectorized corpus builder need it, so a cold
        # ``repro cluster`` or daemon start must not load it.
        src = os.path.dirname(os.path.dirname(repro.__file__))
        probe = (
            "import sys, repro, repro.cli, repro.serve; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        assert out.stdout.strip() == "[]"
