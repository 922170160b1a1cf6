"""Runner behaviour: discovery, noqa, select/ignore, stats, parse errors."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import (
    analyze_file,
    analyze_paths,
    iter_python_files,
    resolve_rules,
    rule_ids,
)
from repro.errors import AnalysisError

FIXTURES = Path(__file__).parent / "fixtures"


class TestDiscovery:
    def test_directory_is_expanded_recursively(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "b.py").write_text("y = 2\n")
        (tmp_path / "notes.txt").write_text("not python\n")
        files = iter_python_files([tmp_path])
        assert [f.name for f in files] == ["b.py", "a.py"]

    def test_explicit_file_and_dedup(self, tmp_path):
        f = tmp_path / "a.py"
        f.write_text("x = 1\n")
        assert iter_python_files([f, f, tmp_path]) == [f]

    def test_missing_path_raises(self):
        with pytest.raises(AnalysisError, match="no such file"):
            iter_python_files(["definitely/not/a/path.py"])


class TestNoqa:
    def test_specific_and_blanket_suppression(self):
        findings = analyze_file(FIXTURES / "noqa_suppressed.py", resolve_rules())
        # only the mismatched rule-id line still fires
        assert len(findings) == 1
        assert findings[0].rule_id == "DET001"
        assert "wrong_rule_id" in (FIXTURES / "noqa_suppressed.py").read_text()

    def test_suppressed_count_in_stats(self):
        result = analyze_paths([FIXTURES / "noqa_suppressed.py"])
        assert result.stats.suppressed == 2
        assert result.stats.findings == 1


class TestSelectIgnore:
    def test_select_limits_rules(self):
        result = analyze_paths([FIXTURES], select=["API001"])
        assert {f.rule_id for f in result.findings} == {"API001"}

    def test_ignore_removes_rules(self):
        result = analyze_paths([FIXTURES], ignore=["API001"])
        assert "API001" not in {f.rule_id for f in result.findings}

    def test_unknown_rule_id_raises(self):
        with pytest.raises(AnalysisError, match="unknown rule id"):
            analyze_paths([FIXTURES], select=["NOPE999"])

    def test_catalog_lists_all_rules(self):
        assert rule_ids() == [
            "API001",
            "COR001",
            "DET001",
            "DET101",
            "DET102",
            "OBS101",
            "OBS102",
            "OBS103",
            "PAR001",
            "PAR002",
            "PAR101",
            "PAR102",
            "PAR103",
            "SHM001",
            "SHM002",
            "SHM003",
        ]


class TestParseErrors:
    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        result = analyze_paths([bad])
        assert result.stats.parse_errors == 1
        assert result.findings[0].rule_id == "PARSE"
        assert result.findings[0].severity.value == "error"


class TestBaselineInteraction:
    def test_baselined_findings_do_not_gate(self, tmp_path):
        from repro.analysis import write_baseline

        target = FIXTURES / "api001_bad.py"
        first = analyze_paths([target])
        assert first.findings
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, first.findings)
        second = analyze_paths([target], baseline_path=baseline)
        assert second.findings == []
        assert second.stats.baselined == len(first.findings)
        assert not second  # gate passes

    def test_new_findings_still_gate(self, tmp_path):
        from repro.analysis import write_baseline

        target = FIXTURES / "api001_bad.py"
        first = analyze_paths([target], select=["API001"])
        baseline = tmp_path / "baseline.json"
        # Baseline only some findings: the rest must still fail the gate.
        write_baseline(baseline, first.findings[:2])
        second = analyze_paths([target], baseline_path=baseline)
        assert len(second.findings) == len(first.findings) - 2
        assert second.stats.baselined == 2

    def test_noqa_suppressed_findings_never_enter_baseline(self, tmp_path):
        from repro.analysis import Baseline, write_baseline

        result = analyze_paths([FIXTURES / "noqa_suppressed.py"])
        assert result.stats.suppressed == 2
        baseline = tmp_path / "baseline.json"
        count = write_baseline(baseline, result.findings)
        assert count == 1  # only the unsuppressed DET001 finding
        loaded = Baseline.load(baseline)
        assert len(loaded) == 1

    def test_baseline_respects_select_and_ignore(self, tmp_path):
        from repro.analysis import write_baseline

        target = FIXTURES / "det001_bad.py"
        all_rules = analyze_paths([target])
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, all_rules.findings)
        # Ignoring the baselined rule yields nothing new and nothing
        # baselined (the findings never materialize to be matched).
        ignored = analyze_paths([target], ignore=["DET001"],
                                baseline_path=baseline)
        assert ignored.findings == []
        assert ignored.stats.baselined == 0
        selected = analyze_paths([target], select=["DET001"],
                                 baseline_path=baseline)
        assert selected.findings == []
        assert selected.stats.baselined == 4


class TestResultCache:
    def test_warm_run_reuses_every_file(self, tmp_path):
        cache = tmp_path / "cache.json"
        cold = analyze_paths([FIXTURES], cache_path=cache)
        assert cold.stats.files_reused == 0
        warm = analyze_paths([FIXTURES], cache_path=cache)
        assert warm.stats.files_reused == warm.stats.files_scanned
        assert [f.to_dict() for f in warm.findings] == [
            f.to_dict() for f in cold.findings
        ]
        assert warm.stats.suppressed == cold.stats.suppressed

    def test_modified_file_invalidates_its_entry(self, tmp_path):
        cache = tmp_path / "cache.json"
        src = tmp_path / "mod.py"
        src.write_text("import random\nrandom.random()\n")
        first = analyze_paths([src], cache_path=cache)
        assert len(first.findings) == 1
        src.write_text("x = 1\n")
        second = analyze_paths([src], cache_path=cache)
        assert second.stats.files_reused == 0
        assert second.findings == []

    def test_rule_selection_changes_invalidate(self, tmp_path):
        cache = tmp_path / "cache.json"
        analyze_paths([FIXTURES / "api001_bad.py"], cache_path=cache)
        narrowed = analyze_paths(
            [FIXTURES / "api001_bad.py"], select=["DET001"], cache_path=cache
        )
        assert narrowed.stats.files_reused == 0
        assert narrowed.findings == []


class TestChangedOnly:
    def test_changed_only_outside_git_raises(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        src = tmp_path / "a.py"
        src.write_text("x = 1\n")
        with pytest.raises(AnalysisError, match="git checkout"):
            analyze_paths([src], changed_only=True)

    def test_changed_only_filters_to_dirty_files(self, tmp_path, monkeypatch):
        import subprocess

        monkeypatch.chdir(tmp_path)
        subprocess.run(["git", "init", "-q"], check=True)
        subprocess.run(["git", "config", "user.email", "t@t"], check=True)
        subprocess.run(["git", "config", "user.name", "t"], check=True)
        clean = tmp_path / "clean.py"
        clean.write_text("import random\nrandom.random()\n")
        subprocess.run(["git", "add", "."], check=True)
        subprocess.run(["git", "commit", "-qm", "init"], check=True)
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nrandom.random()\n")
        result = analyze_paths([tmp_path], changed_only=True)
        assert {f.file for f in result.findings} == {str(dirty)}


class TestStatsAndOrdering:
    def test_stats_counts_and_duration(self):
        result = analyze_paths([FIXTURES])
        assert result.stats.files_scanned == len(iter_python_files([FIXTURES]))
        assert result.stats.findings == len(result.findings)
        assert result.stats.duration_seconds > 0

    def test_findings_sorted_by_location(self):
        result = analyze_paths([FIXTURES])
        keys = [f.sort_key() for f in result.findings]
        assert keys == sorted(keys)

    def test_result_truthiness_reflects_gate(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert not analyze_paths([clean])
        assert analyze_paths([FIXTURES])
