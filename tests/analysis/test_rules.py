"""Every rule fires on its bad fixture and stays quiet on its good one."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import analyze_file, resolve_rules
from repro.analysis.finding import Severity

FIXTURES = Path(__file__).parent / "fixtures"

RULES = [
    "SHM001",
    "SHM002",
    "SHM003",
    "PAR001",
    "PAR002",
    "PAR101",
    "PAR102",
    "PAR103",
    "DET001",
    "DET101",
    "DET102",
    "OBS101",
    "OBS102",
    "OBS103",
    "COR001",
    "API001",
]

# Some bad fixtures legitimately violate a sibling rule too: a worker
# that writes a module global is both the PAR101 flow violation and the
# older syntactic PAR002 pattern, and DET102 escalates DET001's
# detector inside worker-reachable code.
ALLOWED_EXTRAS = {
    "PAR002": {"PAR101"},
    "PAR101": {"PAR002"},
    "DET102": {"DET001"},
}


def run_rule(rule_id, fixture_name):
    rules = resolve_rules(select=[rule_id])
    return analyze_file(FIXTURES / fixture_name, rules)


@pytest.mark.parametrize("rule_id", RULES)
def test_bad_fixture_triggers(rule_id):
    findings = run_rule(rule_id, f"{rule_id.lower()}_bad.py")
    assert findings, f"{rule_id} did not fire on its bad fixture"
    assert all(f.rule_id == rule_id for f in findings)


@pytest.mark.parametrize("rule_id", RULES)
def test_good_fixture_passes(rule_id):
    findings = run_rule(rule_id, f"{rule_id.lower()}_good.py")
    assert findings == [], f"{rule_id} false positive: {findings}"


@pytest.mark.parametrize("rule_id", RULES)
def test_good_fixture_clean_under_all_rules(rule_id):
    """Good fixtures are clean for the *whole* catalog, not just their rule."""
    findings = analyze_file(FIXTURES / f"{rule_id.lower()}_good.py", resolve_rules())
    assert findings == [], findings


@pytest.mark.parametrize("rule_id", RULES)
def test_bad_fixtures_do_not_cross_trigger(rule_id):
    """Each bad fixture only violates its own rule (plus declared overlaps)."""
    findings = analyze_file(
        FIXTURES / f"{rule_id.lower()}_bad.py", resolve_rules()
    )
    fired = {f.rule_id for f in findings}
    assert rule_id in fired
    assert fired <= {rule_id} | ALLOWED_EXTRAS.get(rule_id, set())


class TestShm001Details:
    def test_attach_without_close_and_create_without_unlink(self):
        findings = run_rule("SHM001", "shm001_bad.py")
        messages = " ".join(f.message for f in findings)
        assert "close()" in messages
        assert "unlink()" in messages
        # three sites: plain attach, create-without-unlink, anonymous use
        assert len(findings) == 3


class TestShm002Details:
    def test_module_attribute_and_from_import_forms_flagged(self):
        findings = run_rule("SHM002", "shm002_bad.py")
        # pickle.dumps, pickle.loads, and the from-imported dumps alias
        assert len(findings) == 3
        messages = " ".join(f.message for f in findings)
        assert "load_pairs" in messages


class TestShm003Details:
    def test_leaked_handle_early_return_and_anonymous_use(self):
        findings = run_rule("SHM003", "shm003_bad.py")
        # leaked open() handle, early return past a memmap close,
        # anonymous os.fdopen chain
        assert len(findings) == 3
        messages = " ".join(f.message for f in findings)
        assert "close()" in messages

    def test_escape_shapes_accepted(self):
        findings = run_rule("SHM003", "shm003_good.py")
        assert findings == []


class TestPar001Details:
    def test_both_leak_sites_flagged(self):
        findings = run_rule("PAR001", "par001_bad.py")
        assert len(findings) == 2


class TestPar101Details:
    def test_global_rebind_and_subscript_write_flagged(self):
        findings = run_rule("PAR101", "par101_bad.py")
        assert len(findings) == 2
        messages = " ".join(f.message for f in findings)
        assert "module global" in messages
        assert "_calls" in messages
        assert "_TOTALS" in messages

    def test_severity_is_error(self):
        findings = run_rule("PAR101", "par101_bad.py")
        assert all(f.severity is Severity.ERROR for f in findings)


class TestPar102Details:
    def test_lambda_and_nested_def_flagged(self):
        findings = run_rule("PAR102", "par102_bad.py")
        assert len(findings) == 2
        messages = " ".join(f.message for f in findings)
        assert "lambda" in messages
        assert "_produce" in messages
        assert "pickle" in messages


class TestPar103Details:
    def test_parameter_independent_slices_flagged(self):
        findings = run_rule("PAR103", "par103_bad.py")
        assert len(findings) == 2
        assert all("slice" in f.message for f in findings)


class TestDet001Details:
    def test_boolop_fallback_to_global_module_is_flagged(self):
        findings = run_rule("DET001", "det001_bad.py")
        lines = {f.line for f in findings}
        assert len(findings) == 4
        assert any("shuffle" in f.message for f in findings)
        assert len(lines) == 4  # one finding per distinct call site


class TestDet101Details:
    def test_every_ordered_sink_flagged(self):
        findings = run_rule("DET101", "det101_bad.py")
        # append loop, yield loop, join of a set comp, list() of set algebra
        assert len(findings) == 4
        assert all(f.severity is Severity.WARNING for f in findings)
        messages = " ".join(f.message for f in findings)
        assert "sorted" in messages


class TestDet102Details:
    def test_worker_reachable_rng_flagged_with_context(self):
        findings = run_rule("DET102", "det102_bad.py")
        # direct worker (_jitter) and a helper two edges away (_pick)
        assert len(findings) == 2
        assert all("worker-reachable" in f.message for f in findings)
        qualnames = " ".join(f.message for f in findings)
        assert "_jitter" in qualnames
        assert "_pick" in qualnames


class TestObsDetails:
    def test_misspelled_span_names_flagged(self):
        findings = run_rule("OBS101", "obs101_bad.py")
        assert len(findings) == 2
        messages = " ".join(f.message for f in findings)
        assert "phase:swep" in messages
        assert "sweep:chnk[{...}]" in messages

    def test_unknown_event_name_flagged(self):
        findings = run_rule("OBS102", "obs102_bad.py")
        assert len(findings) == 1
        assert "sweep:levels" in findings[0].message

    def test_unknown_counter_name_flagged(self):
        findings = run_rule("OBS103", "obs103_bad.py")
        assert len(findings) == 1
        assert "merge_count" in findings[0].message


class TestCor001Details:
    def test_bare_tuple_and_plain_broad_excepts(self):
        findings = run_rule("COR001", "cor001_bad.py")
        assert len(findings) == 3


class TestApi001Details:
    def test_every_mutable_default_flagged(self):
        findings = run_rule("API001", "api001_bad.py")
        assert len(findings) == 4
