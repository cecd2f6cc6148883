"""CheckReport/Finding semantics: merge, ordering, severity, symbol field."""

import json

import pytest

from repro.check.findings import CheckReport, Finding


class TestFinding:
    def test_rejects_unknown_severity(self):
        with pytest.raises(ValueError, match="severity"):
            Finding("lint", "MOB003", "msg", severity="fatal")

    def test_symbol_defaults_empty_and_round_trips(self):
        finding = Finding("analysis", "MOB004", "msg", subject="a.py:3")
        assert finding.symbol == ""
        tagged = Finding(
            "analysis", "MOB007", "msg", subject="a.py:3", symbol="repro.a.f"
        )
        assert tagged.to_dict()["symbol"] == "repro.a.f"

    def test_render_includes_severity_code_subject_and_slack(self):
        finding = Finding(
            "plan", "PLAN-EQ4", "budget exceeded", subject="stage 3", slack=-2.5
        )
        text = finding.render()
        assert "ERROR plan/PLAN-EQ4" in text
        assert "[stage 3]" in text
        assert "slack -2.5" in text


class TestCheckReport:
    def test_empty_report_is_ok(self):
        report = CheckReport()
        assert report.ok
        assert report.render() == "no findings"
        assert len(report) == 0

    def test_warnings_do_not_fail_the_gate(self):
        report = CheckReport()
        report.add("lint", "MOB003", "unverifiable label", severity="warning")
        assert report.ok
        assert len(report.warnings) == 1
        assert not report.errors

    def test_errors_fail_the_gate(self):
        report = CheckReport()
        report.add("analysis", "MOB004", "wall clock")
        assert not report.ok
        assert len(report.errors) == 1

    def test_add_returns_the_finding_with_symbol(self):
        report = CheckReport()
        finding = report.add(
            "analysis", "MOB007", "shared write", symbol="repro.m.f"
        )
        assert finding in report.findings
        assert finding.symbol == "repro.m.f"

    def test_extend_merges_reports_preserving_order(self):
        first = CheckReport()
        first.add("a", "C1", "one")
        second = CheckReport()
        second.add("b", "C2", "two")
        second.add("b", "C3", "three")
        merged = first.extend(second)
        assert merged is first
        assert [f.code for f in first] == ["C1", "C2", "C3"]

    def test_extend_accepts_raw_findings(self):
        report = CheckReport()
        report.extend([Finding("x", "C9", "raw")])
        assert [f.code for f in report] == ["C9"]

    def test_to_json_counts_by_severity(self):
        report = CheckReport()
        report.add("a", "C1", "one")
        report.add("a", "C2", "two", severity="warning")
        payload = json.loads(report.to_json())
        assert payload["ok"] is False
        assert payload["n_errors"] == 1
        assert payload["n_warnings"] == 1
        assert len(payload["findings"]) == 2

    def test_render_summarizes_counts(self):
        report = CheckReport()
        report.add("a", "C1", "one")
        report.add("a", "C2", "two", severity="warning")
        assert report.render().splitlines()[-1] == "1 error(s), 1 warning(s)"
