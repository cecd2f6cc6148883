"""Tests for the finding and report datatypes the corpus checkers return."""

from __future__ import annotations

import pytest

from repro.check.findings import CheckReport, Finding


class TestFindings:
    def test_severity_validated(self):
        with pytest.raises(ValueError, match="severity"):
            Finding("plan", "X", "msg", severity="fatal")

    def test_report_ok_semantics(self):
        report = CheckReport()
        assert report.ok
        report.add("plan", "X", "soft", severity="warning")
        assert report.ok
        report.add("plan", "Y", "hard")
        assert not report.ok
        assert len(report.errors) == 1
        assert len(report.warnings) == 1

    def test_render_mentions_counts(self):
        report = CheckReport()
        report.add("plan", "X", "msg")
        assert "1 error(s), 0 warning(s)" in report.render()
        assert CheckReport().render() == "no findings"
