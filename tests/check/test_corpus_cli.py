"""Tests for the verification corpus and the ``repro check`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.check.corpus import default_corpus
from repro.check.findings import CheckReport, Finding
from repro.cli import main


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

    def test_prefixed_subjects(self):
        report = CheckReport()
        report.add("trace", "A", "msg", subject="gpu 0")
        report.add("trace", "B", "msg")
        cell = report.prefixed("gpt-a/topo_2_2")
        assert cell.findings[0].subject == "gpt-a/topo_2_2: gpu 0"
        assert cell.findings[1].subject == "gpt-a/topo_2_2"

    def test_render_mentions_counts(self):
        report = CheckReport()
        report.add("plan", "X", "msg")
        assert "1 error(s), 0 warning(s)" in report.render()
        assert CheckReport().render() == "no findings"


class TestCorpus:
    def test_default_corpus_has_at_least_four_cells(self):
        cells = default_corpus()
        assert len(cells) >= 4
        assert len({cell.name for cell in cells}) == len(cells)
        # The corpus must exercise more than one topology and model.
        assert len({cell.topology.name for cell in cells}) >= 3
        assert len({cell.model.name for cell in cells}) >= 2


class TestCheckCli:
    def test_check_surfaces_corpus_findings(self, monkeypatch, capsys):
        # check reports what the corpus checkers find: every cell's
        # findings reach the report and fail the exit code.
        def check_cell(cell):
            report = CheckReport()
            report.add("plan", "PLAN-EQ4", "seeded", subject=cell.name)
            return report

        monkeypatch.setattr("repro.check.corpus.check_cell", check_cell)
        assert main(["check", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["subject"] for f in payload["findings"]] == [
            cell.name for cell in default_corpus()
        ]

    @pytest.mark.slow
    def test_full_corpus_gate_passes(self, capsys):
        """The acceptance gate: every checker, every cell, zero findings."""
        assert main(["check", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["n_errors"] == 0
