"""Baseline suppressions, SARIF output, the lint driver, and repo self-checks."""

import json
import re
from pathlib import Path

from repro.check.analysis.baseline import (
    Baseline,
    BaselineEntry,
    apply_baseline,
)
from repro.check.analysis.callgraph import build_call_graph
from repro.check.analysis.driver import run_lint
from repro.check.analysis.program import Program
from repro.check.analysis.sarif import RULE_DESCRIPTIONS, to_sarif
from repro.check.findings import CheckReport

REPO_ROOT = Path(__file__).resolve().parents[2]


def _report_with(*entries: tuple[str, str, str]) -> CheckReport:
    report = CheckReport()
    for code, subject, symbol in entries:
        report.add("analysis", code, f"finding {code}", subject=subject, symbol=symbol)
    return report


class TestBaseline:
    def test_matching_is_by_code_path_symbol_not_line(self):
        baseline = Baseline(
            [BaselineEntry("MOB007", "src/repro/a.py", "repro.a.f", "ok")]
        )
        # Same (code, path, symbol), different line: still suppressed.
        result = apply_baseline(
            _report_with(("MOB007", "src/repro/a.py:999", "repro.a.f")), baseline
        )
        assert len(result.report) == 0
        assert len(result.suppressed) == 1
        assert not result.unused_entries

    def test_non_matching_findings_stay_live(self):
        baseline = Baseline(
            [BaselineEntry("MOB007", "src/repro/a.py", "repro.a.f", "ok")]
        )
        result = apply_baseline(
            _report_with(("MOB007", "src/repro/a.py:3", "repro.a.other")), baseline
        )
        assert len(result.report) == 1
        assert len(result.unused_entries) == 1

    def test_round_trip_through_disk(self, tmp_path):
        baseline = Baseline(
            [BaselineEntry("MOB007", "src/repro/a.py", "repro.a.f", "why")]
        )
        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        assert loaded.entries == baseline.entries

    def test_missing_file_loads_empty(self, tmp_path):
        assert len(Baseline.load(tmp_path / "absent.json")) == 0

    def test_from_report_deduplicates_keys(self):
        report = _report_with(
            ("MOB007", "src/repro/a.py:3", "repro.a.f"),
            ("MOB007", "src/repro/a.py:9", "repro.a.f"),
        )
        baseline = Baseline.from_report(report)
        assert len(baseline) == 1


class TestSarif:
    def test_document_shape_and_result_fields(self):
        report = _report_with(("MOB004", "src/repro/a.py:12", "repro.a.f"))
        document = json.loads(to_sarif(report))
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"MOB000", "MOB004", "MOB007"} <= rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "MOB004"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/a.py"
        assert location["region"]["startLine"] == 12
        assert result["properties"]["symbol"] == "repro.a.f"

    def test_empty_report_is_valid_sarif(self):
        document = json.loads(to_sarif(CheckReport()))
        assert document["runs"][0]["results"] == []

    def test_readme_rule_table_matches_sarif_rules(self):
        # Retiring or adding a rule must update both the README table and
        # the SARIF metadata.
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        table = re.findall(r"^\| (MOB\d{3}) \|", readme, flags=re.MULTILINE)
        assert sorted(table) == sorted(RULE_DESCRIPTIONS)
        assert len(table) == len(set(table))


class TestRepoGate:
    """The shipped tree must be clean — these pin the acceptance criteria."""

    def test_run_lint_on_repo_has_no_live_findings(self):
        run = run_lint(REPO_ROOT)
        assert run.ok, run.report.render()
        assert not run.unused_entries, run.unused_entries

    def test_checked_in_baseline_has_zero_mob004_entries(self):
        baseline = Baseline.load(REPO_ROOT / "LINT_BASELINE.json")
        mob004 = [e for e in baseline.entries if e.code == "MOB004"]
        assert not mob004, "hot paths must be genuinely clean, not suppressed"

    def test_checked_in_baseline_entries_are_justified(self):
        baseline = Baseline.load(REPO_ROOT / "LINT_BASELINE.json")
        for entry in baseline.entries:
            assert entry.justification.strip(), entry

    def test_path_filter_restricts_reported_findings(self):
        run = run_lint(REPO_ROOT, ["src/repro/sim"], baseline_path="/nonexistent")
        for finding in run.report:
            assert finding.subject.startswith("src/repro/sim/")


class TestSelfCheck:
    """Lint-the-linter: the analyzer's own package must satisfy its rules."""

    def test_analyzer_package_is_clean_under_its_own_rules(self):
        from repro.check.analysis.rules import AnalysisConfig, analyze_program

        program = Program.from_tree(REPO_ROOT, subdir="src/repro/check")
        # Treat EVERY function in the package as a worker entry: any write
        # to module-level mutable state anywhere in repro/check is then a
        # MOB007 finding.  Read-only constant tables remain fine.
        config = AnalysisConfig(
            worker_entry_points=tuple(sorted(program.functions)),
            race_registries=(),
            sync_seams=frozenset(),
        )
        report = analyze_program(program, config)
        assert report.ok, report.render()

    def test_real_tree_call_graph_resolves_known_edges(self):
        """Resolution-regression canary: these edges must survive refactors."""
        program = Program.from_tree(REPO_ROOT)
        graph = build_call_graph(program)
        assert "repro.experiments.runner.run_cell" in graph.callees(
            "repro.experiments.runner.ExperimentCell.run"
        )
        assert "repro.experiments.runner._run_system_uncached" in graph.callees(
            "repro.experiments.runner.run_cell"
        )
        assert "repro.core.api.run_mobius" in graph.callees(
            "repro.experiments.runner._run_system_uncached"
        )
        assert "repro.core.api.partition_solve_key" in graph.callees(
            "repro.core.api._plan_mobius_uncached"
        )
        assert "repro.sim.tasks._next_task_uid" in graph.callees(
            "repro.sim.tasks.Task.__post_init__"
        )

    def test_real_tree_seam_callbacks_cross_the_event_loop(self):
        program = Program.from_tree(REPO_ROOT)
        graph = build_call_graph(program)
        # TaskGraphRunner registers closures at engine seams, so its methods
        # join the event-loop frontier.
        assert any(
            q.startswith("repro.sim.tasks.TaskGraphRunner")
            for q in graph.seam_callbacks
        ), sorted(graph.seam_callbacks)
