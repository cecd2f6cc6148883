"""The ``repro lint`` subcommand: output modes, baselines, exit codes."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

#: A tree with one interprocedural finding: Simulator.run reaches a wall
#: clock in a module no path-prefix rule covers.
_FIXTURE_FILES = {
    "src/repro/sim/engine.py": """
        from repro.analysis.helpers import estimate

        class Simulator:
            def run(self):
                estimate()
        """,
    "src/repro/analysis/helpers.py": """
        import time

        def estimate():
            return time.time()
        """,
}


@pytest.fixture()
def fixture_root(tmp_path):
    for rel_path, source in _FIXTURE_FILES.items():
        path = tmp_path / rel_path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path


class TestLintCommand:
    def test_repo_tree_is_clean(self, capsys):
        assert main(["lint", "--root", str(REPO_ROOT), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["findings"] == []
        assert payload["unused_baseline_entries"] == []

    def test_finding_fails_with_exit_1(self, fixture_root, capsys):
        assert main(["lint", "--root", str(fixture_root), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        codes = {f["code"] for f in payload["findings"]}
        assert "MOB004" in codes

    def test_sarif_output_is_written(self, fixture_root, tmp_path, capsys):
        sarif_path = tmp_path / "out" / "lint.sarif"
        sarif_path.parent.mkdir()
        code = main(
            ["lint", "--root", str(fixture_root), "--sarif", str(sarif_path)]
        )
        assert code == 1
        document = json.loads(sarif_path.read_text())
        assert document["version"] == "2.1.0"
        assert document["runs"][0]["results"][0]["ruleId"] == "MOB004"

    def test_write_baseline_then_clean(self, fixture_root, capsys):
        baseline_path = fixture_root / "LINT_BASELINE.json"
        assert (
            main(["lint", "--root", str(fixture_root), "--write-baseline"]) == 0
        )
        assert baseline_path.is_file()
        capsys.readouterr()
        # With the generated baseline, the same tree is clean.
        assert main(["lint", "--root", str(fixture_root), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["suppressed"]

    def test_paths_restrict_reported_findings(self, fixture_root, capsys):
        # The finding is in src/repro/analysis/; restricting to sim/ hides it.
        assert (
            main(["lint", "--root", str(fixture_root), "src/repro/sim", "--json"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []

    def test_missing_tree_is_a_usage_error(self, tmp_path, capsys):
        assert main(["lint", "--root", str(tmp_path)]) == 2
        assert "no src/repro" in capsys.readouterr().err

    def test_write_baseline_with_paths_is_a_usage_error(self, fixture_root, capsys):
        # A path-filtered baseline would drop every entry outside the paths.
        baseline_path = fixture_root / "LINT_BASELINE.json"
        assert main(["lint", "--root", str(fixture_root), "--write-baseline"]) == 0
        before = baseline_path.read_text()
        capsys.readouterr()
        argv = ["lint", "--root", str(fixture_root), "src/repro/sim", "--write-baseline"]
        assert main(argv) == 2
        assert "--write-baseline" in capsys.readouterr().err
        assert baseline_path.read_text() == before

    def test_paths_filter_baseline_after_applying_it(self, fixture_root, capsys):
        # The one baseline entry sits in src/repro/analysis/: outside the
        # requested path it is neither stale nor reported, inside it still
        # suppresses its finding.
        assert main(["lint", "--root", str(fixture_root), "--write-baseline"]) == 0
        capsys.readouterr()
        assert main(["lint", "--root", str(fixture_root), "src/repro/sim"]) == 0
        assert "stale baseline entry" not in capsys.readouterr().out
        argv = ["lint", "--root", str(fixture_root), "--json"]
        assert main([*argv, "src/repro/sim"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suppressed"] == []
        assert payload["unused_baseline_entries"] == []
        assert main([*argv, "src/repro/analysis"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [f["code"] for f in payload["suppressed"]] == ["MOB004"]

    def test_path_outside_root_is_a_usage_error(self, fixture_root, tmp_path, capsys):
        outside = tmp_path.parent / "outside.py"
        assert main(["lint", "--root", str(fixture_root), str(outside)]) == 2
        assert str(outside) in capsys.readouterr().err

    def test_missing_path_is_a_usage_error(self, fixture_root, capsys):
        argv = ["lint", "--root", str(fixture_root), "src/repro/typo.py"]
        assert main(argv) == 2
        assert "src/repro/typo.py" in capsys.readouterr().err


class TestCheckReusesLint:
    def test_check_lint_only_is_clean_on_repo(self, capsys):
        code = main(
            ["check", "--no-corpus", "--json", "--root", str(REPO_ROOT)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_check_surfaces_analysis_findings(self, fixture_root, capsys):
        code = main(
            ["check", "--no-corpus", "--json", "--root", str(fixture_root)]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert any(f["code"] == "MOB004" for f in payload["findings"])
