"""The ``repro lint`` subcommand: output modes, path filters, exit codes."""

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

    def test_finding_fails_with_exit_1(self, fixture_root, capsys):
        assert main(["lint", "--root", str(fixture_root), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        codes = {f["code"] for f in payload["findings"]}
        assert "MOB004" in codes

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

    def test_path_outside_root_is_a_usage_error(self, fixture_root, tmp_path, capsys):
        outside = tmp_path.parent / "outside.py"
        assert main(["lint", "--root", str(fixture_root), str(outside)]) == 2
        assert str(outside) in capsys.readouterr().err

    def test_missing_path_is_a_usage_error(self, fixture_root, capsys):
        argv = ["lint", "--root", str(fixture_root), "src/repro/typo.py"]
        assert main(argv) == 2
        assert "src/repro/typo.py" in capsys.readouterr().err
