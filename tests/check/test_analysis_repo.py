"""The analyzer on the real tree: the repo gate, the analyzer's own
package, and one seeded defect per MOB rule."""

import dataclasses
import re
import shutil
from pathlib import Path

import pytest

from repro.check.analysis import DEFAULT_ANALYSIS_CONFIG, run_lint
from repro.check.analysis.program import Program

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRepoGate:
    """The shipped tree must be clean — these pin the acceptance criteria."""

    def test_run_lint_on_repo_has_no_live_findings(self):
        report = run_lint(REPO_ROOT)
        assert report.ok, report.render()
        assert not report.findings, report.render()

    def test_path_filter_restricts_reported_findings(self):
        for finding in run_lint(REPO_ROOT, ["src/repro/sim"]):
            assert finding.subject.startswith("src/repro/sim/")


class TestSelfCheck:
    """Lint-the-linter: the analyzer's own package must satisfy its rules."""

    def test_analyzer_package_is_clean_under_its_own_rules(self):
        from repro.check.analysis.rules import AnalysisConfig, analyze_program

        program = Program.from_tree(REPO_ROOT, subdir="src/repro/check")
        # With no seams, any write to module-level mutable state anywhere
        # in repro/check is a MOB007 finding.  Read-only constant tables
        # remain fine.
        report = analyze_program(program, AnalysisConfig(sync_seams=frozenset()))
        assert report.ok, report.render()


@dataclasses.dataclass(frozen=True)
class Seeded:
    """One defect in a real file (``old`` -> ``new``, ``old`` occurring
    exactly once) and the one finding it must draw."""

    code: str
    path: str
    old: str
    new: str
    symbol: str = ""


#: The seam MOB007's seeded case takes out of the config.
_CACHE_SEAM = "repro.perf.cache.configure_cache"

#: One seeded defect per rule; DESIGN.md §13 records which other check
#: (tier-1, a bench gate, the fingerprint encoder) also catches each.
SEEDED = (
    # The analyzer cannot see a file that does not parse.
    Seeded(
        "MOB000",
        "src/repro/analysis/timeline.py",
        "def to_chrome_trace(",
        "def to_chrome_trace((",
    ),
    # A task label outside the repro.core.labels grammar.
    Seeded(
        "MOB003",
        "src/repro/core/pipeline.py",
        "label=fwd_upload_label(j),",
        'label=f"upload-{j}",',
    ),
    # A CPU-time cutoff in the mapping search: it never binds on a short
    # run, so it changes no plan today.  The module imports no clock, so
    # the defect brings its own import.
    Seeded(
        "MOB004",
        "src/repro/core/mapping.py",
        "    def extend() -> None:\n",
        "    def extend() -> None:\n"
        "        import time\n"
        "\n"
        "        if time.process_time() > 3600.0:\n"
        "            return\n",
        "repro.core.mapping._class_representatives",
    ),
    # The flow network's component list built by walking a set of
    # priorities, not the insertion-ordered dict.
    Seeded(
        "MOB005",
        "src/repro/sim/resources.py",
        "        for priority, group in parts.items():\n",
        "        for priority in set(parts):\n"
        "            group = parts[priority]\n",
        "repro.sim.resources.FlowNetwork._affected",
    ),
    # A write to a cell after its memo digest is taken.
    Seeded(
        "MOB006",
        "src/repro/experiments/schedule.py",
        "        digest = fingerprint(cell)\n",
        "        digest = fingerprint(cell)\n        cell.model = cell.model\n",
        "repro.experiments.schedule.build_schedule",
    ),
    # The one config change: configure_cache's global rebind loses its seam.
    Seeded("MOB007", "src/repro/perf/cache.py", "", "", _CACHE_SEAM),
)


@pytest.fixture(scope="module")
def seeded_report(tmp_path_factory):
    """One lint run over one copy of ``src/repro`` carrying every seeded
    defect, with the configure_cache seam taken out of the config."""
    root = tmp_path_factory.mktemp("seeded")
    shutil.copytree(
        REPO_ROOT / "src" / "repro",
        root / "src" / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    for case in SEEDED:
        if not case.old:
            continue
        path = root / case.path
        source = path.read_text(encoding="utf-8")
        assert source.count(case.old) == 1, (case.code, case.old)
        path.write_text(source.replace(case.old, case.new), encoding="utf-8")
    config = dataclasses.replace(
        DEFAULT_ANALYSIS_CONFIG,
        sync_seams=DEFAULT_ANALYSIS_CONFIG.sync_seams - {_CACHE_SEAM},
    )
    return run_lint(root, analysis_config=config)


class TestSeededDefects:
    """Each rule catches its seeded defect on the real tree, and nothing
    else fires: every finding is one of the seeded ones."""

    def test_one_finding_per_seeded_defect(self, seeded_report):
        found = sorted(
            (f.code, f.symbol, f.subject.rpartition(":")[0])
            for f in seeded_report
        )
        assert found == sorted((c.code, c.symbol, c.path) for c in SEEDED), (
            seeded_report.render()
        )
        # Each one fails the gate: none is a warning.
        assert seeded_report.errors == seeded_report.findings

    def test_readme_rule_table_matches_seeded_rules(self):
        # A rule without a seeded case, or without a README row, fails here.
        seeded = sorted(case.code for case in SEEDED)
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        table = re.findall(r"^\| (MOB\d{3}) \|", readme, flags=re.MULTILINE)
        assert sorted(table) == seeded
        rules = (REPO_ROOT / "src/repro/check/analysis/rules.py").read_text()
        assert sorted(set(re.findall(r'"(MOB\d{3})"', rules))) == seeded
