"""Whole-tree lint edge cases: broken files and allowlisted clocks."""

import textwrap
from pathlib import Path

from repro.check.analysis import (
    DEFAULT_ANALYSIS_CONFIG,
    AnalysisConfig,
    Program,
    analyze_program,
    run_lint,
)
from repro.check.findings import CheckReport


def _codes(report: CheckReport) -> list[str]:
    return [f.code for f in report]


def _make_tree(tmp_path: Path, files: dict[str, bytes]) -> Path:
    for rel_path, data in files.items():
        path = tmp_path / rel_path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return tmp_path


class TestBrokenFiles:
    def test_syntax_error_file_reports_mob000_and_does_not_abort(self, tmp_path):
        root = _make_tree(
            tmp_path,
            {
                "src/repro/sim/broken.py": b"def oops(:\n",
                "src/repro/sim/fine.py": b"import time\nt = time.time()\n",
            },
        )
        report = run_lint(root)
        codes = _codes(report)
        assert codes.count("MOB000") == 1  # the broken file
        assert "MOB004" in codes  # the fine file was still linted

    def test_empty_file_is_clean(self, tmp_path):
        root = _make_tree(tmp_path, {"src/repro/sim/empty.py": b""})
        assert _codes(run_lint(root)) == []

    def test_non_utf8_file_reports_mob000_instead_of_raising(self, tmp_path):
        root = _make_tree(
            tmp_path, {"src/repro/sim/binary.py": b"\xff\xfe\x00garbage"}
        )
        report = run_lint(root)
        assert _codes(report) == ["MOB000"]
        assert "not valid UTF-8" in report.findings[0].message

    def test_lint_file_handles_non_utf8(self, tmp_path):
        root = _make_tree(
            tmp_path, {"src/repro/sim/binary.py": b"\xff\xfe\x00garbage"}
        )
        program = Program.from_tree(root)
        assert list(program.broken) == ["src/repro/sim/binary.py"]
        assert _codes(analyze_program(program)) == ["MOB000"]


class TestClockAllowlist:
    def test_allowlisted_site_is_clean_but_other_sites_flagged(self, tmp_path):
        source = textwrap.dedent(
            """
            import time

            class Bench:
                def report(self):
                    return time.perf_counter()

                def hot(self):
                    return time.perf_counter()
            """
        ).encode()
        root = _make_tree(tmp_path, {"src/repro/faults/bench.py": source})
        config = AnalysisConfig(
            clock_allowlist=frozenset(
                {"src/repro/faults/bench.py::Bench.report"}
            ),
        )
        report = analyze_program(Program.from_tree(root), config)
        flagged_lines = [f.subject for f in report if f.code == "MOB004"]
        # Only the non-allowlisted method is flagged.
        assert len(flagged_lines) == 1
        assert flagged_lines[0].endswith(":9")

    def test_every_allowlist_entry_is_a_clock_site(self):
        # No stale entries: with the allowlist emptied, the repo's MOB004
        # findings sit in exactly the allowlisted functions.
        program = Program.from_tree(Path(__file__).resolve().parents[2])
        report = analyze_program(
            program, AnalysisConfig(clock_allowlist=frozenset())
        )
        sites = {
            program.functions[f.symbol].site for f in report if f.code == "MOB004"
        }
        assert sites == DEFAULT_ANALYSIS_CONFIG.clock_allowlist
