"""lint_tree / lint_file edge cases: broken files and allowlisted clocks."""

import textwrap
from pathlib import Path

from repro.check.findings import CheckReport
from repro.check.lint import DEFAULT_CONFIG, LintConfig, lint_file, lint_tree


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
        report = lint_tree(root)
        codes = _codes(report)
        assert "MOB000" in codes  # the broken file
        assert "MOB002" in codes  # the fine file was still linted

    def test_empty_file_is_clean(self, tmp_path):
        root = _make_tree(tmp_path, {"src/repro/sim/empty.py": b""})
        assert _codes(lint_tree(root)) == []

    def test_non_utf8_file_reports_mob000_instead_of_raising(self, tmp_path):
        root = _make_tree(
            tmp_path, {"src/repro/sim/binary.py": b"\xff\xfe\x00garbage"}
        )
        report = lint_tree(root)
        assert _codes(report) == ["MOB000"]
        assert "not valid UTF-8" in report.findings[0].message

    def test_lint_file_handles_non_utf8(self, tmp_path):
        root = _make_tree(
            tmp_path, {"src/repro/sim/binary.py": b"\xff\xfe\x00garbage"}
        )
        report = lint_file(root / "src/repro/sim/binary.py", root)
        assert _codes(report) == ["MOB000"]


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
        root = _make_tree(tmp_path, {"src/repro/solver/bench.py": source})
        config = LintConfig(
            fingerprint_modules=(),
            label_modules=(),
            clock_allowlist=frozenset(
                {"src/repro/solver/bench.py::Bench.report"}
            ),
        )
        report = lint_tree(root, config)
        flagged_lines = [f.subject for f in report if f.code == "MOB002"]
        # Only the non-allowlisted method is flagged.
        assert len(flagged_lines) == 1
        assert flagged_lines[0].endswith(":9")

    def test_default_allowlist_covers_repo_reporting_sites(self):
        assert (
            "src/repro/sim/bench.py::_run_corpus_rows"
            in DEFAULT_CONFIG.clock_allowlist
        )
