"""The ``repro lint`` driver: every MOB rule over the program, then the baseline.

One entry point, :func:`run_lint`, combines two layers:

1. the MOB003-007 rules (:mod:`repro.check.analysis.rules`) over the whole
   ``src/repro`` program model — whole-program even when specific paths
   are requested, because reachability cannot be computed file-locally —
   plus MOB000 for each file the model could not load;
2. the checked-in baseline (:mod:`repro.check.analysis.baseline`), which
   splits findings into live and acknowledged-with-justification.  It is
   applied to the whole-program report; live findings, suppressed
   findings and unused entries are then *filtered* to the requested paths,
   so a baseline entry outside them is neither stale nor reported.

Every file is read and parsed once, by :meth:`Program.from_tree`.
``repro check`` and the ``lint-analysis`` CI job both call :func:`run_lint`.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.check.analysis.baseline import (
    DEFAULT_BASELINE_PATH,
    Baseline,
    BaselineEntry,
    apply_baseline,
)
from repro.check.analysis.program import Program
from repro.check.analysis.rules import (
    DEFAULT_ANALYSIS_CONFIG,
    AnalysisConfig,
    analyze_program,
)
from repro.check.findings import CheckReport, Finding

__all__ = ["LintRun", "run_lint"]


@dataclasses.dataclass
class LintRun:
    """Everything one lint invocation produced.

    Attributes:
        report: Live (non-baselined) findings — what gates CI.
        suppressed: Findings matched by a baseline entry.
        unused_entries: Baseline entries that matched nothing (stale).
        baseline: The baseline that was applied (empty if none found).
    """

    report: CheckReport
    suppressed: list[Finding] = dataclasses.field(default_factory=list)
    unused_entries: list[BaselineEntry] = dataclasses.field(default_factory=list)
    baseline: Baseline = dataclasses.field(default_factory=Baseline)

    @property
    def ok(self) -> bool:
        return self.report.ok

    def to_dict(self) -> dict:
        payload = self.report.to_dict()
        payload["suppressed"] = [f.to_dict() for f in self.suppressed]
        payload["unused_baseline_entries"] = [
            dataclasses.asdict(e) for e in self.unused_entries
        ]
        return payload


def _finding_path(finding: Finding) -> str:
    subject = finding.subject or ""
    path, _, line = subject.rpartition(":")
    return path if line.isdigit() else subject


def _under(path: str, rel_paths: list[str]) -> bool:
    """Whether ``path`` is one of (or under) the requested paths; with none
    requested, every path is."""
    return not rel_paths or any(
        path == requested or path.startswith(requested.rstrip("/") + "/")
        for requested in rel_paths
    )


def run_lint(
    root: Path | str,
    paths: list[str] | None = None,
    *,
    baseline_path: Path | str | None = None,
    analysis_config: AnalysisConfig = DEFAULT_ANALYSIS_CONFIG,
) -> LintRun:
    """Run the full lint stack over the repo at ``root``.

    Args:
        root: Repo root (the directory containing ``src/repro``).
        paths: Optional files/directories, relative to ``root`` or absolute,
            to restrict the *reported* findings to; analysis still sees the
            whole program.  Each must exist under ``root``, or
            ``ValueError`` names it.
        baseline_path: Baseline JSON; defaults to ``<root>/LINT_BASELINE.json``
            (missing file = empty baseline).
    """
    root = Path(root)
    rel_paths = [_relative_path(root, p) for p in paths or ()]
    if baseline_path is None:
        baseline_path = root / DEFAULT_BASELINE_PATH
    baseline = Baseline.load(baseline_path)
    result = apply_baseline(
        analyze_program(Program.from_tree(root), analysis_config), baseline
    )
    return LintRun(
        report=CheckReport(
            [f for f in result.report if _under(_finding_path(f), rel_paths)]
        ),
        suppressed=[
            f for f in result.suppressed if _under(_finding_path(f), rel_paths)
        ],
        unused_entries=[
            e for e in result.unused_entries if _under(e.path, rel_paths)
        ],
        baseline=baseline,
    )


def _relative_path(root: Path, path: str) -> str:
    """``path`` as a repo-relative POSIX path; ``ValueError`` if it is
    outside ``root`` or does not exist."""
    candidate = Path(path)
    resolved = (candidate if candidate.is_absolute() else root / candidate).resolve()
    try:
        rel = resolved.relative_to(root.resolve())
    except ValueError:
        raise ValueError(f"path {path} is outside the lint root {root}") from None
    if not resolved.exists():
        raise ValueError(f"path {path} does not exist under {root}")
    return rel.as_posix()
