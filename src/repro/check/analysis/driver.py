"""The ``repro lint`` driver: per-file rules + whole-program analysis + baseline.

One entry point, :func:`run_lint`, combines the three layers:

1. the per-file MOB001/MOB003 pass (:mod:`repro.check.lint`) over the
   modules its config names;
2. the interprocedural MOB004-007 pass (:mod:`repro.check.analysis.rules`)
   over the whole ``src/repro`` program model — whole-program even when
   specific paths are requested, because reachability cannot be computed
   file-locally (findings are then *filtered* to the requested paths) —
   plus MOB000 for each file the model could not load;
3. the checked-in baseline (:mod:`repro.check.analysis.baseline`), which
   splits findings into live and acknowledged-with-justification.

Every file is read and parsed once, by :meth:`Program.from_tree`; the
per-file rules run on the trees it parsed.  ``repro check`` and the
``lint-analysis`` CI job both call :func:`run_lint`.
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
from repro.check.lint import DEFAULT_CONFIG, LintConfig, lint_module

__all__ = ["LintRun", "lint_program", "run_lint"]


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


def _filter_paths(report: CheckReport, rel_paths: list[str]) -> CheckReport:
    """Keep findings whose file is one of (or under) the requested paths."""
    kept = CheckReport()
    for finding in report:
        path = _finding_path(finding)
        for requested in rel_paths:
            if path == requested or path.startswith(requested.rstrip("/") + "/"):
                kept.findings.append(finding)
                break
    return kept


def lint_program(
    program: Program,
    *,
    lint_config: LintConfig = DEFAULT_CONFIG,
    analysis_config: AnalysisConfig = DEFAULT_ANALYSIS_CONFIG,
) -> CheckReport:
    """Every MOB rule over one program model, without the baseline."""
    report = CheckReport()
    for module in program.modules.values():
        report.extend(lint_module(module.tree, module.rel_path, lint_config))
    return report.extend(analyze_program(program, analysis_config))


def run_lint(
    root: Path | str,
    paths: list[str] | None = None,
    *,
    baseline_path: Path | str | None = None,
    lint_config: LintConfig = DEFAULT_CONFIG,
    analysis_config: AnalysisConfig = DEFAULT_ANALYSIS_CONFIG,
) -> LintRun:
    """Run the full lint stack over the repo at ``root``.

    Args:
        root: Repo root (the directory containing ``src/repro``).
        paths: Optional repo-relative files/directories to restrict the
            *reported* findings to; analysis still sees the whole program.
        baseline_path: Baseline JSON; defaults to ``<root>/LINT_BASELINE.json``
            (missing file = empty baseline).
    """
    root = Path(root)
    combined = lint_program(
        Program.from_tree(root),
        lint_config=lint_config,
        analysis_config=analysis_config,
    )

    if paths:
        rel_paths = []
        for p in paths:
            candidate = Path(p)
            if candidate.is_absolute():
                rel_paths.append(
                    candidate.resolve().relative_to(root.resolve()).as_posix()
                )
            else:
                rel_paths.append(candidate.as_posix())
        combined = _filter_paths(combined, rel_paths)

    if baseline_path is None:
        baseline_path = root / DEFAULT_BASELINE_PATH
    baseline = Baseline.load(baseline_path)
    result = apply_baseline(combined, baseline)
    return LintRun(
        report=result.report,
        suppressed=result.suppressed,
        unused_entries=result.unused_entries,
        baseline=baseline,
    )
