"""The ``repro lint`` driver: every MOB rule over the whole program.

One entry point, :func:`run_lint`, runs the MOB003-007 rules
(:mod:`repro.check.analysis.rules`) over the whole ``src/repro`` program
model, plus MOB000 for each file the model could not load.  The analysis
is whole-program even when specific paths are requested, because whether
a module-level instance is shared mutable state depends on a class that
may be defined in another file; the findings are then *filtered* to the
requested paths.  A finding is fine only if
:class:`~repro.check.analysis.rules.AnalysisConfig` says so: a seam or an
allowlist entry, with its reason beside it.

Every file is read and parsed once, by :meth:`Program.from_tree`.
"""

from __future__ import annotations

from pathlib import Path

from repro.check.analysis.program import Program
from repro.check.analysis.rules import (
    DEFAULT_ANALYSIS_CONFIG,
    AnalysisConfig,
    analyze_program,
)
from repro.check.findings import CheckReport, Finding

__all__ = ["run_lint"]


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
    analysis_config: AnalysisConfig = DEFAULT_ANALYSIS_CONFIG,
) -> CheckReport:
    """Run every MOB rule over the repo at ``root``.

    Args:
        root: Repo root (the directory containing ``src/repro``).
        paths: Optional files/directories, relative to ``root`` or absolute,
            to restrict the *reported* findings to; analysis still sees the
            whole program.  Each must exist under ``root``, or
            ``ValueError`` names it.
    """
    root = Path(root)
    rel_paths = [_relative_path(root, p) for p in paths or ()]
    report = analyze_program(Program.from_tree(root), analysis_config)
    return CheckReport(
        [f for f in report if _under(_finding_path(f), rel_paths)]
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
