"""Finding and report datatypes shared by every checker in :mod:`repro.check`.

A *finding* is one violated invariant: which checker saw it, a stable rule
code, where it happened (a stage/GPU, a trace span, a source location) and —
for quantitative constraints — the slack, negative by the violation amount.
Checkers return :class:`CheckReport` objects; reports merge, render as text
for humans and as JSON for CI.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Iterable, Iterator

__all__ = ["Finding", "CheckReport"]

#: Ordered severity levels; ``error`` findings fail the repo gate.
SEVERITIES = ("error", "warning")


@dataclasses.dataclass(frozen=True)
class Finding:
    """One violated invariant.

    Attributes:
        checker: Which checker produced it (``plan``, ``mapping``, ``trace``,
            ``lint``).
        code: Stable rule identifier, e.g. ``PLAN-EQ4`` or ``MOB004``.
        message: Human-readable description of the violation.
        subject: What the finding is about — ``stage 3 / gpu 1``, a task
            label, or ``path/to/file.py:42``.
        severity: ``error`` (gate-failing) or ``warning``.
        slack: For quantitative constraints, ``limit - actual`` in the
            constraint's unit; negative means violated by that much.
        symbol: For source findings, the qualified name of the function or
            class the finding anchors to (``repro.core.api.plan_mobius``);
            unlike ``subject``, it does not move when lines do.
    """

    checker: str
    code: str
    message: str
    subject: str = ""
    severity: str = "error"
    slack: float | None = None
    symbol: str = ""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return dataclasses.asdict(self)

    def render(self) -> str:
        """One-line human-readable form."""
        where = f" [{self.subject}]" if self.subject else ""
        slack = f" (slack {self.slack:.6g})" if self.slack is not None else ""
        return f"{self.severity.upper()} {self.checker}/{self.code}{where}: {self.message}{slack}"


@dataclasses.dataclass
class CheckReport:
    """An ordered collection of findings from one or more checkers."""

    findings: list[Finding] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether no *error*-severity findings were recorded."""
        return not any(f.severity == "error" for f in self.findings)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    def add(
        self,
        checker: str,
        code: str,
        message: str,
        *,
        subject: str = "",
        severity: str = "error",
        slack: float | None = None,
        symbol: str = "",
    ) -> Finding:
        """Record and return a new finding."""
        finding = Finding(checker, code, message, subject, severity, slack, symbol)
        self.findings.append(finding)
        return finding

    def extend(self, other: "CheckReport | Iterable[Finding]") -> "CheckReport":
        """Merge another report (or raw findings) into this one; returns self."""
        if isinstance(other, CheckReport):
            self.findings.extend(other.findings)
        else:
            self.findings.extend(other)
        return self

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def __len__(self) -> int:
        return len(self.findings)

    def render(self) -> str:
        """Multi-line human-readable report."""
        if not self.findings:
            return "no findings"
        lines = [f.render() for f in self.findings]
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "n_errors": len(self.errors),
            "n_warnings": len(self.warnings),
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)
