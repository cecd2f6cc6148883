"""Repo-specific AST lint rules (the ``MOB0xx`` family).

Generic linters cannot know this repo's contracts; these per-file rules
encode two that have bitten (or would silently bite) the reproduction.
Clock and RNG discipline is MOB004, which scopes by reachability over the
whole program (:mod:`repro.check.analysis.rules`), not by file:

* **MOB001 — fingerprint stability.**  Every ``@dataclass`` defined in a
  module whose instances reach :mod:`repro.perf.fingerprint` must be
  ``frozen=True`` or explicitly registered in the mutable allowlist.  A
  mutable dataclass used as part of a cache key can be mutated after
  hashing, silently poisoning the content-addressed result cache.

* **MOB003 — task-label contract.**  Task labels built in
  ``repro/core/pipeline.py`` must come from the :mod:`repro.core.labels`
  constructors, or be literals matching its compiled patterns — the same
  patterns :mod:`repro.core.memory_audit` parses.  A drifting label format
  makes the auditor silently skip events.

All rules are pure :mod:`ast` passes over an already-parsed module — no
imports of the linted code, no third-party linter needed.  Reading and
parsing the files, and reporting MOB000 for any that cannot be, is the
program model's job (:func:`repro.check.analysis.run_lint`).
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

from repro.check.findings import CheckReport
from repro.core.labels import ALL_LABEL_PATTERNS

__all__ = [
    "LintConfig",
    "DEFAULT_CONFIG",
    "lint_module",
]

_CHECKER = "lint"

_TASK_CONSTRUCTORS = frozenset({"Task", "ComputeTask", "TransferTask", "BarrierTask"})

_LABELS_MODULE = "repro.core.labels"


@dataclasses.dataclass(frozen=True)
class LintConfig:
    """Which files each MOB rule applies to (repo-relative POSIX paths).

    Attributes:
        fingerprint_modules: Modules whose dataclasses become fingerprint
            cache-key material (MOB001).
        mutable_allowlist: Qualified names (``repro.core.api.MobiusReport``)
            of dataclasses that are deliberately mutable — cached *values*,
            never keys.
        label_modules: Files whose task-label expressions must honour the
            :mod:`repro.core.labels` contract (MOB003).
    """

    fingerprint_modules: tuple[str, ...] = (
        "src/repro/core/plan.py",
        "src/repro/core/api.py",
        "src/repro/models/spec.py",
        "src/repro/models/costmodel.py",
        "src/repro/hardware/gpu.py",
        # Fault models are part of chaos-report identity: schedules are
        # hashed for per-attempt failure coins and reports are diffed
        # byte-for-byte across runs, so every dataclass must be frozen.
        "src/repro/faults/models.py",
        "src/repro/faults/recovery.py",
        "src/repro/faults/replan.py",
        "src/repro/faults/chaos.py",
        # Serve requests/responses are content addresses: solve_key is the
        # coalescing and crash-identity key, so the dataclasses behind it
        # must be frozen fingerprint material.
        "src/repro/serve/requests.py",
    )
    mutable_allowlist: frozenset[str] = frozenset(
        {
            "repro.core.api.MobiusPlanReport",
            "repro.core.api.MobiusReport",
        }
    )
    label_modules: tuple[str, ...] = ("src/repro/core/pipeline.py",)


DEFAULT_CONFIG = LintConfig()


def _module_name(rel_path: str) -> str:
    parts = Path(rel_path).with_suffix("").parts
    if parts and parts[0] == "src":
        parts = parts[1:]
    return ".".join(parts)


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | ast.Call | None:
    """The ``@dataclass`` decorator of ``node``, if any."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return deco
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return deco
    return None


def _is_frozen(decorator: ast.expr) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    for kw in decorator.keywords:
        if kw.arg == "frozen":
            return isinstance(kw.value, ast.Constant) and kw.value.value is True
    return False


def _check_fingerprint_dataclasses(
    tree: ast.Module, rel_path: str, config: LintConfig, report: CheckReport
) -> None:
    module = _module_name(rel_path)
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorator = _dataclass_decorator(node)
        if decorator is None or _is_frozen(decorator):
            continue
        qualname = f"{module}.{node.name}"
        if qualname in config.mutable_allowlist:
            continue
        report.add(
            _CHECKER,
            "MOB001",
            f"dataclass {node.name!r} reaches repro.perf.fingerprint but is "
            f"neither frozen=True nor allowlisted as a registered mutable "
            f"({qualname})",
            subject=f"{rel_path}:{node.lineno}",
        )


def _labels_module_names(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Names bound from :mod:`repro.core.labels`: (functions, module aliases)."""
    functions: set[str] = set()
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == _LABELS_MODULE:
            for alias in node.names:
                functions.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == _LABELS_MODULE:
                    modules.add(alias.asname or alias.name)
    return functions, modules


def _literal_label(node: ast.expr) -> str | None:
    """Best-effort literal text of a label expression, or None.

    f-string placeholders are substituted with ``"0"`` — the contract's
    patterns are anchored, so an ad-hoc f-string only passes when its static
    skeleton already has the blessed shape.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts: list[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(value.value)
            else:
                parts.append("0")
        return "".join(parts)
    return None


def _check_task_labels(
    tree: ast.Module, rel_path: str, report: CheckReport
) -> None:
    helper_funcs, helper_modules = _labels_module_names(tree)

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        if name not in _TASK_CONSTRUCTORS:
            continue

        label_expr: ast.expr | None = None
        for kw in node.keywords:
            if kw.arg == "label":
                label_expr = kw.value
        if label_expr is None and node.args:
            label_expr = node.args[0]  # Task's first positional field
        if label_expr is None:
            continue

        # Helper-constructor calls satisfy the contract by construction.
        if isinstance(label_expr, ast.Call):
            target = label_expr.func
            if isinstance(target, ast.Name) and target.id in helper_funcs:
                continue
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id in helper_modules
            ):
                continue

        literal = _literal_label(label_expr)
        if literal is not None:
            if not any(p.fullmatch(literal) for p in ALL_LABEL_PATTERNS):
                report.add(
                    _CHECKER,
                    "MOB003",
                    f"task label {literal!r} does not match the "
                    "repro.core.labels contract parsed by memory_audit; use "
                    "a labels.* constructor",
                    subject=f"{rel_path}:{label_expr.lineno}",
                )
            continue

        report.add(
            _CHECKER,
            "MOB003",
            "task label built from an expression the linter cannot verify "
            "against the repro.core.labels contract; use a labels.* "
            "constructor",
            subject=f"{rel_path}:{label_expr.lineno}",
            severity="warning",
        )


def lint_module(
    tree: ast.Module, rel_path: str, config: LintConfig = DEFAULT_CONFIG
) -> CheckReport:
    """Run the per-file rules that ``config`` scopes to ``rel_path``."""
    report = CheckReport()
    if rel_path in config.fingerprint_modules:
        _check_fingerprint_dataclasses(tree, rel_path, config, report)
    if rel_path in config.label_modules:
        _check_task_labels(tree, rel_path, report)
    return report
