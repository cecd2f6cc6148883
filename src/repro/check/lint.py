"""Repo-specific AST lint rules (the ``MOB0xx`` family).

Generic linters cannot know this repo's contracts; these rules encode the
three that have bitten (or would silently bite) the reproduction:

* **MOB001 — fingerprint stability.**  Every ``@dataclass`` defined in a
  module whose instances reach :mod:`repro.perf.fingerprint` must be
  ``frozen=True`` or explicitly registered in the mutable allowlist.  A
  mutable dataclass used as part of a cache key can be mutated after
  hashing, silently poisoning the content-addressed result cache.

* **MOB002 — hot-path determinism.**  Modules under ``repro/sim/`` and
  ``repro/core/`` must not read wall-clock time (``time.time``,
  ``time.time_ns``, ``datetime.now``) or draw unseeded randomness
  (``import random``, legacy ``numpy.random.*`` calls).  The simulator's
  virtual clock is the only time source there; ``time.perf_counter`` is
  allowed because it only feeds search-duration metadata, never results.
  Modules under ``repro/solver/`` and ``repro/sim/`` are held to the
  *strict* variant: the literal-MIP builder and its HiGHS call read no
  clock, and the simulator runs under its virtual clock, so even monotonic
  clocks (``perf_counter``, ``monotonic``) are banned except at explicitly
  allowlisted reporting sites (``clock_allowlist``) — such as the
  ``simbench`` wall-time columns, which are informational by contract.

* **MOB003 — task-label contract.**  Task labels built in
  ``repro/core/pipeline.py`` must come from the :mod:`repro.core.labels`
  constructors, or be literals matching its compiled patterns — the same
  patterns :mod:`repro.core.memory_audit` parses.  A drifting label format
  makes the auditor silently skip events.

All rules are pure :mod:`ast` passes over source text — no imports of the
linted code, no third-party linter needed.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

from repro.check.findings import CheckReport
from repro.core.labels import ALL_LABEL_PATTERNS

__all__ = ["LintConfig", "DEFAULT_CONFIG", "lint_source", "lint_file", "lint_tree"]

_CHECKER = "lint"

#: Legacy ``numpy.random`` entry points that bypass explicit Generator state.
_NUMPY_LEGACY_RANDOM = frozenset(
    {
        "rand",
        "randn",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "seed",
        "randint",
        "random_integers",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
    }
)

#: ``time`` module attributes that read the wall clock.  ``perf_counter`` and
#: ``monotonic`` are deliberately absent (duration metadata is fine).
_WALL_CLOCK_ATTRS = frozenset({"time", "time_ns", "ctime", "localtime", "gmtime"})

#: Clock attributes banned under MOB002's strict variant (``solver/``):
#: any clock at all, monotonic ones included — deterministic budgets are
#: the only sanctioned stopping criteria there.
_STRICT_CLOCK_ATTRS = _WALL_CLOCK_ATTRS | frozenset(
    {
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "thread_time",
        "thread_time_ns",
    }
)

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
        hot_path_prefixes: Path prefixes where MOB002's determinism rule
            applies.
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
    hot_path_prefixes: tuple[str, ...] = (
        "src/repro/sim/",
        "src/repro/core/",
        # Fault injection must be as deterministic as the simulator it
        # perturbs: failure coins come from content hashes, never RNGs.
        "src/repro/faults/",
        # The literal-MIP builder and its HiGHS call read no clock.
        "src/repro/solver/",
        # The planning daemon answers from caches, budget-limited solves
        # and scripted chaos — its responses are content-addressed, so no
        # RNG or wall clock may leak into them.
        "src/repro/serve/",
    )
    strict_clock_prefixes: tuple[str, ...] = (
        "src/repro/solver/",
        # The simulator's only time source is the virtual clock; its bench
        # reports wall seconds but the simbench gate never compares them.
        "src/repro/sim/",
        # Serve deadlines are solver node budgets; even monotonic clocks
        # are banned so a deadline can never become wall-clock control
        # flow.  (time.sleep for restart pacing is waiting, not reading.)
        "src/repro/serve/",
    )
    clock_allowlist: frozenset[str] = frozenset(
        {
            # The benchmark's wall times are informational by contract —
            # the simbench gate compares fingerprints and allocator work
            # counters only.
            "src/repro/sim/bench.py::_run_corpus_rows",
            "src/repro/sim/bench.py::_run_chaos_rows",
            "src/repro/sim/bench.py::_run_large_rows",
            # The servebench gate compares fingerprints and recovery
            # outcomes; plans/sec wall times bracket whole phases and
            # never steer what a phase does.
            "src/repro/serve/bench.py::_run_throughput_rows",
            # Worker-scaling plans/sec: same contract — the gate compares
            # fingerprints always and the speedup ratio only against the
            # host's own CPU count, never across machines.
            "src/repro/serve/bench.py::_run_scaling_rows",
            # Reachable from the serve daemon's answer ladder (MOB004):
            # the mapping search's clock reads feed search_seconds
            # metadata only — the search itself is exhaustive over a
            # fixed permutation space.
            "src/repro/core/mapping.py::cross_mapping",
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


def _attr_chain(node: ast.expr) -> list[str]:
    """``numpy.random.seed`` -> ['numpy', 'random', 'seed'] (best effort)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    parts.reverse()
    return parts


def _check_hot_path_determinism(
    tree: ast.Module, rel_path: str, report: CheckReport
) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    report.add(
                        _CHECKER,
                        "MOB002",
                        "stdlib 'random' imported in a simulator/planner hot "
                        "path; use a seeded numpy Generator passed in "
                        "explicitly",
                        subject=f"{rel_path}:{node.lineno}",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                report.add(
                    _CHECKER,
                    "MOB002",
                    "stdlib 'random' imported in a simulator/planner hot "
                    "path; use a seeded numpy Generator passed in explicitly",
                    subject=f"{rel_path}:{node.lineno}",
                )
            elif node.module == "time":
                bad = sorted(
                    alias.name
                    for alias in node.names
                    if alias.name in _WALL_CLOCK_ATTRS
                )
                if bad:
                    report.add(
                        _CHECKER,
                        "MOB002",
                        f"wall-clock import(s) {', '.join(bad)} from 'time' in "
                        "a hot path; the simulator's virtual clock is the only "
                        "time source here",
                        subject=f"{rel_path}:{node.lineno}",
                    )
        elif isinstance(node, ast.Attribute):
            chain = _attr_chain(node)
            if len(chain) >= 2 and chain[0] == "time" and chain[-1] in _WALL_CLOCK_ATTRS:
                report.add(
                    _CHECKER,
                    "MOB002",
                    f"wall-clock read time.{chain[-1]} in a hot path; the "
                    "simulator's virtual clock is the only time source here",
                    subject=f"{rel_path}:{node.lineno}",
                )
            elif (
                len(chain) >= 3
                and chain[-2] == "random"
                and chain[0] in ("np", "numpy")
                and chain[-1] in _NUMPY_LEGACY_RANDOM
            ):
                report.add(
                    _CHECKER,
                    "MOB002",
                    f"legacy numpy.random.{chain[-1]} in a hot path; pass a "
                    "seeded numpy.random.Generator in explicitly",
                    subject=f"{rel_path}:{node.lineno}",
                )
            elif chain[-1:] == ["now"] and "datetime" in chain[:-1]:
                report.add(
                    _CHECKER,
                    "MOB002",
                    "datetime.now() in a hot path; results must not depend on "
                    "wall-clock time",
                    subject=f"{rel_path}:{node.lineno}",
                )


def _check_strict_clock(
    tree: ast.Module, rel_path: str, config: LintConfig, report: CheckReport
) -> None:
    """MOB002 strict variant: no clock reads at all outside allowlisted
    functions (tracked by qualified name, ``path::Class.method``)."""

    def visit(node: ast.AST, qualname: str) -> None:
        for child in ast.iter_child_nodes(node):
            child_qualname = qualname
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                child_qualname = (
                    f"{qualname}.{child.name}" if qualname else child.name
                )
            if isinstance(child, ast.Attribute):
                chain = _attr_chain(child)
                if (
                    len(chain) >= 2
                    and chain[0] == "time"
                    and chain[-1] in _STRICT_CLOCK_ATTRS
                ):
                    site = f"{rel_path}::{qualname}"
                    if site not in config.clock_allowlist:
                        report.add(
                            _CHECKER,
                            "MOB002",
                            f"clock read time.{chain[-1]} in a "
                            "strict-clock module; deterministic budgets and "
                            "the virtual clock are the only time sources "
                            "here (allowlist the site in "
                            "LintConfig.clock_allowlist if it is pure "
                            "reporting)",
                            subject=f"{rel_path}:{child.lineno}",
                        )
            elif isinstance(child, ast.ImportFrom) and child.module == "time":
                bad = sorted(
                    alias.name
                    for alias in child.names
                    if alias.name in _STRICT_CLOCK_ATTRS
                )
                if bad:
                    report.add(
                        _CHECKER,
                        "MOB002",
                        f"clock import(s) {', '.join(bad)} from 'time' in "
                        "a strict-clock module; qualify reads as "
                        "time.<attr> so the allowlist can scope them",
                        subject=f"{rel_path}:{child.lineno}",
                    )
            visit(child, child_qualname)

    visit(tree, "")


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


def lint_source(
    source: str, rel_path: str, config: LintConfig = DEFAULT_CONFIG
) -> CheckReport:
    """Lint one module's source text.

    Args:
        source: Python source.
        rel_path: Repo-relative POSIX path (selects which rules apply).
        config: Rule scoping; defaults to this repo's layout.
    """
    report = CheckReport()
    try:
        tree = ast.parse(source, filename=rel_path)
    except SyntaxError as exc:
        report.add(
            _CHECKER,
            "MOB000",
            f"syntax error: {exc.msg}",
            subject=f"{rel_path}:{exc.lineno or 0}",
        )
        return report

    if rel_path in config.fingerprint_modules:
        _check_fingerprint_dataclasses(tree, rel_path, config, report)
    if any(rel_path.startswith(prefix) for prefix in config.hot_path_prefixes):
        _check_hot_path_determinism(tree, rel_path, report)
    if any(rel_path.startswith(prefix) for prefix in config.strict_clock_prefixes):
        _check_strict_clock(tree, rel_path, config, report)
    if rel_path in config.label_modules:
        _check_task_labels(tree, rel_path, report)

    return report


def _read_source(path: Path, rel_path: str, report: CheckReport) -> str | None:
    """Decode a file as UTF-8, recording MOB000 instead of raising."""
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        report.add(
            _CHECKER,
            "MOB000",
            f"file is not valid UTF-8 ({exc.reason} at byte {exc.start}); "
            "the linter cannot analyze it",
            subject=f"{rel_path}:0",
        )
        return None


def lint_file(
    path: Path | str, root: Path | str, config: LintConfig = DEFAULT_CONFIG
) -> CheckReport:
    """Lint one file, resolving its rule scope relative to ``root``."""
    path = Path(path)
    rel_path = path.relative_to(root).as_posix()
    report = CheckReport()
    source = _read_source(path, rel_path, report)
    if source is None:
        return report
    return report.extend(lint_source(source, rel_path, config))


def lint_tree(
    root: Path | str, config: LintConfig = DEFAULT_CONFIG
) -> CheckReport:
    """Lint every module the config scopes to under ``root`` (repo root)."""
    root = Path(root)
    report = CheckReport()

    scoped: set[str] = set(config.fingerprint_modules) | set(config.label_modules)
    for prefix in config.hot_path_prefixes:
        for path in sorted((root / prefix).glob("**/*.py")):
            scoped.add(path.relative_to(root).as_posix())

    for rel_path in sorted(scoped):
        path = root / rel_path
        if not path.is_file():
            continue
        source = _read_source(path, rel_path, report)
        if source is not None:
            report.extend(lint_source(source, rel_path, config))
    return report
