"""The MOB rules (MOB003-MOB007) over the whole-program model.

MOB003 checks one named file.  The others check every function of the
program, module bodies (import-time code) included: a clock read is a
determinism violation wherever it sits and whoever calls it.

* **MOB003 — task-label contract.**  Task labels passed to the task
  table's emit methods (``compute``, ``transfer``, ``barrier``) in
  ``src/repro/core/pipeline.py`` must come from the :mod:`repro.core.labels`
  constructors, or be literals matching its compiled patterns, the one
  grammar every label reader parses.  A drifting label format makes a
  reader silently skip events.

* **MOB004 — determinism.**  No function may read a clock or draw from
  process-global randomness: ``time.*`` clocks (monotonic ones included),
  ``datetime`` "now" reads, stdlib ``random``, every ``numpy.random``
  attribute but the seeded-generator constructors, and a constructor
  called with no seed, however they are imported (``import time as t``,
  ``from random import choice``, ``import numpy.random as npr``,
  function-local imports too).  A function in ``clock_allowlist`` may
  read monotonic clocks for reporting; wall clocks and RNG draws are
  flagged there too.  Bench walls go through
  :class:`repro.perf.bench.Stopwatch`, the one allowlisted timer.

* **MOB005 — unordered-iteration hazard.**  Iterating a ``set`` /
  ``frozenset`` with the loop feeding a heap push, trace append,
  fingerprint, or plain accumulation is order-nondeterministic under
  hash randomization.  ``dict`` iteration is insertion-ordered in
  CPython and deliberately *not* flagged (DESIGN.md §13); wrapping the
  iterable in ``sorted(...)`` resolves the finding.

* **MOB006 — mutation-after-hash.**  An attribute write to an object that
  earlier in the same function flowed into :mod:`repro.perf.fingerprint`
  invalidates the content address already taken.  Intra-procedural on
  purpose: cross-function escapes are the (documented) under-approximation.

* **MOB007 — shared-state race.**  Module-level mutable state is written
  only inside a documented synchronization seam (``sync_seams``): the
  suite drain, the serve daemon's dispatch threads and the supervised
  worker children run program code concurrently.  Reads are fine;
  writes — including ``next()`` on a shared ``itertools.count`` and
  mutating-method calls — are not.

Files the program model could not load are reported as MOB000.  That
cached values stay immutable is not a rule here: the fingerprint encoder
rejects any dataclass that is not frozen (:mod:`repro.perf.fingerprint`).
"""

from __future__ import annotations

import ast
import dataclasses

from repro.check.analysis.program import (
    FunctionInfo,
    Program,
    attr_chain,
    import_bindings,
    module_name_for,
)
from repro.check.findings import CheckReport
from repro.core.labels import ALL_LABEL_PATTERNS

__all__ = ["AnalysisConfig", "DEFAULT_ANALYSIS_CONFIG", "analyze_program"]

_CHECKER = "analysis"

#: The file whose task labels MOB003 checks: the Mobius pipeline emitter.
_LABEL_MODULE = "src/repro/core/pipeline.py"

#: The module whose constructors satisfy MOB003 by construction.
_LABELS_MODULE = "repro.core.labels"

#: The module whose functions take content-address hashes (MOB006 sources).
_FINGERPRINT_MODULE = "repro.perf.fingerprint"

#: ``TaskTable`` emit methods whose ``label`` MOB003 checks, each with the
#: label's positional index.
_TASK_EMITTERS = {"compute": 2, "transfer": 5, "barrier": 0}

#: Calls that consume loop order: heap pushes, event appends,
#: fingerprints, and plain accumulation.
_MOB005_SINKS = frozenset(
    {
        "heappush",
        "heappushpop",
        "heapreplace",
        "add_event",
        "append",
        "appendleft",
        "extend",
    }
)

#: Mutating container methods that constitute a write for MOB007.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "add",
        "remove",
        "discard",
        "pop",
        "popitem",
        "popleft",
        "clear",
        "update",
        "setdefault",
        "insert",
        "sort",
        "reverse",
        "__setitem__",
    }
)


#: ``time`` clocks that measure durations; an allowlisted function may
#: read these (and only these) for reporting.
_MONOTONIC_CLOCKS = frozenset(
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

#: ``time`` and ``datetime`` reads of the wall clock.
_WALL_CLOCKS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.ctime",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: ``numpy.random`` constructors of explicitly seeded generators: every
#: other ``numpy.random`` attribute draws from, or reads or reseeds, the
#: hidden global ``RandomState``.  Called with no argument, a constructor
#: seeds from OS entropy, which is flagged too.
_NUMPY_SEEDED_CONSTRUCTORS = frozenset(
    {
        "default_rng",
        "Generator",
        "RandomState",
        "SeedSequence",
        "BitGenerator",
        "MT19937",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
    }
)


@dataclasses.dataclass(frozen=True)
class AnalysisConfig:
    """The one place a MOB004 or MOB007 finding is declared fine.

    ``sync_seams`` holds program qualnames
    (``repro.perf.cache.configure_cache``); ``clock_allowlist`` holds
    ``path::Class.method`` sites (:attr:`FunctionInfo.site`).  Each entry
    carries its reason as a comment.
    """

    #: Documented synchronization seams: writes inside these are sanctioned.
    sync_seams: frozenset[str] = frozenset(
        {
            # The fingerprint memo: writes are idempotent (equal bytes per
            # instance), and dict and weakref-callback ops are GIL-atomic.
            "repro.perf.fingerprint._memo_write",
            # Process-lifecycle seam: the supervised worker child calls it
            # once, on entry, to adopt the parent's cache config before it
            # reads its first task, so the rebind never runs beside readers.
            # A lock here would tax every get_cache() read for one write
            # per spawned worker.
            "repro.perf.cache.configure_cache",
            # Controlling-thread seam: every caller (serve bench, serve
            # chaos, the suite) enters it before it starts a PlanService or
            # a drain and leaves it after they have stopped, so no thread
            # reads the cache across either rebind.  Process workers hold
            # their own module globals.
            "repro.perf.cache.cache_overridden",
        }
    )
    #: Functions that may read monotonic clocks (MOB004), one reason each.
    clock_allowlist: frozenset[str] = frozenset(
        {
            # Its time_limit cutoff steers the DFS; ROADMAP item 2 removes
            # the clock and this entry together with the fingerprint re-pin.
            "src/repro/core/partition.py::mip_partition",
            # The bench timer starts: walls sit beside results, never in them.
            "src/repro/perf/bench.py::Stopwatch.__init__",
            # The bench timer reads: same.
            "src/repro/perf/bench.py::Stopwatch.seconds",
        }
    )


DEFAULT_ANALYSIS_CONFIG = AnalysisConfig()


# ----------------------------------------------------------------------
# Shared scanners
# ----------------------------------------------------------------------


def _clock_rng_sites(
    info: FunctionInfo, bindings: dict[str, str], monotonic_ok: bool
) -> list[tuple[int, str]]:
    """(lineno, description) for every clock read / RNG draw in ``info``.

    Names resolve through ``bindings`` (the module's imports) overlaid with
    the function's own imports; a name bound by no import is not a module.
    """
    bindings = {**bindings, **import_bindings(ast.walk(info.node))}

    def resolve(node: ast.expr) -> tuple[str, str]:
        """``(module, attr)`` a reference names; ``("", "")`` if none."""
        chain = [node.id] if isinstance(node, ast.Name) else attr_chain(node)
        target = bindings.get(chain[0]) if chain else None
        if target is None:
            return "", ""
        module, _, attr = ".".join([target, *chain[1:]]).rpartition(".")
        return module, attr

    sites: list[tuple[int, str]] = []
    for node in ast.walk(info.node):
        if isinstance(node, ast.Call):
            module, attr = resolve(node.func)
            if (
                module == "numpy.random"
                and attr in _NUMPY_SEEDED_CONSTRUCTORS
                and not (node.args or node.keywords)
            ):
                sites.append(
                    (node.lineno, f"numpy.random.{attr}() seeded from OS entropy")
                )
            continue
        if not isinstance(node, (ast.Name, ast.Attribute)):
            continue
        module, attr = resolve(node)
        if module == "time" and attr in _MONOTONIC_CLOCKS:
            if not monotonic_ok:
                sites.append((node.lineno, f"clock read time.{attr}"))
        elif f"{module}.{attr}" in _WALL_CLOCKS:
            sites.append((node.lineno, f"wall-clock read {module}.{attr}"))
        elif module == "random":
            sites.append((node.lineno, f"stdlib random.{attr} draw"))
        elif module == "numpy.random" and attr not in _NUMPY_SEEDED_CONSTRUCTORS:
            sites.append((node.lineno, f"global-state numpy.random.{attr} use"))
    return sites


def _set_typed_locals(info: FunctionInfo) -> set[str]:
    """Local names assigned a set display/comprehension or ``set(...)``."""
    names: set[str] = set()
    for node in ast.walk(info.node):
        if isinstance(node, ast.Assign) and _is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _set_typed_attrs(program: Program, info: FunctionInfo) -> set[str]:
    """Instance attributes of ``info``'s class assigned a set anywhere."""
    if info.class_name is None:
        return set()
    module = program.modules.get(info.module)
    if module is None:
        return set()
    cls = module.classes.get(info.class_name)
    if cls is None:
        return set()
    attrs: set[str] = set()
    for method in cls.methods.values():
        for node in ast.walk(method.node):
            if not isinstance(node, ast.Assign) or not _is_set_expr(node.value):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.add(target.attr)
    return attrs


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


# ----------------------------------------------------------------------
# MOB003 — the task-label contract of the pipeline emitter
# ----------------------------------------------------------------------


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


def _check_mob003(program: Program, report: CheckReport) -> None:
    module = program.modules.get(module_name_for(_LABEL_MODULE))
    if module is None:
        return
    # Every import in the file, function-local ones too.
    bindings = import_bindings(ast.walk(module.tree))
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        label_index = _TASK_EMITTERS.get(_call_name(node))
        if label_index is None:
            continue

        label_expr: ast.expr | None = None
        for kw in node.keywords:
            if kw.arg == "label":
                label_expr = kw.value
        if label_expr is None and len(node.args) > label_index:
            label_expr = node.args[label_index]
        if label_expr is None:
            continue

        # Helper-constructor calls satisfy the contract by construction.
        if isinstance(label_expr, ast.Call):
            chain = attr_chain(label_expr.func)
            target = bindings.get(chain[0]) if chain else None
            if (
                target is not None
                and ".".join([target, *chain[1:]]).rpartition(".")[0]
                == _LABELS_MODULE
            ):
                continue

        literal = _literal_label(label_expr)
        if literal is not None:
            if not any(p.fullmatch(literal) for p in ALL_LABEL_PATTERNS):
                report.add(
                    _CHECKER,
                    "MOB003",
                    f"task label {literal!r} does not match the "
                    "repro.core.labels grammar; use a labels.* constructor",
                    subject=f"{module.rel_path}:{label_expr.lineno}",
                )
            continue

        report.add(
            _CHECKER,
            "MOB003",
            "task label built from an expression the analyzer cannot verify "
            "against the repro.core.labels contract; use a labels.* "
            "constructor",
            subject=f"{module.rel_path}:{label_expr.lineno}",
            severity="warning",
        )


# ----------------------------------------------------------------------
# MOB004 — determinism
# ----------------------------------------------------------------------


def _check_mob004(
    program: Program, config: AnalysisConfig, report: CheckReport
) -> None:
    for qualname in sorted(program.functions):
        info = program.functions[qualname]
        sites = _clock_rng_sites(
            info,
            program.modules[info.module].imports,
            monotonic_ok=info.site in config.clock_allowlist,
        )
        for lineno, description in sites:
            report.add(
                _CHECKER,
                "MOB004",
                f"{description} in {qualname}; cached and served results "
                "must not depend on clocks or process-global RNG state",
                subject=f"{info.rel_path}:{lineno}",
                symbol=qualname,
            )


# ----------------------------------------------------------------------
# MOB005 — unordered-iteration hazards
# ----------------------------------------------------------------------


def _check_mob005(program: Program, report: CheckReport) -> None:
    for qualname in sorted(program.functions):
        info = program.functions[qualname]
        set_locals = _set_typed_locals(info)
        set_attrs = _set_typed_attrs(program, info)
        for node in ast.walk(info.node):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            if not _iterates_set(node.iter, set_locals, set_attrs):
                continue
            sink = _order_sink_in(node.body)
            if sink is None:
                continue
            report.add(
                _CHECKER,
                "MOB005",
                f"iteration over an unordered set feeds {sink}(...) in "
                f"{qualname}; wrap the iterable in sorted(...) with a total "
                "key so the result is independent of hash randomization",
                subject=f"{info.rel_path}:{node.lineno}",
                symbol=qualname,
            )


def _iterates_set(
    iter_expr: ast.expr, set_locals: set[str], set_attrs: set[str]
) -> bool:
    if _is_set_expr(iter_expr):
        return True
    if isinstance(iter_expr, ast.Name):
        return iter_expr.id in set_locals
    if (
        isinstance(iter_expr, ast.Attribute)
        and isinstance(iter_expr.value, ast.Name)
        and iter_expr.value.id == "self"
    ):
        return iter_expr.attr in set_attrs
    return False


def _order_sink_in(body: list[ast.stmt]) -> str | None:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if name in _MOB005_SINKS or (name and "fingerprint" in name):
                    return name
    return None


# ----------------------------------------------------------------------
# MOB006 — mutation after fingerprinting
# ----------------------------------------------------------------------


def _check_mob006(program: Program, report: CheckReport) -> None:
    for qualname in sorted(program.functions):
        info = program.functions[qualname]
        module = program.modules[info.module]
        hashed: dict[str, int] = {}  # local name -> line it was fingerprinted
        events: list[tuple[int, str, str]] = []  # (lineno, kind, name)
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call) and _is_fingerprint_call(
                node, module.imports
            ):
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        events.append((node.lineno, "hash", arg.id))
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    chain = attr_chain(target) if isinstance(
                        target, ast.Attribute
                    ) else []
                    if len(chain) >= 2:
                        events.append((node.lineno, "write", chain[0]))
        events.sort()
        for lineno, kind, name in events:
            if kind == "hash":
                hashed.setdefault(name, lineno)
            elif name in hashed and lineno > hashed[name]:
                report.add(
                    _CHECKER,
                    "MOB006",
                    f"attribute write to {name!r} at line {lineno} after it "
                    f"flowed into repro.perf.fingerprint at line "
                    f"{hashed[name]} in {qualname}; the content address is "
                    "already taken — mutate before hashing, or hash a copy",
                    subject=f"{info.rel_path}:{lineno}",
                    symbol=qualname,
                )


def _is_fingerprint_call(node: ast.Call, imports: dict[str, str]) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        target = imports.get(func.id, "")
        return target.startswith(_FINGERPRINT_MODULE) or "fingerprint" in func.id
    if isinstance(func, ast.Attribute):
        chain = attr_chain(func)
        if not chain:
            return False
        base_target = imports.get(chain[0], "")
        if base_target.startswith(_FINGERPRINT_MODULE):
            return True
        return "fingerprint" in chain[-1]
    return False


# ----------------------------------------------------------------------
# MOB007 — shared mutable state written outside a seam
# ----------------------------------------------------------------------


def _check_mob007(
    program: Program, config: AnalysisConfig, report: CheckReport
) -> None:
    for qualname in sorted(program.functions):
        info = program.functions[qualname]
        module = program.modules[info.module]
        if qualname in config.sync_seams or not module.mutable_globals:
            continue
        local_names = _locally_bound_names(info)
        for lineno, global_name, how in _global_writes(
            info, set(module.mutable_globals) - local_names
        ):
            report.add(
                _CHECKER,
                "MOB007",
                f"{how} module-level mutable {global_name!r} in {qualname} "
                "without a documented synchronization seam; route the "
                "access through a seam registered in "
                "AnalysisConfig.sync_seams",
                subject=f"{info.rel_path}:{lineno}",
                symbol=qualname,
            )


def _locally_bound_names(info: FunctionInfo) -> set[str]:
    """Names shadowed by params or plain local assignment (minus globals)."""
    declared_global: set[str] = set()
    bound: set[str] = set()
    args = info.node.args
    for arg in [
        *args.posonlyargs,
        *args.args,
        *args.kwonlyargs,
        *([args.vararg] if args.vararg else []),
        *([args.kwarg] if args.kwarg else []),
    ]:
        bound.add(arg.arg)
    for node in ast.walk(info.node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)) and isinstance(
            node.target, ast.Name
        ):
            bound.add(node.target.id)
    return bound - declared_global


def _global_writes(
    info: FunctionInfo, global_names: set[str]
) -> list[tuple[int, str, str]]:
    """(lineno, name, description) for each write to a module global."""
    declared_global = {
        name
        for node in ast.walk(info.node)
        if isinstance(node, ast.Global)
        for name in node.names
    }
    writes: list[tuple[int, str, str]] = []
    watched = global_names | declared_global
    for node in ast.walk(info.node):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id in declared_global:
                    writes.append((node.lineno, target.id, "rebind of"))
                elif isinstance(target, ast.Subscript):
                    chain = attr_chain(target.value)
                    if chain and chain[0] in watched:
                        writes.append((node.lineno, chain[0], "subscript write to"))
                elif isinstance(target, ast.Attribute):
                    chain = attr_chain(target)
                    if chain and chain[0] in watched and chain[0] != "self":
                        writes.append((node.lineno, chain[0], "attribute write to"))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                chain = attr_chain(
                    target.value if isinstance(target, ast.Subscript) else target
                )
                if chain and chain[0] in watched:
                    writes.append((node.lineno, chain[0], "delete on"))
        elif isinstance(node, ast.Call):
            name = _call_name(node)
            func = node.func
            if (
                name in _MUTATING_METHODS
                and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in watched
            ):
                writes.append((node.lineno, func.value.id, f"mutating .{name}() on"))
            elif (
                isinstance(func, ast.Name)
                and func.id == "next"
                and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id in watched
            ):
                writes.append(
                    (node.lineno, node.args[0].id, "next() on shared counter")
                )
    return sorted(set(writes))


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def analyze_program(
    program: Program, config: AnalysisConfig = DEFAULT_ANALYSIS_CONFIG
) -> CheckReport:
    """Run MOB003-MOB007 over an already-built program model, plus MOB000
    for each file the model could not load."""
    report = CheckReport()
    for rel_path, (lineno, reason) in sorted(program.broken.items()):
        report.add(
            _CHECKER,
            "MOB000",
            f"{reason}; the analyzer cannot see this file",
            subject=f"{rel_path}:{lineno}",
        )
    _check_mob003(program, report)
    _check_mob004(program, config, report)
    _check_mob005(program, report)
    _check_mob006(program, report)
    _check_mob007(program, config, report)
    return report
