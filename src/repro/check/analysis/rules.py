"""Interprocedural MOB rules (MOB004-MOB007) over the whole-program model.

Where MOB001-003 (:mod:`repro.check.lint`) scope by *path prefix*, these
rules scope by *reachability*: a clock read is a hot-path violation because
``Simulator.run`` can transitively call it, regardless of which directory
the helper lives in.

* **MOB004 — transitive hot-path determinism.**  Every function reachable
  from the simulator event loop (``Simulator.run`` / ``run_batched``), the
  branch-and-bound solve loop, or ``FlowNetwork._reallocate`` must be free
  of clock reads and unseeded RNG draws.  Honors the same
  ``clock_allowlist`` site keys as MOB002's strict variant.

* **MOB005 — unordered-iteration hazard.**  Iterating a ``set`` /
  ``frozenset`` on a hot path with the loop feeding a heap push, trace
  append, fingerprint, or plain accumulation is order-nondeterministic
  under hash randomization.  ``dict`` iteration is insertion-ordered in
  CPython and deliberately *not* flagged (DESIGN.md §13); wrapping the
  iterable in ``sorted(...)`` resolves the finding.

* **MOB006 — mutation-after-hash.**  An attribute write to an object that
  earlier in the same function flowed into :mod:`repro.perf.fingerprint`
  invalidates the content address already taken.  Intra-procedural on
  purpose: cross-function escapes are the (documented) under-approximation.

* **MOB007 — shared-state race.**  Module-level mutable state written from
  a function reachable from the process-pool workers (the suite
  scheduler's ``_cell_worker`` / ``_worker_init``, the serve daemon's
  dispatch loop and solver children) or from any function touching a
  registered race registry (``race_registries``) must go through a
  documented synchronization seam (``sync_seams``).  Reads
  are fine; writes — including ``next()`` on a shared ``itertools.count``
  and mutating-method calls — are not.
"""

from __future__ import annotations

import ast
import dataclasses

from repro.check.analysis.callgraph import (
    DEFAULT_CALLBACK_SEAMS,
    CallGraph,
    build_call_graph,
)
from repro.check.analysis.program import FunctionInfo, Program, attr_chain
from repro.check.findings import CheckReport
from repro.check.lint import (
    _NUMPY_LEGACY_RANDOM,
    _STRICT_CLOCK_ATTRS,
    DEFAULT_CONFIG as _LINT_DEFAULTS,
)

__all__ = ["AnalysisConfig", "DEFAULT_ANALYSIS_CONFIG", "analyze_program", "analyze_tree"]

_CHECKER = "analysis"

#: Calls that consume loop-order on a hot path: heap pushes, trace appends,
#: fingerprints, and plain accumulation.
_MOB005_SINKS = frozenset(
    {
        "heappush",
        "heappushpop",
        "heapreplace",
        "add_compute",
        "add_transfer",
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


@dataclasses.dataclass(frozen=True)
class AnalysisConfig:
    """Entry points and seams for the interprocedural rules.

    All names are program qualnames (``repro.sim.engine.Simulator.run``)
    except ``clock_allowlist``, which reuses MOB002's
    ``path::Class.method`` site keys, and ``callback_seams``, which are
    bare method names whose callable arguments cross the event loop.
    """

    #: MOB004/MOB005 hot-path roots.
    entry_points: tuple[str, ...] = (
        "repro.sim.engine.Simulator.run",
        "repro.sim.engine.Simulator.run_batched",
        "repro.sim.resources.FlowNetwork._reallocate",
        # The daemon's answer ladder: everything between a dequeued job
        # and its PlanResponse must be transitively clock/RNG-free, or a
        # served plan could differ from a locally computed one.
        "repro.serve.daemon.PlanService._answer",
    )
    callback_seams: frozenset[str] = DEFAULT_CALLBACK_SEAMS
    #: MOB007 roots: the process-pool worker surface.
    worker_entry_points: tuple[str, ...] = (
        # The suite-wide cell scheduler's pool workers: they adopt the
        # parent cache config, so their global writes follow the same
        # seam discipline.
        "repro.experiments.schedule._cell_worker",
        "repro.experiments.schedule._worker_init",
        # The serve daemon's dispatch thread and its solver child
        # processes run concurrently with client threads: every module
        # global they can write must be a documented seam.
        "repro.serve.daemon.PlanService._dispatch_loop",
        "repro.serve.supervisor._process_worker_main",
    )
    #: Module globals whose *touching* functions join the MOB007 frontier.
    race_registries: tuple[str, ...] = ()
    #: Documented synchronization seams: writes inside these are sanctioned.
    sync_seams: frozenset[str] = frozenset({"repro.sim.tasks._next_task_uid"})
    clock_allowlist: frozenset[str] = _LINT_DEFAULTS.clock_allowlist
    #: Module whose functions take content-address hashes (MOB006 sources).
    fingerprint_module: str = "repro.perf.fingerprint"


DEFAULT_ANALYSIS_CONFIG = AnalysisConfig()


# ----------------------------------------------------------------------
# Shared scanners
# ----------------------------------------------------------------------


def _clock_rng_sites(info: FunctionInfo) -> list[tuple[int, str]]:
    """(lineno, description) for every clock read / RNG draw in ``info``."""
    sites: list[tuple[int, str]] = []
    for node in ast.walk(info.node):
        if isinstance(node, ast.Attribute):
            chain = attr_chain(node)
            if not chain:
                continue
            if len(chain) >= 2 and chain[0] == "time" and chain[-1] in _STRICT_CLOCK_ATTRS:
                sites.append((node.lineno, f"clock read time.{chain[-1]}"))
            elif (
                len(chain) >= 3
                and chain[-2] == "random"
                and chain[0] in ("np", "numpy")
                and chain[-1] in _NUMPY_LEGACY_RANDOM
            ):
                sites.append((node.lineno, f"legacy numpy.random.{chain[-1]} draw"))
            elif chain[0] == "random" and len(chain) == 2:
                sites.append((node.lineno, f"stdlib random.{chain[-1]} draw"))
            elif chain[-1] == "now" and "datetime" in chain[:-1]:
                sites.append((node.lineno, "datetime.now() read"))
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
# MOB004 — transitive hot-path determinism
# ----------------------------------------------------------------------


def _check_mob004(
    program: Program,
    graph: CallGraph,
    config: AnalysisConfig,
    report: CheckReport,
) -> None:
    # Callbacks registered at a seam are called by the event loop through
    # a heap entry or hook list, which no call edge records.
    parents = graph.reachable(
        [q for q in config.entry_points if q in program.functions]
        + sorted(graph.seam_callbacks)
    )
    for qualname in sorted(parents):
        info = program.functions.get(qualname)
        if info is None:
            continue
        if info.site in config.clock_allowlist:
            continue
        for lineno, description in _clock_rng_sites(info):
            chain = " -> ".join(graph.chain(parents, qualname))
            report.add(
                _CHECKER,
                "MOB004",
                f"{description} in {qualname}, which is reachable from a "
                f"deterministic hot path ({chain}); hot-path results must "
                "not depend on wall time or process-global RNG state",
                subject=f"{info.rel_path}:{lineno}",
                symbol=qualname,
            )


# ----------------------------------------------------------------------
# MOB005 — unordered-iteration hazards on hot paths
# ----------------------------------------------------------------------


def _check_mob005(
    program: Program,
    graph: CallGraph,
    config: AnalysisConfig,
    report: CheckReport,
) -> None:
    parents = graph.reachable(
        [q for q in config.entry_points if q in program.functions]
    )
    for qualname in sorted(parents):
        info = program.functions.get(qualname)
        if info is None:
            continue
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
                f"{qualname} on a hot path; wrap the iterable in sorted(...) "
                "with a total key so the result is independent of hash "
                "randomization",
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


def _check_mob006(
    program: Program, config: AnalysisConfig, report: CheckReport
) -> None:
    for qualname in sorted(program.functions):
        info = program.functions[qualname]
        module = program.modules[info.module]
        hashed: dict[str, int] = {}  # local name -> line it was fingerprinted
        events: list[tuple[int, str, str]] = []  # (lineno, kind, name)
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call) and _is_fingerprint_call(
                node, module.imports, config.fingerprint_module
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


def _is_fingerprint_call(
    node: ast.Call, imports: dict[str, str], fingerprint_module: str
) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        target = imports.get(func.id, "")
        return target.startswith(fingerprint_module) or "fingerprint" in func.id
    if isinstance(func, ast.Attribute):
        chain = attr_chain(func)
        if not chain:
            return False
        base_target = imports.get(chain[0], "")
        if base_target.startswith(fingerprint_module):
            return True
        return "fingerprint" in chain[-1]
    return False


# ----------------------------------------------------------------------
# MOB007 — shared mutable state written off the worker/registry frontier
# ----------------------------------------------------------------------


def _check_mob007(
    program: Program,
    graph: CallGraph,
    config: AnalysisConfig,
    report: CheckReport,
) -> None:
    registry_short = {q.rsplit(".", 1)[1]: q for q in config.race_registries}
    entries = [q for q in config.worker_entry_points if q in program.functions]
    # Any function referencing a race registry joins the frontier.
    for qualname in sorted(program.functions):
        info = program.functions[qualname]
        registry_names = {
            short
            for short, full in registry_short.items()
            if full.rsplit(".", 1)[0] == info.module
        }
        if not registry_names:
            continue
        for node in ast.walk(info.node):
            if isinstance(node, ast.Name) and node.id in registry_names:
                entries.append(qualname)
                break
    parents = graph.reachable(entries)
    for qualname in sorted(parents):
        info = program.functions.get(qualname)
        if info is None or qualname in config.sync_seams:
            continue
        module = program.modules[info.module]
        if not module.mutable_globals:
            continue
        local_names = _locally_bound_names(info)
        for lineno, global_name, how in _global_writes(
            info, set(module.mutable_globals) - local_names
        ):
            chain = " -> ".join(graph.chain(parents, qualname))
            report.add(
                _CHECKER,
                "MOB007",
                f"{how} module-level mutable {global_name!r} in {qualname}, "
                f"reachable from the parallel-worker frontier ({chain}), "
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
    """Run MOB004-MOB007 over an already-built program model."""
    graph = build_call_graph(program, callback_seams=config.callback_seams)
    report = CheckReport()
    _check_mob004(program, graph, config, report)
    _check_mob005(program, graph, config, report)
    _check_mob006(program, config, report)
    _check_mob007(program, graph, config, report)
    return report


def analyze_tree(
    root: Path | str,
    subdir: str = "src/repro",
    config: AnalysisConfig = DEFAULT_ANALYSIS_CONFIG,
) -> CheckReport:
    """Build the program model from disk and run the interprocedural rules."""
    return analyze_program(Program.from_tree(root, subdir), config)
