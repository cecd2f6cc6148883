"""Conservative call graph over a :class:`~repro.check.analysis.program.Program`.

Resolution strategy (DESIGN.md §13 documents the approximations):

* ``f(...)`` — module function, imported function, or class constructor
  (edge to ``__init__``); a call to a nested ``def`` stays internal to the
  folded encloser.
* ``self.m(...)`` — resolved in the enclosing class, its program-known
  ancestors, **and** descendants' overrides (a base-typed call may
  dispatch to any subclass — the ``TaskGraphRunner.execute`` dispatch →
  ``FaultInjectingRunner._submit_compute`` seam depends on this).
* ``self.attr.m(...)`` — through the class's instance-attribute types
  (``self.network = FlowNetwork(...)`` types ``self.network``).
* ``mod.f(...)`` — through import aliases, function-local imports included.
* ``var.m(...)`` — through local constructor assignments
  (``sim = Simulator()``) and parameter annotations (``cell:
  ExperimentCell``); otherwise the *name-match fallback* links to every
  program class defining method ``m`` (an over-approximation that trades
  precision for never losing an edge).
* **Function-valued arguments**: any argument that references a program
  function (``sorted(key=f)``, ``functools.partial(f, x)``, a bound
  ``self.method``) adds a caller → callee edge.  When the *call target* is
  a registered callback seam (``schedule``, ``submit``, ``start_flow``,
  ``_submit_compute``, ``_start_transfer``, ...) the referenced callables —
  including lambdas and nested defs, which resolve to the registering
  function — additionally join :attr:`CallGraph.seam_callbacks`: the set of
  functions the event loop may invoke, which MOB004 adds to its entry
  frontier.
"""

from __future__ import annotations

import ast
import dataclasses

from repro.check.analysis.program import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Program,
    attr_chain,
    import_bindings,
)

__all__ = ["CallGraph", "build_call_graph", "DEFAULT_CALLBACK_SEAMS"]

#: Method/function names whose callable arguments are event-loop callbacks.
DEFAULT_CALLBACK_SEAMS: frozenset[str] = frozenset(
    {
        "schedule",
        "schedule_at",
        "schedule_call",
        "schedule_call_at",
        "schedule_at_seq",
        "at_timestamp_end",
        "submit",
        "start_flow",
        "_submit_compute",
        "_start_transfer",
        "_attempt_transfer",
    }
)


@dataclasses.dataclass
class CallGraph:
    """Edges between function qualnames, plus the callback seam frontier."""

    program: Program
    edges: dict[str, set[str]] = dataclasses.field(default_factory=dict)
    #: Functions registered (directly or via their closures) as event-loop
    #: callbacks at a seam call site.
    seam_callbacks: set[str] = dataclasses.field(default_factory=set)

    def add_edge(self, caller: str, callee: str) -> None:
        if callee != caller:
            self.edges.setdefault(caller, set()).add(callee)

    def callees(self, qualname: str) -> set[str]:
        return self.edges.get(qualname, set())

    def reachable(self, entries: set[str] | list[str]) -> dict[str, str | None]:
        """BFS closure; returns ``{reached: predecessor}`` (entry -> None).

        Deterministic: the frontier is processed in sorted order so the
        recorded predecessor (used for finding messages) is stable.
        """
        parents: dict[str, str | None] = {}
        frontier = sorted(set(entries))
        for entry in frontier:
            parents[entry] = None
        while frontier:
            next_frontier: list[str] = []
            for qualname in frontier:
                for callee in sorted(self.callees(qualname)):
                    if callee not in parents:
                        parents[callee] = qualname
                        next_frontier.append(callee)
            frontier = sorted(next_frontier)
        return parents

    def chain(self, parents: dict[str, str | None], target: str) -> list[str]:
        """Entry-to-target call chain recorded by :meth:`reachable`."""
        chain = [target]
        while parents.get(chain[-1]) is not None:
            chain.append(parents[chain[-1]])  # type: ignore[arg-type]
        chain.reverse()
        return chain


class _FunctionResolver:
    """Resolves call/reference expressions inside one function body."""

    def __init__(self, program: Program, info: FunctionInfo) -> None:
        self.program = program
        self.info = info
        self.module: ModuleInfo = program.modules[info.module]
        self.imports = {**self.module.imports, **import_bindings(ast.walk(info.node))}
        self.cls: ClassInfo | None = (
            self.module.classes.get(info.class_name) if info.class_name else None
        )
        #: Names of defs nested anywhere inside this function: references
        #: resolve to the encloser itself (folded closures).
        self.nested: set[str] = {
            child.name
            for child in ast.walk(info.node)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            and child is not info.node
        }
        #: Local variable -> short class name, from annotations and
        #: constructor assignments.
        self.local_types: dict[str, str] = {}
        self._collect_local_types()

    def _collect_local_types(self) -> None:
        args = self.info.node.args
        for arg in [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ]:
            annotation = arg.annotation
            if annotation is None:
                continue
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                self.local_types[arg.arg] = annotation.value.strip().strip('"')
                continue
            chain = attr_chain(annotation)
            if chain:
                self.local_types[arg.arg] = chain[-1]
        for node in ast.walk(self.info.node):
            if isinstance(node, ast.Assign):
                ctor = _constructed_class(node.value)
                if ctor is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.local_types.setdefault(target.id, ctor)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                chain = attr_chain(node.annotation)
                if chain:
                    self.local_types.setdefault(node.target.id, chain[-1])

    # -- resolution ----------------------------------------------------

    def resolve_callable(self, expr: ast.expr) -> list[FunctionInfo]:
        """Program functions an expression may refer to (not call)."""
        if isinstance(expr, ast.Lambda):
            return [self.info]  # folded: the lambda runs the encloser's code
        if isinstance(expr, ast.Name):
            return self._resolve_name(expr.id)
        if isinstance(expr, ast.Attribute):
            return self._resolve_attribute(attr_chain(expr))
        if isinstance(expr, ast.Call):
            # functools.partial(f, ...) and friends: the callable position
            # is handled by the generic function-valued-argument walk.
            return []
        return []

    def resolve_call(self, call: ast.Call) -> list[FunctionInfo]:
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name(func.id)
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute(attr_chain(func))
        return []

    def _resolve_name(self, name: str) -> list[FunctionInfo]:
        if name in self.nested:
            return [self.info]
        if name in self.module.functions:
            return [self.module.functions[name]]
        if name in self.module.classes:
            return self._constructor(self.module.classes[name])
        target = self.imports.get(name)
        if target is not None:
            if target in self.program.functions:
                return [self.program.functions[target]]
            if target in self.program.classes:
                return self._constructor(self.program.classes[target])
        return []

    def _constructor(self, cls_info: ClassInfo) -> list[FunctionInfo]:
        init = self.program.resolve_method(cls_info, "__init__")
        post = self.program.resolve_method(cls_info, "__post_init__")
        return init + post

    def _resolve_attribute(self, chain: list[str]) -> list[FunctionInfo]:
        if len(chain) < 2:
            return []
        base, rest = chain[0], chain[1:]
        # self.m(...) / cls.m(...) / self.attr.m(...)
        if base in ("self", "cls") and self.cls is not None:
            if len(rest) == 1:
                return self.program.resolve_method(self.cls, rest[0])
            if len(rest) == 2:
                attr_type = self.cls.attr_types.get(rest[0])
                if attr_type is not None:
                    cls_info = self.program.resolve_class(self.module, attr_type)
                    if cls_info is not None:
                        return self.program.resolve_method(cls_info, rest[1])
                return self._by_name(rest[1])
            return []
        # Module alias: mod.f(...), mod.Class(...), pkg.mod.f(...).
        resolved = self._resolve_module_path(chain)
        if resolved:
            return resolved
        # Typed local: var.m(...).
        if len(rest) == 1 and base in self.local_types:
            cls_info = self.program.resolve_class(self.module, self.local_types[base])
            if cls_info is not None:
                return self.program.resolve_method(cls_info, rest[0])
        # ClassName.method(...) (unbound / staticmethod use).
        cls_info = self.program.resolve_class(self.module, base)
        if cls_info is not None and len(rest) == 1:
            return self.program.resolve_method(cls_info, rest[0])
        # Fallback: name match across every program class.
        return self._by_name(rest[-1])

    def _resolve_module_path(self, chain: list[str]) -> list[FunctionInfo]:
        target = self.imports.get(chain[0])
        if target is None:
            return []
        # Try successively longer module paths: target, target.chain[1], ...
        for split in range(1, len(chain)):
            module_path = ".".join([target, *chain[1:split]])
            module = self.program.modules.get(module_path)
            if module is None:
                continue
            remainder = chain[split:]
            if not remainder:
                return []
            head = remainder[0]
            if head in module.functions and len(remainder) == 1:
                return [module.functions[head]]
            if head in module.classes:
                cls_info = module.classes[head]
                if len(remainder) == 1:
                    return self._constructor(cls_info)
                if len(remainder) == 2:
                    return self.program.resolve_method(cls_info, remainder[1])
        return []

    def _by_name(self, method_name: str) -> list[FunctionInfo]:
        if method_name in _FALLBACK_STOPLIST:
            return []
        return self.program.methods_by_name.get(method_name, [])


#: Method names too generic for the name-match fallback: builtin-container
#: vocabulary that would wire every ``list.append`` call site to any program
#: class that happens to define ``append``.  Typed resolution (self-attr,
#: annotation, constructor-local) still reaches these; only the last-resort
#: fallback skips them.
_FALLBACK_STOPLIST: frozenset[str] = frozenset(
    {
        "append",
        "extend",
        "add",
        "remove",
        "discard",
        "pop",
        "popitem",
        "clear",
        "update",
        "get",
        "setdefault",
        "keys",
        "values",
        "items",
        "insert",
        "sort",
        "reverse",
        "copy",
        "count",
        "index",
        "join",
        "split",
        "strip",
        "format",
        "startswith",
        "endswith",
        "encode",
        "decode",
        "read",
        "write",
        "close",
        "flush",
        "put",
        "get_nowait",
    }
)


def _constructed_class(value: ast.expr) -> str | None:
    if isinstance(value, ast.BoolOp):
        for operand in value.values:
            found = _constructed_class(operand)
            if found is not None:
                return found
        return None
    if isinstance(value, ast.IfExp):
        return _constructed_class(value.body) or _constructed_class(value.orelse)
    if isinstance(value, ast.Call):
        chain = attr_chain(value.func)
        # Class-like: Uppercase-first, allowing private classes (_SearchState).
        if chain and chain[-1].lstrip("_")[:1].isupper():
            return chain[-1]
    return None


def build_call_graph(program: Program) -> CallGraph:
    """Resolve every call and callable reference in ``program``."""
    graph = CallGraph(program)
    for info in program.functions.values():
        resolver = _FunctionResolver(program, info)
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            for callee in resolver.resolve_call(node):
                graph.add_edge(info.qualname, callee.qualname)
            # Function-valued arguments.
            target_name = _call_target_name(node)
            is_seam = target_name in DEFAULT_CALLBACK_SEAMS
            for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                callables = resolver.resolve_callable(arg)
                for callee in callables:
                    graph.add_edge(info.qualname, callee.qualname)
                    if is_seam:
                        graph.seam_callbacks.add(callee.qualname)
            if is_seam and _has_inline_callable(node):
                # A lambda / nested-def argument runs the encloser's folded
                # body from the event loop.
                graph.seam_callbacks.add(info.qualname)
    return graph


def _call_target_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _has_inline_callable(call: ast.Call) -> bool:
    return any(
        isinstance(arg, ast.Lambda)
        for arg in [*call.args, *[kw.value for kw in call.keywords]]
    )
