"""Whole-program symbol table for the MOB rules.

A :class:`Program` is a parsed view of every module under ``src/repro`` (or
of an in-memory ``{rel_path: source}`` mapping in tests): per-module
functions, classes with their methods, import aliases, and module-level
mutable state.  The MOB003-007 rules (:mod:`repro.check.analysis.rules`)
run over it.

Everything here is a pure :mod:`ast` pass — the analyzed code is never
imported, so a syntactically valid module with missing dependencies (or a
deliberately hostile test fixture) is still analyzable.

Scope decisions (documented in DESIGN.md §13):

* **Nested functions and lambdas are folded into their enclosing top-level
  function or method**: a rule walks the encloser's whole subtree, so a
  closure's clock read or global write is reported against the function
  that defines it.
* **Module-level code is one more function**, ``<module>``
  (:data:`MODULE_BODY`): top-level statements, class-body statements, and
  the decorators and default arguments of every ``def``, which all run at
  import time.  The rules check it like any function body.
* **Module-level mutable state** is any top-level binding of a ``dict`` /
  ``list`` / ``set`` display or comprehension, a call to a known
  mutable-container constructor (``dict``, ``list``, ``set``,
  ``defaultdict``, ``deque``, ``Counter``, ``itertools.count``), or an
  instantiation of a class defined in the program.  Immutable bindings
  (tuples, frozen constants) are deliberately excluded.
"""

from __future__ import annotations

import ast
import dataclasses
from collections.abc import Iterable
from pathlib import Path

__all__ = [
    "MODULE_BODY",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "Program",
    "attr_chain",
    "import_bindings",
    "iter_python_files",
    "module_name_for",
]

#: Name of the pseudo-function holding a module's import-time code; not an
#: identifier, so it cannot clash with a real function's name.
MODULE_BODY = "<module>"

#: Call targets whose result is a shared mutable container when bound at
#: module level.
_MUTABLE_CONSTRUCTORS = frozenset(
    {"dict", "list", "set", "defaultdict", "deque", "Counter", "count", "OrderedDict"}
)

_MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def attr_chain(node: ast.expr) -> list[str]:
    """``a.b.c`` -> ``['a', 'b', 'c']`` (best effort; ``[]`` when the base
    is not a plain name, e.g. a call or subscript)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return []
    parts.append(node.id)
    parts.reverse()
    return parts


def import_bindings(nodes: Iterable[ast.AST]) -> dict[str, str]:
    """Local name -> fully qualified target for the import statements among
    ``nodes``: ``import numpy as np`` binds ``np -> numpy``, ``import
    numpy.random`` binds ``numpy -> numpy``, and ``from time import time as
    now`` binds ``now -> time.time``.  Relative imports are skipped (none
    are used under ``src/repro``)."""
    bindings: dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bindings[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    bindings[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                bindings[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return bindings


def _import_time_code(stmts: list[ast.stmt]) -> list[ast.stmt]:
    """The statements of a module or class body that run at import time:
    everything except ``def`` bodies, whose decorators and defaults stay."""
    code: list[ast.stmt] = []
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = stmt.args
            code.extend(
                ast.Expr(value=expr, lineno=expr.lineno, col_offset=expr.col_offset)
                for expr in [*stmt.decorator_list, *args.defaults, *args.kw_defaults]
                if expr is not None
            )
        elif isinstance(stmt, ast.ClassDef):
            code.extend(
                ast.Expr(value=expr, lineno=expr.lineno, col_offset=expr.col_offset)
                for expr in [
                    *stmt.decorator_list,
                    *stmt.bases,
                    *(kw.value for kw in stmt.keywords),
                ]
            )
            code.extend(_import_time_code(stmt.body))
        else:
            code.append(stmt)
    return code


def module_name_for(rel_path: str) -> str:
    """Dotted module name of a repo-relative path (``src/`` stripped)."""
    parts = Path(rel_path).with_suffix("").parts
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def iter_python_files(root: Path, subdir: str = "src/repro") -> list[Path]:
    """All ``*.py`` files under ``root/subdir``, sorted for determinism."""
    base = root / subdir
    if not base.is_dir():
        return []
    return sorted(base.glob("**/*.py"))


@dataclasses.dataclass
class FunctionInfo:
    """One analyzable function or method (nested defs folded in).

    Attributes:
        qualname: Program-wide name, ``repro.sim.engine.Simulator.run``.
        module: Dotted module, ``repro.sim.engine``.
        rel_path: Repo-relative POSIX path of the defining file.
        name: Bare name (``run``).
        class_name: Enclosing class name, dotted for a nested class
            (``Outer.Inner``), or ``None`` for module functions.
        node: The ``ast`` definition node; analysis walks its whole subtree,
            which includes any nested defs and lambdas.
    """

    qualname: str
    module: str
    rel_path: str
    name: str
    class_name: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef

    @property
    def site(self) -> str:
        """Allowlist-style site key: ``path::Class.method`` / ``path::func``."""
        local = f"{self.class_name}.{self.name}" if self.class_name else self.name
        return f"{self.rel_path}::{local}"


@dataclasses.dataclass
class ClassInfo:
    """One class definition and its methods."""

    name: str
    methods: dict[str, FunctionInfo] = dataclasses.field(default_factory=dict)
    #: ``@dataclass(frozen=True)`` — instances are immutable, so a
    #: module-level instance is not shared *mutable* state.
    frozen: bool = False


@dataclasses.dataclass
class ModuleInfo:
    """One parsed module and its top-level symbol table."""

    name: str
    rel_path: str
    tree: ast.Module
    functions: dict[str, FunctionInfo] = dataclasses.field(default_factory=dict)
    #: Classes by local name, dotted for a nested class (``Outer.Inner``).
    classes: dict[str, ClassInfo] = dataclasses.field(default_factory=dict)
    #: Local name -> fully qualified target, from every import in the
    #: module's import-time code.  ``import numpy as np`` maps
    #: ``np -> numpy``; ``from repro.sim.engine import Simulator`` maps
    #: ``Simulator -> repro.sim.engine.Simulator``.
    imports: dict[str, str] = dataclasses.field(default_factory=dict)
    #: Module-level mutable bindings: name -> definition line.
    mutable_globals: dict[str, int] = dataclasses.field(default_factory=dict)


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        target = deco.func
        name = (
            target.id
            if isinstance(target, ast.Name)
            else target.attr if isinstance(target, ast.Attribute) else None
        )
        if name != "dataclass":
            continue
        for kw in deco.keywords:
            if kw.arg == "frozen":
                return isinstance(kw.value, ast.Constant) and kw.value.value is True
    return False


def _constructor_name(value: ast.expr) -> str | None:
    """Short name of the class/constructor a ``Call`` expression invokes."""
    if not isinstance(value, ast.Call):
        return None
    chain = attr_chain(value.func)
    return chain[-1] if chain else None


def _is_mutable_binding(value: ast.expr, program_classes: set[str]) -> bool:
    if isinstance(value, _MUTABLE_DISPLAYS):
        return True
    name = _constructor_name(value)
    if name is None:
        return False
    return name in _MUTABLE_CONSTRUCTORS or name in program_classes


class Program:
    """Symbol tables for a set of modules."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        #: Module-level bindings awaiting the link pass's mutability
        #: verdict (instance state — the analyzer itself must satisfy
        #: MOB007's no-shared-module-state rule).
        self._pending_globals: dict[tuple[str, str], ast.expr] = {}
        #: qualname -> FunctionInfo, every function and method.
        self.functions: dict[str, FunctionInfo] = {}
        #: Files that could not be loaded: rel_path -> (line, reason).
        self.broken: dict[str, tuple[int, str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_sources(
        cls, sources: dict[str, str], broken: dict[str, tuple[int, str]] | None = None
    ) -> "Program":
        """Build a program from ``{repo-relative path: source text}``.

        Unparseable modules are skipped and recorded in :attr:`broken`
        (reported as MOB000); analysis proceeds over the rest.  ``broken``
        seeds that record with files the caller could not even read.
        """
        program = cls()
        program.broken.update(broken or {})
        for rel_path in sorted(sources):
            try:
                tree = ast.parse(sources[rel_path], filename=rel_path)
            except SyntaxError as exc:
                program.broken[rel_path] = (exc.lineno or 0, f"syntax error: {exc.msg}")
                continue
            program._add_module(rel_path, tree)
        program._link()
        return program

    @classmethod
    def from_tree(cls, root: Path | str, subdir: str = "src/repro") -> "Program":
        """Build a program from every module under ``root/subdir``."""
        root = Path(root)
        sources: dict[str, str] = {}
        broken: dict[str, tuple[int, str]] = {}
        for path in iter_python_files(root, subdir):
            rel_path = path.relative_to(root).as_posix()
            try:
                sources[rel_path] = path.read_bytes().decode("utf-8")
            except UnicodeDecodeError as exc:
                broken[rel_path] = (
                    0,
                    f"file is not valid UTF-8 ({exc.reason} at byte {exc.start})",
                )
        return cls.from_sources(sources, broken)

    def _add_module(self, rel_path: str, tree: ast.Module) -> None:
        module = ModuleInfo(name=module_name_for(rel_path), rel_path=rel_path, tree=tree)
        self.modules[module.name] = module

        body = ast.FunctionDef(
            name=MODULE_BODY,
            args=ast.arguments(
                posonlyargs=[], args=[], vararg=None, kwonlyargs=[],
                kw_defaults=[], kwarg=None, defaults=[],
            ),
            body=_import_time_code(tree.body) or [ast.Pass()],
            decorator_list=[],
            returns=None,
            lineno=1,
            col_offset=0,
        )
        module.imports = import_bindings(ast.walk(body))
        module.functions[MODULE_BODY] = FunctionInfo(
            qualname=f"{module.name}.{MODULE_BODY}",
            module=module.name,
            rel_path=rel_path,
            name=MODULE_BODY,
            class_name=None,
            node=body,
        )

        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    qualname=f"{module.name}.{node.name}",
                    module=module.name,
                    rel_path=rel_path,
                    name=node.name,
                    class_name=None,
                    node=node,
                )
                module.functions[node.name] = info
            elif isinstance(node, ast.ClassDef):
                self._add_class(module, node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                value = node.value
                if value is None:
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        # Dunder metadata (__all__ and friends) is module
                        # declaration, never runtime-shared state.
                        if target.id.startswith("__") and target.id.endswith("__"):
                            continue
                        # Class membership is resolved after all modules load;
                        # record the constructor name for _link() to decide.
                        module.mutable_globals.setdefault(target.id, node.lineno)
                        if not _is_mutable_binding(value, set()) and (
                            _constructor_name(value) is None
                        ):
                            del module.mutable_globals[target.id]
                        else:
                            # Stash the value node for the link pass.
                            self._pending_globals.setdefault(
                                (module.name, target.id), value
                            )

    def _add_class(
        self, module: ModuleInfo, node: ast.ClassDef, outer: str | None = None
    ) -> None:
        """Register ``node`` and, under dotted names, the classes nested in it."""
        local = f"{outer}.{node.name}" if outer else node.name
        info = ClassInfo(name=node.name, frozen=_is_frozen_dataclass(node))
        for child in node.body:
            if isinstance(child, ast.ClassDef):
                self._add_class(module, child, local)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = FunctionInfo(
                    qualname=f"{module.name}.{local}.{child.name}",
                    module=module.name,
                    rel_path=module.rel_path,
                    name=child.name,
                    class_name=local,
                    node=child,
                )
                info.methods[child.name] = method
        module.classes[local] = info

    def _link(self) -> None:
        """Index every function and settle mutable globals once every module
        is loaded."""
        # A module-level instance is mutable shared state only when the
        # class is not a frozen dataclass (conservative on name collisions:
        # any non-frozen definition of the name keeps it mutable).
        program_class_names = {
            cls_info.name
            for module in self.modules.values()
            for cls_info in module.classes.values()
            if not cls_info.frozen
        }
        for module in self.modules.values():
            for info in module.functions.values():
                self.functions[info.qualname] = info
            for cls_info in module.classes.values():
                for method in cls_info.methods.values():
                    self.functions[method.qualname] = method
            # Re-filter mutable globals now that program classes are known.
            keep: dict[str, int] = {}
            for name, lineno in module.mutable_globals.items():
                value = self._pending_globals.pop((module.name, name), None)
                if value is None or _is_mutable_binding(value, program_class_names):
                    keep[name] = lineno
            module.mutable_globals = keep
        self._pending_globals.clear()
