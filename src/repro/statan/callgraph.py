"""Project index and call graph for whole-program statan passes.

The per-file rules in :mod:`repro.statan.rules` see one tree at a time;
the interprocedural passes in :mod:`repro.statan.program` need to know
*who calls whom* across the package.  This module builds that picture
once per run:

:class:`ModuleInfo`
    One parsed file: dotted module name, import map (local alias ->
    dotted target), module-level integer/float/string constants (used
    to resolve seeds like ``DEFAULT_FAULT_SEED``), and its classes.

:class:`FunctionInfo`
    One function or method, addressed by a qualified name
    ``pkg.mod::Class.method`` / ``pkg.mod::func``.

:class:`CallGraph`
    Edges between qualified names, built with deliberately simple
    resolution: bare names resolve through module scope and imports,
    ``self.x()``/``cls.x()`` through the enclosing class and its
    project-local bases, and ``obj.x()`` by method name against every
    project class that defines ``x`` (a conservative union — for the
    passes built on top, a spurious edge means at worst a spurious
    *suppressable* finding, while a missing edge is a silent false
    negative).

Nothing here executes project code; it is all :mod:`ast`.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.statan.rules import _dotted

__all__ = [
    "ModuleInfo", "ClassInfo", "FunctionInfo", "CallSite", "CallGraph",
    "build_modules", "module_name_for_path",
]

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def module_name_for_path(path: str) -> str:
    """Dotted module name for a file path.

    ``src/repro/sim/core.py`` -> ``repro.sim.core``; the leading
    directories before the last ``src`` segment (or the whole prefix
    when there is none) are dropped, and ``__init__.py`` maps to its
    package.
    """
    parts = path.replace("\\", "/").split("/")
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part) or "<module>"


@dataclass
class ClassInfo:
    """One class definition: bases by name, methods by name."""

    name: str
    module: str
    bases: tuple[str, ...]
    methods: dict[str, "FunctionInfo"] = field(default_factory=dict)


@dataclass
class FunctionInfo:
    """One function/method and where it lives."""

    qname: str
    name: str
    module: str
    path: str
    node: ast.AST
    cls: Optional[str] = None

    @property
    def is_method(self) -> bool:
        return self.cls is not None


@dataclass
class ModuleInfo:
    """One parsed source file plus its resolved local namespace."""

    path: str
    name: str
    tree: ast.AST
    source: str
    #: local alias -> dotted target ("np" -> "numpy",
    #: "build_from_spec" -> "repro.cluster.topology.build_from_spec").
    imports: dict[str, str] = field(default_factory=dict)
    #: module-level UPPER_CASE int/float/str constants, resolved.
    constants: dict[str, object] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)


def _collect_imports(tree: ast.AST) -> dict[str, str]:
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".", 1)[0]] = \
                    alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                imports[alias.asname or alias.name] = \
                    "{}.{}".format(node.module, alias.name)
    return imports


def _collect_constants(tree: ast.AST) -> dict[str, object]:
    constants: dict[str, object] = {}
    for stmt in getattr(tree, "body", []):
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, (int, float, str))):
            constants[stmt.targets[0].id] = stmt.value.value
    return constants


def build_modules(
        files: Sequence[tuple[str, str, ast.AST]]) -> dict[str, ModuleInfo]:
    """Index ``(path, source, tree)`` triples into :class:`ModuleInfo`."""
    modules: dict[str, ModuleInfo] = {}
    for path, source, tree in files:
        name = module_name_for_path(path)
        info = ModuleInfo(path=path, name=name, tree=tree, source=source,
                          imports=_collect_imports(tree),
                          constants=_collect_constants(tree))
        for stmt in getattr(tree, "body", []):
            if isinstance(stmt, _FUNCTIONS):
                qname = "{}::{}".format(name, stmt.name)
                info.functions[stmt.name] = FunctionInfo(
                    qname=qname, name=stmt.name, module=name, path=path,
                    node=stmt)
            elif isinstance(stmt, ast.ClassDef):
                cls = ClassInfo(
                    name=stmt.name, module=name,
                    bases=tuple((_dotted(base) or "").rsplit(".", 1)[-1]
                                for base in stmt.bases))
                for sub in stmt.body:
                    if isinstance(sub, _FUNCTIONS):
                        qname = "{}::{}.{}".format(name, stmt.name, sub.name)
                        cls.methods[sub.name] = FunctionInfo(
                            qname=qname, name=sub.name, module=name,
                            path=path, node=sub, cls=stmt.name)
                info.classes[stmt.name] = cls
        modules[path] = info
    return modules


@dataclass
class CallSite:
    """One resolved call edge with its source location."""

    caller: str
    callee: str
    node: ast.Call


class CallGraph:
    """Callers/callees over the indexed functions."""

    def __init__(self, modules: dict[str, ModuleInfo]) -> None:
        self.modules = modules
        #: every FunctionInfo by qualified name.
        self.functions: dict[str, FunctionInfo] = {}
        #: class name -> every ClassInfo with that name (project-wide).
        self._classes_by_name: dict[str, list[ClassInfo]] = {}
        #: method name -> FunctionInfos across every project class.
        self._methods_by_name: dict[str, list[FunctionInfo]] = {}
        #: dotted module name -> ModuleInfo.
        self._by_module_name: dict[str, ModuleInfo] = {}
        for module in modules.values():
            self._by_module_name[module.name] = module
            for fn in module.functions.values():
                self.functions[fn.qname] = fn
            for cls in module.classes.values():
                self._classes_by_name.setdefault(cls.name, []).append(cls)
                for fn in cls.methods.values():
                    self.functions[fn.qname] = fn
                    self._methods_by_name.setdefault(
                        fn.name, []).append(fn)
        self.edges: dict[str, set[str]] = {}
        self.redges: dict[str, set[str]] = {}
        self.sites: list[CallSite] = []
        self._build_edges()

    # -- construction ------------------------------------------------------

    def _build_edges(self) -> None:
        for module in self.modules.values():
            for fn in list(module.functions.values()):
                self._scan_function(module, fn)
            for cls in module.classes.values():
                for fn in cls.methods.values():
                    self._scan_function(module, fn, cls)

    def _scan_function(self, module: ModuleInfo, fn: FunctionInfo,
                       cls: Optional[ClassInfo] = None) -> None:
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            for callee in self.resolve_call(node, module, cls):
                self.edges.setdefault(fn.qname, set()).add(callee.qname)
                self.redges.setdefault(callee.qname, set()).add(fn.qname)
                self.sites.append(CallSite(fn.qname, callee.qname, node))

    def resolve_call(self, node: ast.Call, module: ModuleInfo,
                     cls: Optional[ClassInfo] = None
                     ) -> list[FunctionInfo]:
        """Project-local targets a call may reach (possibly several)."""
        func = node.func
        if isinstance(func, ast.Name):
            return self._resolve_name(func.id, module)
        if isinstance(func, ast.Attribute):
            receiver = _dotted(func.value)
            if receiver in ("self", "cls") and cls is not None:
                target = self._resolve_method(cls, func.attr)
                if target is not None:
                    return [target]
                return []
            if receiver is not None:
                # module-qualified: ``topology.build_from_spec(...)``.
                dotted = module.imports.get(receiver.split(".", 1)[0])
                if dotted is not None:
                    owner = self._module_by_suffix(dotted)
                    if owner is not None:
                        target = owner.functions.get(func.attr)
                        if target is not None:
                            return [target]
                        klass = owner.classes.get(func.attr)
                        if klass is not None:
                            init = klass.methods.get("__init__")
                            return [init] if init is not None else []
            # ``obj.method(...)``: union over same-named project methods.
            return list(self._methods_by_name.get(func.attr, []))
        return []

    def _resolve_name(self, name: str,
                      module: ModuleInfo) -> list[FunctionInfo]:
        fn = module.functions.get(name)
        if fn is not None:
            return [fn]
        cls = module.classes.get(name)
        if cls is not None:
            init = cls.methods.get("__init__")
            return [init] if init is not None else []
        dotted = module.imports.get(name)
        if dotted is not None and "." in dotted:
            owner_name, leaf = dotted.rsplit(".", 1)
            owner = self._module_by_suffix(owner_name)
            if owner is not None:
                fn = owner.functions.get(leaf)
                if fn is not None:
                    return [fn]
                cls = owner.classes.get(leaf)
                if cls is not None:
                    init = cls.methods.get("__init__")
                    return [init] if init is not None else []
        # A class imported under its own name and called bare:
        for cls in self._classes_by_name.get(name, []):
            init = cls.methods.get("__init__")
            if init is not None:
                return [init]
        return []

    def _resolve_method(self, cls: ClassInfo,
                        name: str) -> Optional[FunctionInfo]:
        seen: set[str] = set()
        queue: deque[ClassInfo] = deque([cls])
        while queue:
            current = queue.popleft()
            key = "{}::{}".format(current.module, current.name)
            if key in seen:
                continue
            seen.add(key)
            fn = current.methods.get(name)
            if fn is not None:
                return fn
            for base in current.bases:
                for candidate in self._classes_by_name.get(base, []):
                    queue.append(candidate)
        return None

    def _module_by_suffix(self, dotted: str) -> Optional[ModuleInfo]:
        module = self._by_module_name.get(dotted)
        if module is not None:
            return module
        for name, info in self._by_module_name.items():
            if name.endswith("." + dotted) or name == dotted:
                return info
        return None

    # -- queries -----------------------------------------------------------

    def callers_of(self, qname: str) -> set[str]:
        return self.redges.get(qname, set())

    def callees_of(self, qname: str) -> set[str]:
        return self.edges.get(qname, set())

    def reachable_from(self, roots: Iterable[str]) -> dict[str, str]:
        """BFS over call edges; returns ``{reached: parent}`` links."""
        parents: dict[str, str] = {}
        queue: deque[str] = deque()
        for root in roots:
            if root not in parents:
                parents[root] = ""
                queue.append(root)
        while queue:
            current = queue.popleft()
            for callee in self.edges.get(current, ()):
                if callee not in parents:
                    parents[callee] = current
                    queue.append(callee)
        return parents

    def chain(self, parents: dict[str, str], qname: str) -> list[str]:
        """Root-to-``qname`` path through the BFS ``parents`` links."""
        out = [qname]
        while parents.get(out[-1]):
            out.append(parents[out[-1]])
        return list(reversed(out))
