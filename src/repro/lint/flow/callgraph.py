"""Project call graph over reprolint modules.

Python call resolution is necessarily heuristic in a static pass; this one
is deliberately conservative about *which* edges get summary-level taint
propagation (see :mod:`repro.lint.flow.summaries`):

* ``self.m(...)`` resolves within the enclosing class and its project-local
  base classes (by class name);
* ``f(...)`` resolves to module-level functions, preferring the defining
  module, then names imported into the calling module, then a unique
  project-wide definition;
* ``obj.m(...)`` resolves only when exactly one project class defines a
  method named ``m`` (unambiguous); ambiguous method names fall back to
  summary-free taint propagation so that, e.g., a ``controller.write`` call
  is never confused with ``NvmDevice.write``.
"""

import ast
from dataclasses import dataclass

from repro.lint.core import Module, Project, dotted_name

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


@dataclass
class FunctionInfo:
    """One analyzable function or method."""

    qualname: str
    module: Module
    node: FunctionNode
    class_name: str | None = None
    has_self: bool = False
    params: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return self.node.name


def _param_names(node: FunctionNode, has_self: bool) -> tuple[str, ...]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if has_self and names:
        names = names[1:]
    names.extend(a.arg for a in args.kwonlyargs)
    return tuple(names)


class CallGraph:
    """Functions, classes, import tables, and resolved call edges."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.methods: dict[tuple[str, str], FunctionInfo] = {}
        self.methods_by_name: dict[str, list[FunctionInfo]] = {}
        self.module_functions: dict[tuple[str, str], FunctionInfo] = {}
        self.functions_by_name: dict[str, list[FunctionInfo]] = {}
        self.class_bases: dict[str, tuple[str, ...]] = {}
        self.imports: dict[str, dict[str, str]] = {}
        """Per-module ``local name -> source module`` for from-imports."""
        self.callers: dict[str, set[str]] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, project: Project, modules: list[Module]) -> "CallGraph":
        graph = cls()
        for module in modules:
            graph._collect_module(module)
        for info in graph.functions.values():
            graph._collect_edges(info)
        return graph

    def _collect_module(self, module: Module) -> None:
        imports: dict[str, str] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    imports[alias.asname or alias.name] = node.module
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    imports[local] = alias.name
        self.imports[module.module] = imports

        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, node, None)
            elif isinstance(node, ast.ClassDef):
                bases = tuple(name for name in
                              (dotted_name(base) for base in node.bases)
                              if name is not None)
                base_tails = tuple(name.split(".")[-1] for name in bases)
                self.class_bases[node.name] = base_tails
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        self._add_function(module, item, node.name)

    def _add_function(self, module: Module, node: FunctionNode,
                      class_name: str | None) -> None:
        has_self = (class_name is not None
                    and bool(node.args.posonlyargs or node.args.args)
                    and not self._is_static(node))
        if class_name is None:
            qualname = f"{module.module}:{node.name}"
        else:
            qualname = f"{module.module}:{class_name}.{node.name}"
        info = FunctionInfo(
            qualname=qualname, module=module, node=node,
            class_name=class_name, has_self=has_self,
            params=_param_names(node, has_self))
        self.functions[qualname] = info
        if class_name is None:
            self.module_functions[(module.module, node.name)] = info
            self.functions_by_name.setdefault(node.name, []).append(info)
        else:
            self.methods.setdefault((class_name, node.name), info)
            self.methods_by_name.setdefault(node.name, []).append(info)

    @staticmethod
    def _is_static(node: FunctionNode) -> bool:
        for decorator in node.decorator_list:
            name = dotted_name(decorator)
            if name and name.split(".")[-1] == "staticmethod":
                return True
        return False

    # -- resolution ---------------------------------------------------------

    def resolve_self_method(self, class_name: str | None,
                            method: str) -> FunctionInfo | None:
        """``self.method`` lookup through the project-local base chain."""
        seen: set[str] = set()
        queue = [class_name] if class_name else []
        while queue:
            current = queue.pop(0)
            if current is None or current in seen:
                continue
            seen.add(current)
            info = self.methods.get((current, method))
            if info is not None:
                return info
            queue.extend(self.class_bases.get(current, ()))
        return None

    def resolve_call(self, call: ast.Call,
                     caller: FunctionInfo) -> list[FunctionInfo]:
        """Callees of ``call`` eligible for summary application."""
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name(func.id, caller)
        if not isinstance(func, ast.Attribute):
            return []
        method = func.attr
        if isinstance(func.value, ast.Name) and func.value.id == "self":
            info = self.resolve_self_method(caller.class_name, method)
            return [info] if info is not None else []
        if isinstance(func.value, ast.Name):
            # module-alias call (``batch.encrypt_blocks``)
            source = self.imports.get(caller.module.module, {}) \
                .get(func.value.id)
            if source is not None:
                info = self.module_functions.get((source, method))
                if info is not None:
                    return [info]
        candidates = self.methods_by_name.get(method, [])
        if len(candidates) == 1:
            return [candidates[0]]
        return []

    def _resolve_name(self, name: str,
                      caller: FunctionInfo) -> list[FunctionInfo]:
        info = self.module_functions.get((caller.module.module, name))
        if info is not None:
            return [info]
        source = self.imports.get(caller.module.module, {}).get(name)
        if source is not None:
            info = self.module_functions.get((source, name))
            if info is not None:
                return [info]
        candidates = self.functions_by_name.get(name, [])
        if len(candidates) == 1:
            return [candidates[0]]
        return []

    # -- edges --------------------------------------------------------------

    def _collect_edges(self, info: FunctionInfo) -> None:
        self.callers.setdefault(info.qualname, set())
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            for callee in self.resolve_call(node, info):
                self.callers.setdefault(callee.qualname, set()) \
                    .add(info.qualname)
