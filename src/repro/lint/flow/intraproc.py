"""Intraprocedural def-use taint propagation over one function body.

The evaluator walks statements in source order (twice, so taint assigned
late in a loop body still reaches uses earlier in the next iteration),
maintaining a ``variable -> taint`` environment.  Parameters are seeded
with placeholder labels (:func:`repro.lint.flow.lattice.param_label`), so
the same pass yields the function's interprocedural summary: placeholders
surviving into the return value are parameter passthroughs, placeholders
reaching a sink are parameter-dependent sink paths, and a ``@d<i>`` marker
records that parameter ``i`` went through a subtraction on its way to the
return value (the F5 decrement step).

Assignments are strong updates — ``x = encrypt(x)`` kills ``x``'s old
taint — which trades a little soundness at branch joins for the precision
a lint gate needs to stay quiet on correct code.
"""

import ast
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.lint.flow.callgraph import CallGraph, FunctionInfo
from repro.lint.flow.lattice import (
    COUNTER,
    COUNTER_DEC,
    EMPTY,
    FlowConfig,
    Taint,
    is_param_label,
    param_index,
    param_label,
)

_DEC_PREFIX = "@d"

_STRIP_BUILTINS = frozenset({
    "len", "isinstance", "issubclass", "hasattr", "callable", "id",
    "ord", "bool", "range", "print",
})


def _dec_label(index: int) -> str:
    return f"{_DEC_PREFIX}{index}"


def _is_dec_label(label: str) -> bool:
    return label.startswith(_DEC_PREFIX)


def _dec_index(label: str) -> int:
    return int(label[len(_DEC_PREFIX):])


@dataclass
class Hit:
    """One sink reached by tainted data, anchored at an AST node."""

    rule: str
    node: ast.AST
    message: str
    function: str


@dataclass
class IntraResult:
    """Everything one function pass learned."""

    qualname: str
    return_taint: Taint = EMPTY
    hits: list[Hit] = field(default_factory=list)
    param_sinks: dict[int, set[tuple[str, str]]] = field(default_factory=dict)
    sink_labels: dict[tuple[str, str], Taint] = field(default_factory=dict)

    @property
    def passthrough(self) -> frozenset[int]:
        return frozenset(param_index(label) for label in self.return_taint
                         if is_param_label(label))

    @property
    def decrements(self) -> frozenset[int]:
        return frozenset(_dec_index(label) for label in self.return_taint
                         if _is_dec_label(label))

    @property
    def semantic_return(self) -> Taint:
        return frozenset(label for label in self.return_taint
                         if not is_param_label(label)
                         and not _is_dec_label(label))


class FunctionEvaluator:
    """One intraprocedural pass over ``info`` under ``config``."""

    def __init__(self, info: FunctionInfo, config: FlowConfig,
                 graph: CallGraph, summaries: Mapping[str, Any]):
        self.info = info
        self.config = config
        self.graph = graph
        self.summaries = summaries
        self.call_sources = config.call_sources()
        self.attr_sources = config.attr_sources()
        self.name_sources = config.name_sources()
        self.sanitizers = config.sanitizer_table()
        self.sinks = config.sinks_by_name()
        self.env: dict[str, Taint] = {}
        self.aliases: dict[str, str] = {}
        """Local name -> the attribute it is bound to, or to an element of
        at any depth (``s = cache.sets[i]`` gives ``"sets"``): a store
        through the local is a store into the attribute, and a call
        through it (``fill = self._fill_counter``) is a call of it."""
        self.self_attrs: dict[str, Taint] = {}
        self.result = IntraResult(qualname=info.qualname)
        self._hit_keys: set[tuple[str, int]] = set()
        self._param_sink_labels = self.result.sink_labels

    def run(self) -> IntraResult:
        for index, name in enumerate(self.info.params):
            self.env[name] = frozenset({param_label(index)})
        body = list(self.info.node.body)
        for _ in range(2):
            for statement in body:
                self._stmt(statement)
        return self.result

    # -- statements ---------------------------------------------------------

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Assign):
            taint = self._eval(node.value)
            for target in node.targets:
                self._assign(target, taint)
                self._bind_alias(target, node.value)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._assign(node.target, self._eval(node.value))
                self._bind_alias(node.target, node.value)
        elif isinstance(node, ast.AugAssign):
            left = self._target_taint(node.target)
            right = self._eval(node.value)
            taint = left | right
            if isinstance(node.op, ast.Sub):
                taint |= self._decrement_markers(left)
            self._assign(node.target, taint)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self.result.return_taint |= self._eval(node.value)
        elif isinstance(node, (ast.Expr, ast.Await)):
            self._eval(node.value)
        elif isinstance(node, ast.For):
            self._assign(node.target, self._eval(node.iter))
            self._bind_alias(node.target, node.iter)
            for child in node.body + node.orelse:
                self._stmt(child)
        elif isinstance(node, ast.AsyncFor):
            self._assign(node.target, self._eval(node.iter))
            for child in node.body + node.orelse:
                self._stmt(child)
        elif isinstance(node, (ast.While, ast.If)):
            self._eval(node.test)
            for child in node.body + node.orelse:
                self._stmt(child)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                taint = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, taint)
            for child in node.body:
                self._stmt(child)
        elif isinstance(node, ast.Try):
            for child in (node.body + node.orelse + node.finalbody):
                self._stmt(child)
            for handler in node.handlers:
                for child in handler.body:
                    self._stmt(child)
        elif isinstance(node, (ast.Raise, ast.Assert)):
            for value in ast.iter_child_nodes(node):
                if isinstance(value, ast.expr):
                    self._eval(value)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
        # Nested function/class definitions are analyzed as their own
        # functions (when collected); their bodies are not merged here.

    def _target_taint(self, target: ast.expr) -> Taint:
        if isinstance(target, ast.Name):
            return self.env.get(target.id, EMPTY)
        return self._eval(target)

    def _container_attr(self, node: ast.expr) -> str | None:
        """The attribute ``node`` is, or is an element of at any depth."""
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id)
        return None

    def _bind_alias(self, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            attr = self._container_attr(value)
            if attr is not None:
                self.aliases[target.id] = attr

    def _assign(self, target: ast.expr, taint: Taint) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = taint
            self.aliases.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                inner = element.value if isinstance(element, ast.Starred) \
                    else element
                self._assign(inner, taint)
        elif isinstance(target, ast.Attribute):
            self._check_store(target, target.attr, taint)
            if isinstance(target.value, ast.Name) \
                    and target.value.id == "self":
                self.self_attrs[target.attr] = taint
        elif isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Name):
                # weak update: the container now may hold the taint
                self.env[base.id] = self.env.get(base.id, EMPTY) | taint
            # A store into an element of an attribute's container, at any
            # depth (``cache.sets[i][address] = x``), directly or through a
            # local bound to it, is a store into it.
            attr = self._container_attr(base)
            if attr is not None:
                self._check_store(target, attr, taint)

    def _check_store(self, node: ast.expr, attr: str, taint: Taint) -> None:
        for spec in self.config.store_sinks:
            if attr in spec.attr_names and taint & spec.labels:
                self._record_hit(spec.rule, node, spec.message)

    # -- expressions --------------------------------------------------------

    def _eval(self, node: ast.expr | None) -> Taint:
        if node is None:
            return EMPTY
        if isinstance(node, ast.Name):
            taint = self.env.get(node.id, EMPTY)
            label = self.name_sources.get(node.id)
            if label is not None:
                taint |= {label}
            return taint
        if isinstance(node, ast.Attribute):
            taint = self._eval(node.value)
            if isinstance(node.value, ast.Name) \
                    and node.value.id == "self":
                taint |= self.self_attrs.get(node.attr, EMPTY)
            label = self.attr_sources.get(node.attr)
            if label is not None:
                taint |= {label}
            return taint
        if isinstance(node, ast.Subscript):
            return self._eval(node.value) | self._eval(node.slice)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left)
            right = self._eval(node.right)
            taint = left | right
            if isinstance(node.op, ast.Sub):
                taint |= self._decrement_markers(left)
            return taint
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.BoolOp):
            out = EMPTY
            for value in node.values:
                out |= self._eval(value)
            return out
        if isinstance(node, ast.Compare):
            self._eval(node.left)
            for comparator in node.comparators:
                self._eval(comparator)
            return EMPTY
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return self._eval(node.body) | self._eval(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = EMPTY
            for element in node.elts:
                out |= self._eval(element)
            return out
        if isinstance(node, ast.Dict):
            out = EMPTY
            for key in node.keys:
                if key is not None:
                    out |= self._eval(key)
            for value in node.values:
                out |= self._eval(value)
            return out
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            self._bind_comprehensions(node.generators)
            return self._eval(node.elt)
        if isinstance(node, ast.DictComp):
            self._bind_comprehensions(node.generators)
            return self._eval(node.key) | self._eval(node.value)
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.JoinedStr):
            out = EMPTY
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    out |= self._eval(value.value)
            return out
        if isinstance(node, ast.FormattedValue):
            return self._eval(node.value)
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self._eval(node.value)
        if isinstance(node, ast.Yield):
            taint = self._eval(node.value)
            self.result.return_taint |= taint
            return EMPTY
        if isinstance(node, ast.NamedExpr):
            taint = self._eval(node.value)
            self._assign(node.target, taint)
            return taint
        if isinstance(node, ast.Lambda):
            return EMPTY
        if isinstance(node, ast.Slice):
            self._eval(node.lower)
            self._eval(node.upper)
            self._eval(node.step)
            return EMPTY
        return EMPTY

    def _bind_comprehensions(self,
                             generators: list[ast.comprehension]) -> None:
        for comp in generators:
            self._assign(comp.target, self._eval(comp.iter))
            for condition in comp.ifs:
                self._eval(condition)

    def _decrement_markers(self, left: Taint) -> Taint:
        markers = set()
        if COUNTER in left:
            markers.add(COUNTER_DEC)
        for label in left:
            if is_param_label(label):
                markers.add(_dec_label(param_index(label)))
        return frozenset(markers)

    # -- calls --------------------------------------------------------------

    def _call(self, node: ast.Call) -> Taint:
        func = node.func
        callee_name: str | None = None
        receiver_taint = EMPTY
        if isinstance(func, ast.Attribute):
            callee_name = func.attr
            receiver_taint = self._eval(func.value)
        elif isinstance(func, ast.Name):
            callee_name = func.id
            label = self.name_sources.get(func.id)
            if label is not None:
                receiver_taint |= {label}
        else:
            self._eval(func)

        has_starred = any(isinstance(arg, ast.Starred) for arg in node.args)
        arg_taints = [self._eval(arg) for arg in node.args]
        kwarg_taints = {kw.arg: self._eval(kw.value) for kw in node.keywords}

        if callee_name is not None:
            self._check_sinks(node, callee_name, arg_taints, kwarg_taints,
                              has_starred)

        # -- result taint ---------------------------------------------------
        if callee_name in self.call_sources:
            return frozenset({self.call_sources[callee_name]})
        if isinstance(func, ast.Name) \
                and self.aliases.get(func.id) in self.call_sources:
            # a local bound method (``fill = self._fill_counter``)
            return frozenset({self.call_sources[self.aliases[func.id]]})

        union = receiver_taint
        for taint in arg_taints:
            union |= taint
        for taint in kwarg_taints.values():
            union |= taint

        strips = self.sanitizers.get(callee_name or "")
        if strips is not None:
            return union - strips

        if callee_name in _STRIP_BUILTINS and isinstance(func, ast.Name):
            return EMPTY

        callees = self.graph.resolve_call(node, self.info) \
            if callee_name is not None else []
        if not callees:
            return union

        out = EMPTY
        for callee in callees:
            out |= self._apply_summary(node, callee, arg_taints,
                                       kwarg_taints, has_starred,
                                       bound=isinstance(func, ast.Attribute))
        return out

    def _map_args(self, callee: FunctionInfo, arg_taints: list[Taint],
                  kwarg_taints: dict[str | None, Taint],
                  bound: bool) -> dict[int, Taint]:
        """Call-site taints keyed by callee parameter index."""
        mapping: dict[int, Taint] = {}
        offset = 0 if (bound or not callee.has_self) else 1
        for position, taint in enumerate(arg_taints):
            index = position - offset
            if 0 <= index < len(callee.params):
                mapping[index] = mapping.get(index, EMPTY) | taint
        names = {name: index for index, name in enumerate(callee.params)}
        for name, taint in kwarg_taints.items():
            if name is not None and name in names:
                index = names[name]
                mapping[index] = mapping.get(index, EMPTY) | taint
        return mapping

    def _apply_summary(self, node: ast.Call, callee: FunctionInfo,
                       arg_taints: list[Taint],
                       kwarg_taints: dict[str | None, Taint],
                       has_starred: bool, bound: bool) -> Taint:
        summary = self.summaries.get(callee.qualname)
        if summary is None or has_starred:
            out = EMPTY
            for taint in arg_taints:
                out |= taint
            for taint in kwarg_taints.values():
                out |= taint
            return out
        mapping = self._map_args(callee, arg_taints, kwarg_taints, bound)
        out = set(summary.returns)
        for index in summary.passthrough:
            out.update(mapping.get(index, EMPTY))
        for index in summary.decrements:
            taint = mapping.get(index, EMPTY)
            if COUNTER in taint:
                out.add(COUNTER_DEC)
            for label in taint:
                if is_param_label(label):
                    out.add(_dec_label(param_index(label)))
        # parameter-dependent sinks inside the callee: a tainted argument
        # entering such a parameter is a finding at *this* call site.
        for index, sinks in summary.param_sinks.items():
            taint = mapping.get(index, EMPTY)
            for rule, message in sinks:
                semantic_labels = {label for label in taint
                                   if not is_param_label(label)
                                   and not _is_dec_label(label)}
                if semantic_labels & summary.sink_labels.get((rule, message),
                                                             EMPTY):
                    self._record_hit(rule, node, (
                        f"{message} (via call to {callee.name}())"))
                for label in taint:
                    if is_param_label(label):
                        self._note_param_sink(param_index(label), rule,
                                              message, summary.sink_labels
                                              .get((rule, message), EMPTY))
        return frozenset(out)

    # -- sinks --------------------------------------------------------------

    def _check_sinks(self, node: ast.Call, callee_name: str,
                     arg_taints: list[Taint],
                     kwarg_taints: dict[str | None, Taint],
                     has_starred: bool) -> None:
        specs = self.sinks.get(callee_name)
        if not specs or has_starred:
            return
        for spec in specs:
            if spec.module_prefixes and not any(
                    self.info.module.module == prefix
                    or self.info.module.module.startswith(prefix + ".")
                    for prefix in spec.module_prefixes):
                continue
            if spec.receivers and not self._receiver_matches(node,
                                                             spec.receivers):
                continue
            if spec.keyword_equals is not None \
                    and not self._keyword_matches(node, spec.keyword_equals):
                continue
            observed = EMPTY
            for position in spec.arg_positions:
                if position < len(arg_taints):
                    observed |= arg_taints[position]
            for name in spec.kwarg_names:
                observed |= kwarg_taints.get(name, EMPTY)
            if observed & spec.labels:
                self._record_hit(spec.rule, node, spec.message)
            for label in observed:
                if is_param_label(label):
                    self._note_param_sink(param_index(label), spec.rule,
                                          spec.message, spec.labels)

    @staticmethod
    def _receiver_matches(node: ast.Call,
                          receivers: frozenset[str]) -> bool:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return False
        value = func.value
        if isinstance(value, ast.Attribute):
            return value.attr in receivers
        if isinstance(value, ast.Name):
            return value.id in receivers
        return False

    @staticmethod
    def _keyword_matches(node: ast.Call,
                         condition: tuple[str, str, frozenset[str]]) -> bool:
        kwarg_name, base, members = condition
        for keyword in node.keywords:
            if keyword.arg != kwarg_name:
                continue
            value = keyword.value
            if isinstance(value, ast.Attribute) \
                    and isinstance(value.value, ast.Name) \
                    and value.value.id == base:
                return value.attr in members
        return False

    def _note_param_sink(self, index: int, rule: str, message: str,
                         labels: Taint) -> None:
        self.result.param_sinks.setdefault(index, set()) \
            .add((rule, message))
        self._param_sink_labels[(rule, message)] = \
            self._param_sink_labels.get((rule, message), EMPTY) | labels

    def _record_hit(self, rule: str, node: ast.AST, message: str) -> None:
        key = (rule + message, id(node))
        if key in self._hit_keys:
            return
        self._hit_keys.add(key)
        self.result.hits.append(Hit(rule=rule, node=node, message=message,
                                    function=self.info.qualname))
