"""Interprocedural summaries and the project-wide fixed point.

A :class:`Summary` is the caller-visible behavior of one function: which
semantic labels its return value generates, which parameters flow through
to the return, which parameters are decremented on the way, and which
parameters reach a sink somewhere inside (transitively).  The driver
iterates intraprocedural passes to a fixed point over the call graph —
when a function's summary changes, its callers are re-queued — then runs
one final pass per function with the stable summaries to collect findings.
"""

from collections import deque
from dataclasses import dataclass, field

from repro.lint.core import Module, Project
from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.intraproc import (
    FunctionEvaluator,
    Hit,
    IntraResult,
)
from repro.lint.flow.lattice import EMPTY, FlowConfig, Taint

_MAX_VISITS = 8
"""Per-function re-analysis cap: strong updates are not strictly monotone,
so the worklist is bounded to guarantee termination on adversarial input."""


@dataclass(frozen=True)
class Summary:
    """Caller-visible dataflow behavior of one function."""

    returns: Taint = EMPTY
    passthrough: frozenset[int] = frozenset()
    decrements: frozenset[int] = frozenset()
    param_sinks: tuple[tuple[int, tuple[tuple[str, str], ...]], ...] = ()
    sink_labels: tuple[tuple[tuple[str, str], Taint], ...] = ()

    @classmethod
    def from_result(cls, result: IntraResult) -> "Summary":
        return cls(
            returns=result.semantic_return,
            passthrough=result.passthrough,
            decrements=result.decrements,
            param_sinks=tuple(sorted(
                (index, tuple(sorted(sinks)))
                for index, sinks in result.param_sinks.items())),
            sink_labels=tuple(sorted(
                (key, value)
                for key, value in result.sink_labels.items())),
        )

    # The evaluator consumes dict-shaped views.
    @property
    def param_sinks_map(self) -> dict[int, tuple[tuple[str, str], ...]]:
        return dict(self.param_sinks)

    @property
    def sink_labels_map(self) -> dict[tuple[str, str], Taint]:
        return dict(self.sink_labels)


class _SummaryView:
    """Adapter giving the evaluator attribute access over a Summary."""

    __slots__ = ("returns", "passthrough", "decrements", "param_sinks",
                 "sink_labels")

    def __init__(self, summary: Summary):
        self.returns = summary.returns
        self.passthrough = summary.passthrough
        self.decrements = summary.decrements
        self.param_sinks = summary.param_sinks_map
        self.sink_labels = summary.sink_labels_map


@dataclass
class FlowAnalysis:
    """The stable result of one project analysis."""

    graph: CallGraph
    config: FlowConfig
    results: dict[str, IntraResult] = field(default_factory=dict)
    summaries: dict[str, Summary] = field(default_factory=dict)

    def hits_for_module(self, module: Module) -> list[Hit]:
        hits: list[Hit] = []
        for qualname, result in self.results.items():
            info = self.graph.functions[qualname]
            if info.module.relpath == module.relpath:
                hits.extend(result.hits)
        return hits


def analyze_project(project: Project, modules: list[Module],
                    config: FlowConfig) -> FlowAnalysis:
    """Run the taint engine to a fixed point over ``modules``."""
    graph = CallGraph.build(project, modules)
    summaries: dict[str, Summary] = {}
    views: dict[str, _SummaryView] = {}
    visits: dict[str, int] = {}

    worklist: deque[str] = deque(graph.functions)
    queued = set(worklist)
    while worklist:
        qualname = worklist.popleft()
        queued.discard(qualname)
        if visits.get(qualname, 0) >= _MAX_VISITS:
            continue
        visits[qualname] = visits.get(qualname, 0) + 1
        info = graph.functions[qualname]
        result = FunctionEvaluator(info, config, graph, views).run()
        summary = Summary.from_result(result)
        if summaries.get(qualname) != summary:
            summaries[qualname] = summary
            views[qualname] = _SummaryView(summary)
            for caller in graph.callers.get(qualname, ()):
                if caller not in queued:
                    worklist.append(caller)
                    queued.add(caller)

    analysis = FlowAnalysis(graph=graph, config=config, summaries=summaries)
    for qualname, info in graph.functions.items():
        analysis.results[qualname] = \
            FunctionEvaluator(info, config, graph, views).run()
    return analysis
