"""reproflow: project-wide static dataflow analysis for reprolint.

The engine layers on reprolint's :class:`~repro.lint.core.Module` /
:class:`~repro.lint.core.Project` model:

1. :mod:`repro.lint.flow.callgraph` builds a conservative call graph over
   ``src/repro``;
2. :mod:`repro.lint.flow.intraproc` runs a def-use taint pass per function
   (sources introduce labels, sanitizers strip them, sinks flag them);
3. :mod:`repro.lint.flow.summaries` propagates function summaries to a
   fixed point so taint crosses call boundaries;
4. :mod:`repro.lint.flow.rules` ships the F1, F2 and F5 rules on top.

Run it as ``python -m repro.lint --deep``.
"""

from repro.lint.flow.lattice import FlowConfig, Taint, merge_configs
from repro.lint.flow.rules import RULES_FLOW, FlowRule
from repro.lint.flow.summaries import FlowAnalysis, analyze_project

__all__ = [
    "FlowAnalysis",
    "FlowConfig",
    "FlowRule",
    "RULES_FLOW",
    "Taint",
    "analyze_project",
    "merge_configs",
]
