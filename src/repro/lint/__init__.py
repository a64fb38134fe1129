"""reprolint: simulator-invariant static analysis for the Horus reproduction.

A rule lives here only while no type, runtime check or tier-1 test catches
its defect (``docs/linting.md`` records the verdicts of the rules that
went).  What stays encodes the paper's security invariants or checks
something nothing else checks:

``R1`` determinism
    no wall-clock or entropy imports inside the simulator core packages;
``R3`` batch parity
    every public ``*_batch``/``*_blocks`` method has a same-class scalar twin
    and an entry in the batch-equivalence coverage map;
``R4`` exception hygiene
    no bare/broad ``except`` that swallows (re-raising handlers are fine);
``R5`` magic timing/energy numbers
    Table I/II constants must come from :mod:`repro.common.constants`;
``R0`` suppression hygiene
    every ``# reprolint: disable=...`` comment must name registered rules.

On top of the fast AST rules, ``--deep`` runs the reproflow dataflow
engine (:mod:`repro.lint.flow`): a call graph over ``src/repro``, per-
function taint propagation, and interprocedural summaries to a fixed
point, powering **F1** key-domain taint, **F2** plaintext escape and **F5**
counter monotonicity.

Run it as ``python -m repro.lint src tests`` (exit 0 = clean) or
``python -m repro.lint --deep src tests``; see ``docs/linting.md`` for rule
details, suppression syntax (``# reprolint: disable=R4``), and how to add
a rule.
"""

from repro.lint.core import RULES, Finding, Module, Project, Rule, register
from repro.lint.flow.rules import FlowRule
from repro.lint.runner import LintResult, lint_paths, main

__all__ = [
    "RULES",
    "Finding",
    "FlowRule",
    "LintResult",
    "Module",
    "Project",
    "Rule",
    "lint_paths",
    "main",
    "register",
]
