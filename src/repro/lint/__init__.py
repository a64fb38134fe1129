"""reprolint: simulator-invariant static analysis for the Horus reproduction.

A rule lives here only while no type, runtime check or tier-1 test catches
its defect (``docs/linting.md`` records the verdicts of the rules that
went).  The paper's security invariants are checked where they run, by
tier-1 tests (``tests/test_security_invariants.py`` and the tenant-key
differential in ``tests/test_sharding_differential.py``); what stays here
checks something nothing else checks:

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

Run it as ``python -m repro.lint src tests`` (exit 0 = clean); see
``docs/linting.md`` for rule details, suppression syntax
(``# reprolint: disable=R4``), and how to add a rule.
"""

from repro.lint.core import RULES, Finding, Module, Project, Rule, register
from repro.lint.runner import LintResult, lint_paths, main

__all__ = [
    "RULES",
    "Finding",
    "LintResult",
    "Module",
    "Project",
    "Rule",
    "lint_paths",
    "main",
    "register",
]
