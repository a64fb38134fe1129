"""reprolint framework: parsed modules, the rule registry, suppressions.

A :class:`Module` is one parsed source file; a :class:`Project` is the set of
modules under analysis plus access to sibling sources a rule may need (e.g.
the batch-parity coverage map).  Rules subclass :class:`Rule`, declare a
module-prefix ``scope``, and are added to the global :data:`RULES` registry
with the :func:`register` decorator.

Suppression is per line and per rule::

    risky_call()  # reprolint: disable=R4
    # reprolint: disable-next-line=R1,R5
    flagged_line()

Suppressed findings are not dropped silently — the runner reports them
separately so a reviewer (or the meta-test in ``tests/test_lint.py``) can
assert that suppressions stay confined to their documented exemptions.
"""

import ast
import re
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(disable|disable-next-line)\s*=\s*"
    r"([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    suppressed: bool = False

    def format(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: " \
               f"{self.message}{tag}"


def module_name_for(path: Path, root: Path) -> str:
    """Dotted module name for ``path``.

    Files inside a ``repro`` package directory are named from that anchor
    (``src/repro/core/horus.py`` -> ``repro.core.horus``) so rule scopes are
    stable regardless of where the tree is checked out; everything else is
    named relative to ``root`` (``tests/test_lint.py`` -> ``tests.test_lint``).
    """
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        return ".".join(parts[anchor:])
    try:
        rel = path.with_suffix("").relative_to(root).parts
    except ValueError:
        rel = tuple(parts[-2:])
    if rel and rel[-1] == "__init__":
        rel = rel[:-1]
    return ".".join(rel)


class Module:
    """One parsed Python source file plus its suppression table."""

    def __init__(self, path: Path, root: Path):
        self.path = path
        self.root = root
        try:
            self.relpath = path.relative_to(root).as_posix()
        except ValueError:
            self.relpath = path.as_posix()
        self.module = module_name_for(path, root)
        self.source = path.read_text(encoding="utf-8")
        self.tree = ast.parse(self.source, filename=str(path))
        self.lines = self.source.splitlines()
        self._suppressions: dict[int, set[str]] = {}
        self.suppression_lines: list[tuple[int, frozenset[str]]] = []
        self._scan_suppressions()

    def _scan_suppressions(self) -> None:
        for number, text in enumerate(self.lines, start=1):
            if "reprolint" not in text:
                continue
            for match in _SUPPRESS_RE.finditer(text):
                rules = frozenset(
                    name.strip().upper()
                    for name in match.group(2).split(",") if name.strip())
                target = number + 1 if match.group(1).endswith("next-line") \
                    else number
                self._suppressions.setdefault(target, set()).update(rules)
                self.suppression_lines.append((number, rules))

    def is_suppressed(self, rule: str, line: int) -> bool:
        return rule in self._suppressions.get(line, ())

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``, applying suppressions."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        raw = Finding(path=self.relpath, line=line, col=col,
                      rule=rule.name, message=message)
        if self.is_suppressed(rule.name, line):
            return replace(raw, suppressed=True)
        return raw


class Project:
    """The set of modules being linted plus sibling-source access."""

    def __init__(self, root: Path, modules: list[Module]):
        self.root = root
        self.modules = modules
        self._cache: dict[str, object] = {}

    def find_source(self, *candidates: str) -> str | None:
        """Source text of the first existing path (relative to the root)."""
        for candidate in candidates:
            path = self.root / candidate
            if path.is_file():
                return path.read_text(encoding="utf-8")
        return None

    def cached(self, key: str, compute) -> object:
        """Per-run memoization for rule-level project scans."""
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]


class Rule:
    """Base class for reprolint rules.

    ``scope`` is a tuple of dotted module prefixes; an empty tuple means the
    rule applies everywhere the runner looks.  ``check`` yields findings via
    :meth:`Module.finding` so suppression handling stays uniform.
    """

    name = ""
    title = ""
    rationale = ""
    scope: tuple[str, ...] = ()
    deep = False
    """Deep rules (the flow family) run only under ``--deep``: they need a
    whole-project fixed point and are too slow for the per-save fast path."""

    def applies(self, module: Module) -> bool:
        if not self.scope:
            return True
        return any(module.module == prefix
                   or module.module.startswith(prefix + ".")
                   for prefix in self.scope)

    def check(self, module: Module, project: Project) -> Iterator[Finding]:
        raise NotImplementedError


RULES: dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator adding a rule to the global registry."""
    instance = cls()
    if not instance.name:
        raise ValueError(f"rule {cls.__name__} has no name")
    if instance.name in RULES:
        raise ValueError(f"duplicate rule name {instance.name}")
    RULES[instance.name] = instance
    return cls


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
