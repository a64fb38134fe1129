"""reprolint driver: file discovery, rule application, CLI.

``python -m repro.lint [paths ...]`` lints ``src`` and ``tests`` by default
with the AST rules (R0, R1, R3-R5).  Output is one
``path:line:col: RULE: message`` line per finding and a summary line.

Exit codes: 0 clean, 1 findings, 2 usage or internal errors.  Suppressed
findings never affect the exit code but are always reported, so exemptions
stay visible.
"""

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

import repro.lint.rules  # noqa: F401 - imports register the R rules
from repro.lint.core import RULES, Finding, Module, Project

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


def iter_python_files(paths: list[Path]) -> list[Path]:
    """All ``.py`` files under ``paths``, sorted, each reported once."""
    seen: dict[Path, None] = {}
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                seen.setdefault(path.resolve(), None)
            continue
        for found in sorted(path.rglob("*.py")):
            if any(part in _SKIP_DIRS or part.startswith(".")
                   for part in found.parts):
                continue
            seen.setdefault(found.resolve(), None)
    return list(seen)


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        return 1 if self.findings else 0


def lint_paths(paths, root=None, rules=None) -> LintResult:
    """Lint every Python file under ``paths`` with the selected rules.

    ``root`` anchors relative paths in messages and sibling-source lookups
    (defaults to the current directory); ``rules`` restricts the run to a
    subset of registry names (default: all of them).
    """
    root = Path(root) if root is not None else Path.cwd()
    result = LintResult()
    selected = sorted(rules if rules is not None else RULES)
    unknown = [name for name in selected if name not in RULES]
    if unknown:
        result.errors.append(f"unknown rule(s): {', '.join(unknown)}")
        return result

    modules: list[Module] = []
    for file_path in iter_python_files([Path(p) for p in paths]):
        try:
            modules.append(Module(file_path, root))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            result.errors.append(f"{file_path}: {exc}")
    result.files_checked = len(modules)

    project = Project(root, modules)
    for module in modules:
        for name in selected:
            rule = RULES[name]
            if not rule.applies(module):
                continue
            for finding in rule.check(module, project):
                if finding.suppressed:
                    result.suppressed.append(finding)
                else:
                    result.findings.append(finding)

    result.findings.sort()
    result.suppressed.sort()
    return result


def _render_human(result: LintResult) -> str:
    lines = [f.format() for f in result.findings]
    lines.extend(f.format() for f in result.suppressed)
    lines.extend(f"error: {message}" for message in result.errors)
    lines.append(
        f"reprolint: {result.files_checked} files, "
        f"{len(result.findings)} finding(s), "
        f"{len(result.suppressed)} suppressed, "
        f"{len(result.errors)} error(s)")
    return "\n".join(lines)


def _render_rules() -> str:
    lines = []
    for name in sorted(RULES):
        rule = RULES[name]
        scope = ", ".join(rule.scope) if rule.scope else "all files"
        lines.append(f"{name}  {rule.title}")
        lines.append(f"    scope: {scope}")
        lines.append(f"    {rule.rationale}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Simulator-invariant static analysis for the Horus "
                    "reproduction (rules R0, R1, R3-R5; see "
                    "docs/linting.md).",
        epilog="exit codes: 0 clean, 1 findings, "
               "2 usage or internal errors")
    parser.add_argument("paths", nargs="*", default=["src", "tests"],
                        help="files or directories to lint "
                             "(default: src tests)")
    parser.add_argument("--root", default=None,
                        help="project root for relative paths and "
                             "coverage-map lookups (default: cwd)")
    parser.add_argument("--rules", default=None,
                        help="comma-separated subset of rules to run "
                             "(e.g. R1,R4)")
    parser.add_argument("--list-rules", action="store_true",
                        help="describe every registered rule and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_render_rules())
        return 0

    rules = None
    if args.rules:
        rules = [name.strip().upper()
                 for name in args.rules.split(",") if name.strip()]

    result = lint_paths(args.paths, root=args.root, rules=rules)
    print(_render_human(result))
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
