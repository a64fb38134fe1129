"""The simulator-invariant rules (R0-R6).

Each rule encodes an invariant a past bug (or a near-miss) showed to be
load-bearing; ``docs/linting.md`` links every rule to its motivating
incident.  Rules are pure AST analyses: no imports of the checked code, no
execution, so the lint can run on a broken tree.  (The deep flow rules
F1-F5 live in :mod:`repro.lint.flow.rules`.)
"""

import ast
import re
from collections.abc import Iterator

from repro.lint.core import (
    RULES,
    Finding,
    Module,
    Project,
    Rule,
    dotted_name,
    register,
)

SIM_PACKAGES = (
    "repro.core",
    "repro.crypto",
    "repro.secure",
    "repro.mem",
    "repro.metadata",
    "repro.epd",
    "repro.cache",
    "repro.faults",
    "repro.campaigns",
    "repro.sharding",
)
"""The deterministic simulator core: every observable these packages produce
must be a pure function of (config, seeds, code version)."""


@register
class SuppressionHygieneRule(Rule):
    """R0: suppression comments must name registered rules."""

    name = "R0"
    title = "suppression hygiene"
    rationale = ("A suppression comment naming an unknown rule id (say, a "
                 "typo like R99 for R4) suppresses nothing while looking "
                 "like a vetted exemption.  Unknown ids are reported so "
                 "every suppression in the tree provably refers to a real "
                 "rule.")
    scope = ()

    def check(self, module: Module, project: Project) -> Iterator[Finding]:
        for line, names in module.suppression_lines:
            unknown = sorted(name for name in names if name not in RULES)
            if unknown:
                anchor = ast.Pass(lineno=line, col_offset=0)
                yield module.finding(self, anchor, (
                    f"suppression comment names unknown rule id(s) "
                    f"{', '.join(unknown)}; it suppresses nothing — fix "
                    f"the id or delete the comment"))


@register
class DeterminismRule(Rule):
    """R1: no wall-clock or entropy sources inside the simulator core."""

    name = "R1"
    title = "determinism"
    rationale = ("Episode results are cached and replayed by seed; a single "
                 "time.time()/random.random() in the core silently breaks "
                 "cache keys, the differential oracle, and reproducibility. "
                 "Only repro.common.rng and the experiment harness may touch "
                 "wall-clock or entropy.")
    scope = SIM_PACKAGES

    BANNED_MODULES = frozenset({"time", "random", "secrets", "datetime"})

    def check(self, module: Module, project: Project) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self.BANNED_MODULES:
                        yield module.finding(self, node, self._message(root))
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module:
                    root = node.module.split(".")[0]
                    if root in self.BANNED_MODULES:
                        yield module.finding(self, node, self._message(root))

    def _message(self, name: str) -> str:
        return (f"nondeterministic module '{name}' imported in simulator "
                f"core; derive randomness from repro.common.rng and keep "
                f"timing in the experiment harness")


@register
class MacDomainRule(Rule):
    """R2: every MAC computation names its domain with domain=..."""

    name = "R2"
    title = "MAC domain separation"
    rationale = ("PR 2's splice attacks worked because a run-time data MAC "
                 "and a CHV MAC over the same bytes were the same value. "
                 "Domain separation only protects call sites that say which "
                 "domain they mean; implicit defaults reintroduce the bug "
                 "one refactor later.")
    scope = ("repro",)

    MAC_CALLS = frozenset({
        "compute_mac",
        "block_mac",
        "digest_mac",
        "block_mac_batch",
        "digest_mac_batch",
    })

    def check(self, module: Module, project: Project) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if name not in self.MAC_CALLS:
                continue
            keywords = {kw.arg for kw in node.keywords}
            if "domain" in keywords or None in keywords:
                continue
            positional = any(
                isinstance(arg, ast.Attribute)
                and dotted_name(arg.value) == "MacDomain"
                for arg in node.args)
            how = ("passes its MacDomain positionally"
                   if positional else "relies on a default MacDomain")
            yield module.finding(self, node, (
                f"call to {name}() {how}; pass an explicit "
                f"domain=MacDomain.<X> keyword so the protection domain "
                f"survives signature refactors"))


@register
class BatchParityRule(Rule):
    """R3: every public batch method has a scalar twin and oracle coverage."""

    name = "R3"
    title = "batch parity"
    rationale = ("The batched hot paths promise byte-identical observables "
                 "with the scalar reference (PR 3).  A batch method without "
                 "a scalar twin has no specification to diverge from, and "
                 "one outside the coverage map is never differentially "
                 "tested.")
    scope = ("repro",)

    SUFFIXES = ("_batch", "_blocks", "_arena", "_epoch")
    COVERAGE_MAP = "tests/test_prop_batch.py"
    ORACLE = "src/repro/core/oracle.py"
    PROPERTY_DECORATORS = frozenset({"property", "cached_property"})

    #: Batch methods whose scalar specification is not ``<stem>()`` /
    #: ``<stem>_block()``: the fused epoch pass transcribes the per-op
    #: read/write entry points, so those are the twins it is held to.
    TWIN_OVERRIDES = {"replay_epoch": ("read", "write")}

    def check(self, module: Module, project: Project) -> Iterator[Finding]:
        covered = project.cached("R3.coverage", lambda: self._coverage(project))
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = {item.name for item in cls.body
                       if isinstance(item, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))}
            for item in cls.body:
                if not isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                name = item.name
                if name.startswith("_") or not name.endswith(self.SUFFIXES):
                    continue
                if self._is_property(item):
                    continue
                stem = name.rsplit("_", 1)[0]
                override = self.TWIN_OVERRIDES.get(name)
                if override:
                    # Overridden twins are a conjunction: the fused pass
                    # transcribes all of them, so all must be present.
                    twins = set(override)
                    satisfied = twins <= methods
                    wanted = " and ".join(f"{t}()" for t in sorted(twins))
                else:
                    twins = {stem, stem + "_block"}
                    satisfied = bool(twins & methods)
                    wanted = f"{stem}() or {stem}_block()"
                if not satisfied:
                    yield module.finding(self, item, (
                        f"batch method {cls.name}.{name}() has no scalar "
                        f"counterpart ({wanted}) in the "
                        f"same class; the scalar path is the specification "
                        f"the oracle holds it to"))
                qualified = f"{cls.name}.{name}"
                if covered is not None and qualified not in covered:
                    yield module.finding(self, item, (
                        f"batch method {qualified}() is missing from the "
                        f"BATCH_COVERAGE map in {self.COVERAGE_MAP} and is "
                        f"not exercised by the differential oracle"))

    def _is_property(self, node: ast.AST) -> bool:
        for decorator in node.decorator_list:
            name = dotted_name(decorator)
            if name and name.split(".")[-1] in self.PROPERTY_DECORATORS:
                return True
        return False

    def _coverage(self, project: Project) -> frozenset | None:
        """Union of BATCH_COVERAGE keys and oracle-source word tokens.

        Returns None when neither source exists (e.g. lint fixtures run on a
        bare tree) — the coverage half of the rule is then skipped while the
        scalar-twin half still applies.
        """
        names: set[str] = set()
        available = False
        map_source = project.find_source(self.COVERAGE_MAP)
        if map_source is not None:
            available = True
            try:
                tree = ast.parse(map_source)
            except SyntaxError:
                tree = None
            if tree is not None:
                for node in ast.walk(tree):
                    if not isinstance(node, ast.Assign):
                        continue
                    if not any(isinstance(t, ast.Name)
                               and t.id == "BATCH_COVERAGE"
                               for t in node.targets):
                        continue
                    if isinstance(node.value, ast.Dict):
                        for key in node.value.keys:
                            if isinstance(key, ast.Constant) \
                                    and isinstance(key.value, str):
                                names.add(key.value)
        oracle_source = project.find_source(self.ORACLE)
        if oracle_source is not None:
            available = True
            names.update(re.findall(r"\w+", oracle_source))
        return frozenset(names) if available else None


@register
class ExceptionHygieneRule(Rule):
    """R4: no broad exception swallowing."""

    name = "R4"
    title = "exception hygiene"
    rationale = ("IntegrityError, OracleDivergenceError, and fault-matrix "
                 "classifications are the simulator's signal; a broad "
                 "'except Exception' can silently reclassify a detected "
                 "attack as a clean run.  Broad handlers that re-raise "
                 "(rollback paths) are fine; the oracle's compare-then-"
                 "reraise paths are the only documented suppression.")
    scope = ()

    BROAD = frozenset({"Exception", "BaseException"})

    def check(self, module: Module, project: Project) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = self._broad_catch(node.type)
            if broad is None:
                continue
            if any(isinstance(child, ast.Raise)
                   for body in node.body for child in ast.walk(body)):
                continue
            yield module.finding(self, node, (
                f"broad '{broad}' swallows errors; catch the specific "
                f"exceptions (or re-raise) so integrity violations cannot "
                f"be silently classified as clean runs"))

    def _broad_catch(self, node: ast.AST | None) -> str | None:
        if node is None:
            return "except:"
        candidates = node.elts if isinstance(node, ast.Tuple) else [node]
        for candidate in candidates:
            name = dotted_name(candidate)
            if name and name.split(".")[-1] in self.BROAD:
                return f"except {name}"
        return None


@register
class MagicNumberRule(Rule):
    """R5: Table I/II constants must come from repro.common.constants."""

    name = "R5"
    title = "magic timing/energy numbers"
    rationale = ("The paper-fidelity experiments invert Table I/II to check "
                 "the model; a literal 500 in a timing path that drifts "
                 "from NVM_WRITE_LATENCY_NS desynchronizes the analytic "
                 "model, the golden op counts, and the reports without any "
                 "test noticing which copy is authoritative.")
    scope = SIM_PACKAGES + ("repro.stats", "repro.energy")

    TABLE_CONSTANTS = {
        40: "AES_LATENCY_CYCLES",
        160: "HASH_LATENCY_CYCLES",
        150: "NVM_READ_LATENCY_NS",
        500: "NVM_WRITE_LATENCY_NS",
        4_000_000_000: "CORE_FREQUENCY_HZ",
        531.8: "NVM_WRITE_ENERGY_J (in nJ)",
        531.8e-9: "NVM_WRITE_ENERGY_J",
        5.5: "NVM_READ_ENERGY_J (in nJ)",
        5.5e-9: "NVM_READ_ENERGY_J",
        9.3: "PROCESSOR_DRAIN_POWER_W",
    }

    def check(self, module: Module, project: Project) -> Iterator[Finding]:
        if module.module == "repro.common.constants":
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Constant):
                continue
            value = node.value
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            constant = self.TABLE_CONSTANTS.get(value)
            if constant is None:
                continue
            yield module.finding(self, node, (
                f"magic Table I/II literal {value!r}; import "
                f"repro.common.constants.{constant.split()[0]} so the "
                f"timing/energy model has one authoritative copy"))


@register
class StatsAccountingRule(Rule):
    """R6: NVM data movement must be accounted in SimStats."""

    name = "R6"
    title = "stats accounting"
    rationale = ("Drain time, energy, and the figures are all derived from "
                 "SimStats counters; a read or write that goes straight to "
                 "the raw backend moves data the timing model never sees. "
                 "Only repro.mem (the device itself) and repro.attacks (the "
                 "adversary, who bypasses accounting by definition) touch "
                 "the backend's block I/O.")
    scope = (
        "repro.core",
        "repro.secure",
        "repro.epd",
        "repro.cache",
        "repro.metadata",
        "repro.crypto",
        "repro.faults",
        "repro.campaigns",
    )

    RAW_IO = frozenset({
        "read_block",
        "write_block",
        "read_blocks",
        "write_blocks",
        "corrupt_block",
        "clear",
    })

    def check(self, module: Module, project: Project) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) \
                    or func.attr not in self.RAW_IO:
                continue
            holder = func.value
            if not isinstance(holder, ast.Attribute) \
                    or holder.attr not in ("backend", "_backend"):
                continue
            yield module.finding(self, node, (
                f"raw backend call .{holder.attr}.{func.attr}() bypasses "
                f"SimStats accounting; issue the request through "
                f"NvmDevice.read()/write() (or peek()/poke() for "
                f"unaccounted simulator-internal inspection)"))
