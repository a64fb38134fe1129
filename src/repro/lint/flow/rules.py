"""The F-rule family: flow invariants checked by the dataflow engine.

Each taint rule (F1, F2, F5) contributes a :class:`FlowConfig` fragment —
sources, sanitizers, sinks — and reads back the hits the engine collected
for its rule id.  The structural rules (F3, F4) do not use taint at all:
they ask guard-*reachability* questions over the same call graph ("can this
public batched entry point ever observe the fault plan / the hook?").

All five run a single shared project analysis, memoized on the
:class:`~repro.lint.core.Project`, so ``--deep`` pays the fixed-point cost
once no matter how many rules are selected.
"""

import ast
from collections.abc import Iterator

from repro.lint.core import Module, Project, Rule, dotted_name, register
from repro.lint.flow.callgraph import FunctionInfo
from repro.lint.flow.lattice import (
    COUNTER,
    COUNTER_DEC,
    MASTER_KEY,
    PLAINTEXT,
    TENANT_KEY,
    FlowConfig,
    SanitizerSpec,
    SinkSpec,
    SourceSpec,
    StoreSinkSpec,
    merge_configs,
)
from repro.lint.flow.summaries import FlowAnalysis, analyze_project


def _is_property(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for decorator in node.decorator_list:
        name = dotted_name(decorator)
        if name and name.split(".")[-1] in ("property", "cached_property"):
            return True
    return False


class FlowRule(Rule):
    """Base for deep rules: shares one memoized project analysis."""

    deep = True
    flow_config = FlowConfig()

    def analysis(self, project: Project) -> FlowAnalysis:
        result = project.cached("flow.analysis",
                                lambda: _compute_analysis(project))
        assert isinstance(result, FlowAnalysis)
        return result

    def check(self, module: Module, project: Project) -> Iterator:
        analysis = self.analysis(project)
        for hit in analysis.hits_for_module(module):
            if hit.rule == self.name:
                yield module.finding(self, hit.node, hit.message)

    @staticmethod
    def _module_functions(analysis: FlowAnalysis,
                          module: Module) -> list[FunctionInfo]:
        return [info for info in analysis.graph.functions.values()
                if info.module.relpath == module.relpath]

    @staticmethod
    def _class_attr_writes(analysis: FlowAnalysis, module: Module,
                           class_name: str) -> set[str]:
        writes: set[str] = set()
        for info in analysis.graph.functions.values():
            if info.class_name == class_name \
                    and info.module.relpath == module.relpath:
                writes.update(info.attr_writes)
        return writes


def _compute_analysis(project: Project) -> FlowAnalysis:
    modules = [m for m in project.modules
               if m.module == "repro" or m.module.startswith("repro.")]
    config = merge_configs([rule.flow_config for rule in RULES_FLOW])
    return analyze_project(project, modules, config)


_F1_TREE_MSG = (
    "tenant-derived key material reaches a master-keyed MAC domain "
    "(MacDomain.NODE/CHV_LEVEL2); the integrity tree must stay under the "
    "controller master key so shard splicing is detected")
_F1_DATA_MSG = (
    "raw master key material reaches a tenant data-path crypto call; "
    "resolve keys through TenantKeyring.aes_key()/mac_key() so per-tenant "
    "isolation holds")
_F2_MSG = (
    "decrypt output reaches a raw NVM backend write without re-encryption; "
    "plaintext persisted to NVM survives power-off and defeats memory "
    "encryption")
_F5_STORE_MSG = (
    "a decremented counter value is written back into counter-block state; "
    "encryption counters must be monotonic or pad reuse becomes possible")
_F5_CTOR_MSG = (
    "a decremented counter value is persisted via counter/metadata "
    "construction; encryption counters must be monotonic or pad reuse "
    "becomes possible")


@register
class RuleF1(FlowRule):
    """Tenant and master key domains must not cross."""

    name = "F1"
    title = "key-domain taint: tenant keys and master keys must not cross"
    rationale = (
        "PR 8's isolation guarantee is a flow property: data-path crypto is "
        "tenant-keyed, the integrity tree is master-keyed. A value derived "
        "from TenantKeyring/TenantKeySchedule reaching a NODE/CHV_LEVEL2 "
        "MAC site (or a raw master key reaching sharded data-path crypto) "
        "silently collapses the two trust domains.")
    scope = ("repro",)

    flow_config = FlowConfig(
        sources=(
            # Blessed resolution APIs are *overrides*: their results carry
            # exactly the tenant label no matter what master material fed
            # them (TenantKeyring.aes_key derives from aes_master by design).
            SourceSpec("call", frozenset({
                "derive_tenant_key", "aes_key", "mac_key"}), TENANT_KEY),
            SourceSpec("attr", frozenset({
                "aes_master", "mac_master"}), MASTER_KEY),
        ),
        sinks=(
            SinkSpec(
                rule="F1",
                callee_names=frozenset({
                    "compute_mac", "compute_digest_macs"}),
                arg_positions=(0,),
                kwarg_names=("key",),
                labels=frozenset({TENANT_KEY}),
                keyword_equals=("domain", "MacDomain",
                                frozenset({"NODE", "CHV_LEVEL2"})),
                message=_F1_TREE_MSG),
            SinkSpec(
                rule="F1",
                callee_names=frozenset({
                    "encrypt_block", "decrypt_block", "encrypt_blocks",
                    "decrypt_blocks", "compute_block_macs", "block_mac"}),
                arg_positions=(0,),
                kwarg_names=("key",),
                labels=frozenset({MASTER_KEY}),
                module_prefixes=("repro.sharding",),
                message=_F1_DATA_MSG),
        ),
    )


@register
class RuleF2(FlowRule):
    """Decrypted plaintext must not reach a raw NVM backend write."""

    name = "F2"
    title = "plaintext escape: decrypt outputs must be re-encrypted " \
            "before any NVM backend write"
    rationale = (
        "NVM persists across power-off, so one plaintext write is a "
        "permanent leak (the persistence-based attack surface). Every "
        "decrypt output must pass an encrypt/MAC/pad sanitizer before "
        "reaching NvmDevice/SparseMemory write entry points.")
    scope = ("repro",)

    flow_config = FlowConfig(
        sources=(
            SourceSpec("call", frozenset({
                "decrypt", "decrypt_batch", "decrypt_block",
                "decrypt_blocks", "decrypt_arena"}), PLAINTEXT),
        ),
        sanitizers=(
            SanitizerSpec(frozenset({
                "encrypt", "encrypt_batch", "encrypt_block",
                "encrypt_blocks", "encrypt_arena",
                "compute_mac", "compute_digest_macs", "compute_block_macs",
                "block_mac", "digest_mac",
                "xor_bytes", "xor_block", "xor_buffers",
                "generate_pad", "generate_pads",
                "sha256", "blake2b"}), frozenset({PLAINTEXT})),
        ),
        sinks=(
            SinkSpec(
                rule="F2",
                callee_names=frozenset({
                    "write", "write_block", "write_arena", "poke"}),
                arg_positions=(1,),
                kwarg_names=("data", "buffer"),
                labels=frozenset({PLAINTEXT}),
                receivers=frozenset({
                    "nvm", "_nvm", "backend", "_backend",
                    "device", "_device"}),
                message=_F2_MSG),
            SinkSpec(
                rule="F2",
                callee_names=frozenset({"write_batch", "write_blocks"}),
                arg_positions=(0,),
                kwarg_names=("items", "blocks"),
                labels=frozenset({PLAINTEXT}),
                receivers=frozenset({
                    "nvm", "_nvm", "backend", "_backend",
                    "device", "_device"}),
                message=_F2_MSG),
        ),
    )


@register
class RuleF3(FlowRule):
    """Grouped backend paths must observe the scalar-degradation guards."""

    name = "F3"
    title = "fault-plan parity: grouped backend methods must reach the " \
            "scalar-degradation guard"
    rationale = (
        "PR 7's arena contract: batched/grouped NVM entry points must "
        "degrade to the scalar path whenever a fault plan or trace is "
        "active, or fault injection silently misses grouped I/O. "
        "Checked structurally: every public *_batch/*_blocks/*_arena "
        "method on a fault-plan-bearing class must (transitively) read one "
        "of the guard attributes.")
    scope = ("repro.mem",)

    GUARDS = frozenset({"fault_plan", "trace", "grouped_io"})
    SUFFIXES = ("_batch", "_blocks", "_arena")

    def check(self, module: Module, project: Project) -> Iterator:
        analysis = self.analysis(project)
        for info in self._module_functions(analysis, module):
            if info.class_name is None or not info.is_public:
                continue
            if not info.name.endswith(self.SUFFIXES):
                continue
            if _is_property(info.node):
                continue
            owns = self._class_attr_writes(analysis, module, info.class_name)
            if "fault_plan" not in owns:
                continue
            reads = analysis.transitive_attr_reads(info.qualname)
            if not reads & self.GUARDS:
                yield module.finding(self, info.node, (
                    f"grouped method {info.class_name}.{info.name}() never "
                    f"consults the scalar-degradation guards "
                    f"(fault_plan/trace/grouped_io); batched I/O would "
                    f"bypass fault injection and request tracing"))


@register
class RuleF4(FlowRule):
    """Hook injection windows must force the scalar path."""

    name = "F4"
    title = "hook forced-scalar: op_hook/step_hook windows must not " \
            "enter batched paths"
    rationale = (
        "PR 6's contract: adversarial hooks (op_hook, step_hook) fire "
        "between scalar steps, so any public entry point that can reach a "
        "batched fast path must first check that no hook is armed. "
        "Checked structurally on hook-bearing classes: batch-suffixed "
        "public methods, and public methods directly dispatching to a "
        "*_batched sibling, must (transitively) read the hook attribute.")
    scope = ("repro",)

    HOOKS = frozenset({"op_hook", "step_hook"})
    BATCH_SUFFIXES = ("_batch", "_batched", "_blocks", "_arena")

    def check(self, module: Module, project: Project) -> Iterator:
        analysis = self.analysis(project)
        for info in self._module_functions(analysis, module):
            if info.class_name is None or not info.is_public:
                continue
            if _is_property(info.node):
                continue
            hooks = self.HOOKS & self._class_attr_writes(
                analysis, module, info.class_name)
            if not hooks:
                continue
            direct = {analysis.graph.functions[callee].name
                      for callee in analysis.graph.self_callees
                      .get(info.qualname, ())
                      if callee in analysis.graph.functions}
            enters_batched = (
                info.name.endswith(self.BATCH_SUFFIXES)
                or any(name.endswith(("_batch", "_batched"))
                       for name in direct if name != info.name))
            if not enters_batched:
                continue
            if not analysis.transitive_attr_reads(info.qualname) & hooks:
                hook_list = "/".join(sorted(hooks))
                yield module.finding(self, info.node, (
                    f"{info.class_name}.{info.name}() enters a batched "
                    f"path without consulting {hook_list}; armed hooks "
                    f"must force the scalar path so injection windows are "
                    f"not skipped"))


@register
class RuleF5(FlowRule):
    """Counters read from metadata state must not be written back lower."""

    name = "F5"
    title = "counter monotonicity: no decremented counter write-back"
    rationale = (
        "Counter-mode encryption is only safe while counters never repeat. "
        "A counter read from a SplitCounterBlock or metadata cache line "
        "that goes through a subtraction must not be stored back into "
        "counter-block state or persisted through metadata constructors — "
        "that is pad reuse.")
    scope = ("repro",)

    flow_config = FlowConfig(
        sources=(
            SourceSpec("call", frozenset({"counter_for"}), COUNTER),
            SourceSpec("attr", frozenset({"minors", "major", "packed"}),
                       COUNTER),
        ),
        sinks=(
            SinkSpec(
                rule="F5",
                callee_names=frozenset({"SplitCounterBlock"}),
                arg_positions=(0, 1),
                kwarg_names=("major", "minors"),
                labels=frozenset({COUNTER_DEC}),
                message=_F5_CTOR_MSG),
            SinkSpec(
                rule="F5",
                callee_names=frozenset({"MetaLine"}),
                arg_positions=(1,),
                kwarg_names=("value",),
                labels=frozenset({COUNTER_DEC}),
                message=_F5_CTOR_MSG),
        ),
        store_sinks=(
            StoreSinkSpec(
                rule="F5",
                attr_names=frozenset({"minors", "major", "packed"}),
                labels=frozenset({COUNTER_DEC}),
                message=_F5_STORE_MSG),
        ),
    )


RULES_FLOW: tuple[FlowRule, ...] = (
    RuleF1(), RuleF2(), RuleF3(), RuleF4(), RuleF5())
