"""The F-rule family: flow invariants checked by the dataflow engine.

Each rule (F1, F2, F5) contributes a :class:`FlowConfig` fragment —
sources, sanitizers, sinks — and reads back the hits the engine collected
for its rule id.  All three run a single shared project analysis, memoized
on the :class:`~repro.lint.core.Project`, so ``--deep`` pays the
fixed-point cost once no matter how many rules are selected.
"""

from collections.abc import Iterator

from repro.lint.core import Module, Project, Rule, register
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
    "a decremented counter value is stored back into a metadata-cache "
    "lane; encryption counters must be monotonic or pad reuse becomes "
    "possible")
_F5_PERSIST_MSG = (
    "a decremented counter value is encoded or written to NVM; encryption "
    "counters must be monotonic or pad reuse becomes possible")


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
class RuleF5(FlowRule):
    """Counters read from metadata state must not be written back lower."""

    name = "F5"
    title = "counter monotonicity: no decremented counter write-back"
    rationale = (
        "Counter-mode encryption is only safe while counters never repeat. "
        "A counter — a value read out of the counter cache, a counter "
        "fetch's result (get_counter, _fetch_counter, _fill_counter), a "
        "decoded counter block (decode_counter) or a split-counter "
        "function's result (counter_for, increment, major, minor) — that "
        "goes through a subtraction must not be stored back into a "
        "metadata-cache lane, encoded to its wire form, or written to NVM "
        "— that is pad reuse.")
    scope = ("repro",)

    flow_config = FlowConfig(
        sources=(
            SourceSpec("call", frozenset({
                "counter_for", "increment", "major", "minor",
                "decode_counter", "get_counter", "_fetch_counter",
                "_fill_counter"}), COUNTER),
            SourceSpec("attr", frozenset({"counter_cache"}), COUNTER),
        ),
        sinks=(
            SinkSpec(
                rule="F5",
                callee_names=frozenset({"encode_counter"}),
                arg_positions=(0,),
                kwarg_names=("block",),
                labels=frozenset({COUNTER_DEC}),
                message=_F5_PERSIST_MSG),
            SinkSpec(
                rule="F5",
                callee_names=frozenset({"write"}),
                arg_positions=(1,),
                kwarg_names=("data",),
                labels=frozenset({COUNTER_DEC}),
                receivers=frozenset({"nvm", "_nvm"}),
                message=_F5_PERSIST_MSG),
        ),
        store_sinks=(
            StoreSinkSpec(
                rule="F5",
                attr_names=frozenset({"sets"}),
                labels=frozenset({COUNTER_DEC}),
                message=_F5_STORE_MSG),
        ),
    )


RULES_FLOW: tuple[FlowRule, ...] = (RuleF1(), RuleF2(), RuleF5())
