"""reproflow: the project-wide dataflow rules (F1-F5) and --deep plumbing.

Every F-rule gets a planted-defect "teeth" fixture that must be caught and
near-miss twins that must stay clean; two regression tests re-seed historic
bug classes (the PR 2 MAC-domain splice, a guard-stripped ``write_arena``)
into a scratch copy of the real tree; meta-tests hold the repository itself
deep-clean with an empty, shrink-only ``flow-baseline.txt``; and the CLI
contract (--deep, --format sarif, --changed, baseline handling) is pinned
along with the docs so listings cannot drift.
"""

import json
import shutil
import subprocess
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from repro.lint import RULES, Finding, lint_paths
from repro.lint.flow.baseline import (
    apply_baseline,
    fingerprint,
    parse_baseline,
)
from repro.lint.rules import SIM_PACKAGES
from repro.lint.runner import changed_files, main

REPO_ROOT = Path(__file__).resolve().parents[1]
GIT = shutil.which("git")


def run_deep(tmp_path, files, rules=None):
    """Write ``{relpath: source}`` under ``tmp_path`` and deep-lint it."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return lint_paths([tmp_path], root=tmp_path, deep=True, rules=rules)


def rules_hit(result):
    return sorted({f.rule for f in result.findings})


class TestF1KeyDomainTaint:
    def test_tenant_key_reaching_tree_mac_through_helper(self, tmp_path):
        # The defect crosses a call boundary: the key is resolved in one
        # function and reaches the NODE-domain MAC in another.
        result = run_deep(tmp_path, {"repro/sharding/evil.py": """\
            def tag_node(keyring, tenant, payload):
                key = keyring.mac_key(tenant)
                return seal(key, payload)

            def seal(key, payload):
                return compute_mac(key, payload, domain=MacDomain.NODE)
        """}, rules=["F1"])
        assert rules_hit(result) == ["F1"]
        assert "master-keyed MAC domain" in result.findings[0].message
        assert "via call to seal()" in result.findings[0].message

    def test_tenant_key_reaching_level2_digest_batch(self, tmp_path):
        # The batched digest kernel is a sink too: a tenant key must not
        # seal a DLM second-level digest batch.
        result = run_deep(tmp_path, {"repro/sharding/evil.py": """\
            from repro.crypto import batch

            def fold_groups(keyring, tenant, groups):
                key = keyring.mac_key(tenant)
                return batch.compute_digest_macs(
                    key, groups, domain=MacDomain.CHV_LEVEL2)
        """}, rules=["F1"])
        assert rules_hit(result) == ["F1"]
        assert "master-keyed MAC domain" in result.findings[0].message

    def test_tenant_key_on_data_domain_is_the_designed_path(self, tmp_path):
        result = run_deep(tmp_path, {"repro/sharding/ok.py": """\
            def tag_data(keyring, tenant, payload):
                key = keyring.mac_key(tenant)
                return compute_mac(key, payload, domain=MacDomain.DATA)
        """}, rules=["F1"])
        assert result.findings == []

    def test_master_key_on_tree_mac_is_the_designed_path(self, tmp_path):
        result = run_deep(tmp_path, {"repro/sharding/ok.py": """\
            class Tree:
                def __init__(self, mac_master):
                    self.mac_master = mac_master

                def tag(self, payload):
                    return compute_mac(self.mac_master, payload,
                                       domain=MacDomain.NODE)
        """}, rules=["F1"])
        assert result.findings == []

    def test_raw_master_key_on_sharded_data_path(self, tmp_path):
        result = run_deep(tmp_path, {"repro/sharding/evil.py": """\
            from repro.sharding import batch

            class Shard:
                def __init__(self, aes_master):
                    self.aes_master = aes_master

                def run(self, blocks):
                    return batch.encrypt_blocks(self.aes_master, blocks)
        """}, rules=["F1"])
        assert rules_hit(result) == ["F1"]
        assert "TenantKeyring" in result.findings[0].message

    def test_keyring_resolved_key_launders_master_material(self, tmp_path):
        # aes_key() derives from aes_master internally — by design.  The
        # blessed resolution API must not propagate the master label.
        result = run_deep(tmp_path, {"repro/sharding/ok.py": """\
            from repro.sharding import batch

            class Shard:
                def __init__(self, keyring):
                    self.keyring = keyring

                def run(self, tenant, blocks):
                    key = self.keyring.aes_key(tenant)
                    return batch.encrypt_blocks(key, blocks)
        """}, rules=["F1"])
        assert result.findings == []

    def test_master_data_crypto_outside_sharding_is_fine(self, tmp_path):
        # The non-sharded controller legitimately runs data crypto under
        # the master key; the F1 data-path sink is sharding-scoped.
        result = run_deep(tmp_path, {"repro/secure/ok.py": """\
            class Controller:
                def __init__(self, aes_master):
                    self.aes_master = aes_master

                def run(self, blocks):
                    return encrypt_blocks(self.aes_master, blocks)
        """}, rules=["F1"])
        assert result.findings == []


class TestF2PlaintextEscape:
    def test_decrypt_output_to_backend_write(self, tmp_path):
        result = run_deep(tmp_path, {"repro/secure/evil.py": """\
            class Leaky:
                def migrate(self, address, ciphertext):
                    plaintext = self.aes.decrypt(address, ciphertext)
                    self.nvm.write(address, plaintext)
        """}, rules=["F2"])
        assert rules_hit(result) == ["F2"]
        assert "re-encryption" in result.findings[0].message

    def test_escape_through_a_private_helper(self, tmp_path):
        result = run_deep(tmp_path, {"repro/secure/evil.py": """\
            class Leaky:
                def migrate(self, address, ciphertext):
                    plaintext = self.aes.decrypt(address, ciphertext)
                    self._persist(address, plaintext)

                def _persist(self, address, data):
                    self.nvm.write(address, data)
        """}, rules=["F2"])
        assert rules_hit(result) == ["F2"]
        assert "via call to _persist()" in result.findings[0].message

    def test_reencrypted_write_is_clean(self, tmp_path):
        result = run_deep(tmp_path, {"repro/secure/ok.py": """\
            class Migrator:
                def migrate(self, address, ciphertext):
                    plaintext = self.aes.decrypt(address, ciphertext)
                    fresh = self.aes.encrypt(address, plaintext)
                    self.nvm.write(address, fresh)
        """}, rules=["F2"])
        assert result.findings == []

    def test_writeback_through_the_controller_is_clean(self, tmp_path):
        # Recovery hands plaintext back to the *controller*, which encrypts
        # internally; only raw device/backend receivers are sinks.
        result = run_deep(tmp_path, {"repro/core/ok.py": """\
            class Recovery:
                def replay(self, address, ciphertext):
                    plaintext = self.aes.decrypt(address, ciphertext)
                    self._controller.write(address, plaintext)
        """}, rules=["F2"])
        assert result.findings == []

    def test_batched_escape_is_caught(self, tmp_path):
        result = run_deep(tmp_path, {"repro/secure/evil.py": """\
            class Leaky:
                def migrate(self, items):
                    blocks = self.aes.decrypt_blocks(items)
                    self.nvm.write_batch(blocks)
        """}, rules=["F2"])
        assert rules_hit(result) == ["F2"]


class TestF3FaultPlanParity:
    def test_unguarded_arena_method_is_flagged(self, tmp_path):
        result = run_deep(tmp_path, {"repro/mem/evil.py": """\
            class RawDevice:
                def __init__(self):
                    self.fault_plan = None
                    self.cells = {}

                def write_arena(self, base, buffer):
                    self.cells[base] = buffer
        """}, rules=["F3"])
        assert rules_hit(result) == ["F3"]
        assert "write_arena" in result.findings[0].message

    def test_direct_guard_read_is_clean(self, tmp_path):
        result = run_deep(tmp_path, {"repro/mem/ok.py": """\
            class Device:
                def __init__(self):
                    self.fault_plan = None
                    self.cells = {}

                def write_arena(self, base, buffer):
                    if self.fault_plan is not None:
                        return self._scalar(base, buffer)
                    self.cells[base] = buffer
        """}, rules=["F3"])
        assert result.findings == []

    def test_transitive_guard_read_is_clean(self, tmp_path):
        # The guard lives in the scalar fallback the method dispatches to.
        result = run_deep(tmp_path, {"repro/mem/ok.py": """\
            class Device:
                def __init__(self):
                    self.fault_plan = None
                    self.cells = {}

                def write(self, address, data):
                    if self.fault_plan is not None:
                        raise RuntimeError("faulted")
                    self.cells[address] = data

                def write_batch(self, items):
                    for address, data in items:
                        self.write(address, data)
        """}, rules=["F3"])
        assert result.findings == []

    def test_class_without_fault_state_is_exempt(self, tmp_path):
        # SparseMemory-style raw stores never carry a fault plan; parity
        # applies only to classes that own the degradation state.
        result = run_deep(tmp_path, {"repro/mem/ok.py": """\
            class SparseStore:
                def __init__(self):
                    self.cells = {}

                def write_arena(self, base, buffer):
                    self.cells[base] = buffer
        """}, rules=["F3"])
        assert result.findings == []

    def test_private_batch_helpers_are_exempt(self, tmp_path):
        result = run_deep(tmp_path, {"repro/mem/ok.py": """\
            class Device:
                def __init__(self):
                    self.fault_plan = None

                def _fill_batch(self, items):
                    return items
        """}, rules=["F3"])
        assert result.findings == []


class TestF4HookForcedScalar:
    def test_batch_entry_ignoring_the_hook_is_flagged(self, tmp_path):
        result = run_deep(tmp_path, {"repro/secure/evil.py": """\
            class Controller:
                def __init__(self):
                    self.op_hook = None

                def run_ops_batch(self, ops):
                    return [self._one(op) for op in ops]

                def _one(self, op):
                    return op
        """}, rules=["F4"])
        assert rules_hit(result) == ["F4"]
        assert "op_hook" in result.findings[0].message

    def test_hook_guard_forces_scalar(self, tmp_path):
        result = run_deep(tmp_path, {"repro/secure/ok.py": """\
            class Controller:
                def __init__(self):
                    self.op_hook = None

                def run_ops_batch(self, ops):
                    if self.op_hook is not None:
                        return self.run_ops(ops)
                    return [self._one(op) for op in ops]

                def run_ops(self, ops):
                    return [self._one(op) for op in ops]

                def _one(self, op):
                    return op
        """}, rules=["F4"])
        assert result.findings == []

    def test_direct_dispatch_to_batched_sibling_needs_the_guard(
            self, tmp_path):
        result = run_deep(tmp_path, {"repro/core/evil.py": """\
            class Recovery:
                def __init__(self):
                    self.step_hook = None

                def recover(self):
                    return self._recover_batched()

                def _recover_batched(self):
                    return 0
        """}, rules=["F4"])
        assert rules_hit(result) == ["F4"]
        assert "step_hook" in result.findings[0].message

    def test_guarded_dispatch_is_clean(self, tmp_path):
        result = run_deep(tmp_path, {"repro/core/ok.py": """\
            class Recovery:
                def __init__(self):
                    self.step_hook = None

                def recover(self):
                    if self.step_hook is None:
                        return self._recover_batched()
                    return self._recover_scalar()

                def _recover_batched(self):
                    return 0

                def _recover_scalar(self):
                    return 0
        """}, rules=["F4"])
        assert result.findings == []

    def test_hookless_class_is_exempt(self, tmp_path):
        result = run_deep(tmp_path, {"repro/secure/ok.py": """\
            class Engine:
                def run_ops_batch(self, ops):
                    return list(ops)
        """}, rules=["F4"])
        assert result.findings == []


class TestF5CounterMonotonicity:
    """Each sink shape that puts a counter int back into state flags one
    planted decrement: the lane store, the encoder and the NVM write."""

    def test_decremented_counter_stored_in_a_lane(self, tmp_path):
        result = run_deep(tmp_path, {"repro/secure/evil.py": """\
            def rollback(cache, block, slot, index, address):
                counter = counter_for(block, slot)
                cache.sets[index][address] = counter - 1
        """}, rules=["F5"])
        assert rules_hit(result) == ["F5"]
        assert len(result.findings) == 1
        assert "monotonic" in result.findings[0].message

    def test_decremented_counter_encoded(self, tmp_path):
        result = run_deep(tmp_path, {"repro/secure/evil.py": """\
            def stash(block, slot):
                new, _ = increment(block, slot)
                return encode_counter(new - (1 << 64))
        """}, rules=["F5"])
        assert rules_hit(result) == ["F5"]
        assert len(result.findings) == 1
        assert "monotonic" in result.findings[0].message

    def test_decremented_counter_written_to_nvm(self, tmp_path):
        result = run_deep(tmp_path, {"repro/secure/evil.py": """\
            def persist(controller, block, address):
                rolled = major(block) - 1
                controller.nvm.write(address, rolled.to_bytes(64, "little"),
                                     WriteKind.COUNTER)
        """}, rules=["F5"])
        assert rules_hit(result) == ["F5"]
        assert len(result.findings) == 1
        assert "monotonic" in result.findings[0].message

    def test_decrement_in_the_batched_lane_loop(self, tmp_path):
        # The batched segment's shape: the block comes off a local bound
        # to a counter-cache set (a hit's pop, or a fill on a miss) and
        # goes back through that local.
        result = run_deep(tmp_path, {"repro/secure/evil.py": """\
            class Controller:
                def segment(self, cb_address, shift):
                    ctr_sets = self.counter_cache.sets
                    ctr_set = ctr_sets[cb_address // 64 % 8]
                    block = ctr_set.pop(cb_address, None)
                    if block is None:
                        block = self._fill_counter(cb_address)
                    ctr_set[cb_address] = block - (1 << shift)
        """}, rules=["F5"])
        assert rules_hit(result) == ["F5"]
        assert len(result.findings) == 1
        assert result.findings[0].line == 8

    def test_decrement_of_a_lane_hit_is_tracked(self, tmp_path):
        # A value read straight out of the counter cache is a counter,
        # with no fetch call in sight.
        result = run_deep(tmp_path, {"repro/secure/evil.py": """\
            def rewind(controller, cb_address):
                cache = controller.counter_cache
                lane = cache.sets[cache.set_index(cb_address)]
                lane[cb_address] = lane[cb_address] - 1
        """}, rules=["F5"])
        assert rules_hit(result) == ["F5"]
        assert len(result.findings) == 1

    def test_decrement_in_the_osiris_fix_up(self, tmp_path):
        # Osiris recovery's shape: a decoded NVM block adjusted in place,
        # then encoded and written home.
        result = run_deep(tmp_path, {"repro/secure/evil.py": """\
            def fix_up(controller, cb_address, raw, delta, shift):
                block = decode_counter(raw)
                block -= delta << shift
                controller.nvm.write(cb_address, encode_counter(block),
                                     WriteKind.COUNTER)
        """}, rules=["F5"])
        assert rules_hit(result) == ["F5"]
        assert any("encoded" in finding.message and finding.line == 4
                   for finding in result.findings)

    def test_lane_loop_increment_is_the_designed_path(self, tmp_path):
        result = run_deep(tmp_path, {"repro/secure/ok.py": """\
            class Controller:
                def segment(self, cb_address, shift):
                    ctr_set = self.counter_cache.sets[cb_address % 8]
                    block = ctr_set.pop(cb_address, None)
                    if block is None:
                        block = self._fill_counter(cb_address)
                    ctr_set[cb_address] = block + (1 << shift)

                def fix_up(self, cb_address, raw, delta, shift):
                    block = decode_counter(raw)
                    block += delta << shift
                    self.nvm.write(cb_address, encode_counter(block),
                                   WriteKind.COUNTER)
        """}, rules=["F5"])
        assert result.findings == []

    def test_decrement_through_a_helper_is_tracked(self, tmp_path):
        result = run_deep(tmp_path, {"repro/secure/evil.py": """\
            def back_off(value):
                return value - 1

            def rollback(cache, block, slot, index, address):
                cache.sets[index][address] = back_off(minor(block, slot))
        """}, rules=["F5"])
        assert rules_hit(result) == ["F5"]

    def test_incremented_lane_store_is_the_designed_path(self, tmp_path):
        result = run_deep(tmp_path, {"repro/secure/ok.py": """\
            def advance(controller, cache, block, slot, index, address):
                new, _ = increment(block, slot)
                cache.sets[index][address] = new
                controller.nvm.write(address, encode_counter(new),
                                     WriteKind.COUNTER)
        """}, rules=["F5"])
        assert result.findings == []

    def test_decrement_used_only_for_comparison_is_clean(self, tmp_path):
        result = run_deep(tmp_path, {"repro/secure/ok.py": """\
            def mark_wrap(cache, block, slot, index, address, limit):
                wraps = (counter_for(block, slot) - 1) >= limit
                cache.sets[index][address] = wraps
        """}, rules=["F5"])
        assert result.findings == []

    def test_non_counter_subtraction_into_a_lane_is_clean(self, tmp_path):
        result = run_deep(tmp_path, {"repro/secure/ok.py": """\
            def resize(cache, index, address, width):
                cache.sets[index][address] = width - 1
        """}, rules=["F5"])
        assert result.findings == []


_STRIPPED_GUARD = (
    "        if not self.grouped_io:\n"
    "            view = memoryview(buffer)\n"
    "            for index, address in enumerate(addresses):\n"
    "                offset = index * CACHE_LINE_SIZE\n"
    "                self.write(address,\n"
    "                           bytes(view[offset:offset + CACHE_LINE_SIZE"
    "]),\n"
    "                           kinds if single else kinds[index])\n"
    "            return\n")


def copy_src_tree(tmp_path: Path) -> Path:
    shutil.copytree(REPO_ROOT / "src", tmp_path / "src")
    return tmp_path / "src"


class TestRegressionTeeth:
    """Historic bug classes re-seeded into a scratch copy of the tree."""

    def test_f1_redetects_the_mac_domain_splice_class(self, tmp_path):
        src = copy_src_tree(tmp_path)
        (src / "repro/sharding/splice_regression.py").write_text(
            textwrap.dedent("""\
                from repro.crypto.primitives import MacDomain, compute_mac
                from repro.sharding.keys import TenantKeyring


                def forge_node_tag(keyring: TenantKeyring, tenant: int,
                                   payload: bytes) -> bytes:
                    key = keyring.mac_key(tenant)
                    return _seal(key, payload)


                def _seal(key: bytes, payload: bytes) -> bytes:
                    return compute_mac(key, payload, domain=MacDomain.NODE)
            """))
        result = lint_paths([src], root=tmp_path, deep=True, rules=["F1"])
        assert [f.rule for f in result.findings] == ["F1"]
        assert "splice_regression" in result.findings[0].path

    def test_f3_redetects_a_guard_stripped_write_arena(self, tmp_path):
        src = copy_src_tree(tmp_path)
        nvm = src / "repro/mem/nvm.py"
        source = nvm.read_text()
        assert _STRIPPED_GUARD in source, \
            "NvmDevice.write_arena guard moved; update _STRIPPED_GUARD"
        nvm.write_text(source.replace(_STRIPPED_GUARD, ""))
        result = lint_paths([src], root=tmp_path, deep=True, rules=["F3"])
        assert any(f.rule == "F3" and "write_arena" in f.message
                   for f in result.findings), \
            [f.format() for f in result.findings]

    @pytest.mark.parametrize("module, designed", [
        ("repro/secure/controller.py",
         "ctr_set[cb_address] = block + (1 << shift)"),
        ("repro/secure/osiris.py", "block += delta << ("),
    ], ids=["batched-increment", "osiris-fix-up"])
    def test_f5_redetects_a_planted_counter_decrement(self, tmp_path,
                                                      module, designed):
        src = copy_src_tree(tmp_path)
        path = src / module
        source = path.read_text()
        assert source.count(designed) == 1, \
            f"{module}: counter update moved; update the planted shape"
        path.write_text(source.replace(
            designed, designed.replace("+", "-", 1)))
        result = lint_paths([src], root=tmp_path, deep=True, rules=["F5"])
        assert result.findings, "planted decrement not flagged"
        assert all(f.rule == "F5" and f.path.endswith(module)
                   for f in result.findings), \
            [f.format() for f in result.findings]

    def test_unmodified_copy_is_deep_clean(self, tmp_path):
        src = copy_src_tree(tmp_path)
        result = lint_paths(
            [src], root=tmp_path, deep=True,
            rules=["F1", "F2", "F3", "F4", "F5"])
        assert result.findings == [], \
            [f.format() for f in result.findings]


class TestRepositoryIsDeepClean:
    """The deep linter's verdict on this repository itself."""

    @pytest.fixture(scope="class")
    def deep_result(self):
        return lint_paths([REPO_ROOT / "src", REPO_ROOT / "tests"],
                          root=REPO_ROOT, deep=True)

    def test_zero_deep_findings(self, deep_result):
        assert deep_result.errors == []
        formatted = "\n".join(f.format() for f in deep_result.findings)
        assert deep_result.findings == [], f"deep lint found:\n{formatted}"

    def test_flow_baseline_is_empty(self):
        entries = parse_baseline(
            (REPO_ROOT / "flow-baseline.txt").read_text())
        # The shrink-only seed: the gate landed clean, so any entry ever
        # appearing here is a new flow violation by definition.
        assert entries == set()


class TestBaselineMechanics:
    def test_fingerprint_ignores_line_numbers(self):
        finding = Finding(path="repro/a.py", line=3, col=1,
                          rule="F2", message="escape")
        assert fingerprint(finding) == fingerprint(replace(finding, line=99))

    def test_apply_baseline_partitions_and_reports_stale(self):
        finding = Finding(path="repro/a.py", line=3, col=1,
                          rule="F2", message="escape")
        known = fingerprint(finding)
        fresh, baselined, stale = apply_baseline(
            [finding], {known, "F9|gone.py|deadbeef0000"})
        assert fresh == []
        assert baselined == [finding]
        assert stale == {"F9|gone.py|deadbeef0000"}

    def test_parse_baseline_skips_comments_and_blanks(self):
        text = "# header\n\nF1|repro/a.py|abc123def456\n"
        assert parse_baseline(text) == {"F1|repro/a.py|abc123def456"}


_F5_DEFECT = {
    "repro/crypto/evil.py": """\
        def rollback(cache, block, slot, index, address):
            counter = counter_for(block, slot)
            cache.sets[index][address] = counter - 1
    """,
}


def write_tree(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))


class TestDeepCli:
    def test_deep_flag_enables_flow_rules(self, tmp_path, capsys):
        write_tree(tmp_path, _F5_DEFECT)
        assert main([str(tmp_path), "--root", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main([str(tmp_path), "--root", str(tmp_path), "--deep"]) == 1
        assert "F5:" in capsys.readouterr().out

    def test_explicitly_named_deep_rule_runs_without_deep(
            self, tmp_path, capsys):
        write_tree(tmp_path, _F5_DEFECT)
        assert main([str(tmp_path), "--root", str(tmp_path),
                     "--rules", "F5"]) == 1
        capsys.readouterr()

    def test_sarif_document_shape(self, tmp_path, capsys):
        write_tree(tmp_path, _F5_DEFECT)
        code = main([str(tmp_path), "--root", str(tmp_path),
                     "--deep", "--format", "sarif"])
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert document["version"] == "2.1.0"
        driver = document["runs"][0]["tool"]["driver"]
        assert driver["name"] == "reprolint"
        assert {meta["id"] for meta in driver["rules"]} == set(RULES)
        results = document["runs"][0]["results"]
        assert results[0]["ruleId"] == "F5"
        location = results[0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("evil.py")
        assert location["region"]["startLine"] == 3

    def test_sarif_marks_suppressed_findings(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "repro/core/clock.py":
                "import time  # reprolint: disable=R1\n"})
        code = main([str(tmp_path), "--root", str(tmp_path),
                     "--format", "sarif"])
        document = json.loads(capsys.readouterr().out)
        assert code == 0
        results = document["runs"][0]["results"]
        assert results[0]["suppressions"] == [{"kind": "inSource"}]

    def test_baselined_finding_does_not_gate(self, tmp_path, capsys):
        write_tree(tmp_path, _F5_DEFECT)
        first = lint_paths([tmp_path], root=tmp_path, deep=True)
        assert [f.rule for f in first.findings] == ["F5"]
        (tmp_path / "flow-baseline.txt").write_text(
            f"# scratch baseline\n{fingerprint(first.findings[0])}\n")
        assert main([str(tmp_path), "--root", str(tmp_path), "--deep"]) == 0
        out = capsys.readouterr().out
        assert "(baselined)" in out
        assert "1 baselined" in out

    def test_stale_baseline_entry_is_an_error(self, tmp_path, capsys):
        write_tree(tmp_path, {"repro/core/ok.py": "x = 1\n"})
        (tmp_path / "flow-baseline.txt").write_text(
            "F5|repro/crypto/gone.py|0123456789ab\n")
        assert main([str(tmp_path), "--root", str(tmp_path), "--deep"]) == 2
        assert "stale" in capsys.readouterr().out


@pytest.mark.skipif(GIT is None, reason="git not available")
class TestChangedMode:
    @staticmethod
    def _git(cwd, *args):
        subprocess.run(
            [GIT, "-c", "user.email=lint@test", "-c", "user.name=lint",
             *args],
            cwd=cwd, check=True, capture_output=True, text=True)

    def _seed_repo(self, tmp_path):
        write_tree(tmp_path, {
            "repro/core/stable.py": "import time\n",
            "repro/core/touched.py": "x = 1\n",
        })
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "add", ".")
        self._git(tmp_path, "commit", "-q", "-m", "seed")
        (tmp_path / "repro/core/touched.py").write_text("import random\n")

    def test_changed_files_lists_modified_paths(self, tmp_path):
        self._seed_repo(tmp_path)
        assert changed_files("HEAD", tmp_path) == {"repro/core/touched.py"}

    def test_changed_restricts_reporting_not_analysis(
            self, tmp_path, capsys):
        self._seed_repo(tmp_path)
        code = main([str(tmp_path), "--root", str(tmp_path),
                     "--changed", "HEAD"])
        out = capsys.readouterr().out
        # stable.py's pre-existing R1 finding is not re-reported; the new
        # one in touched.py is.
        assert code == 1
        assert "touched.py" in out
        assert "stable.py" not in out

    def test_changed_against_a_bad_ref_is_a_usage_error(
            self, tmp_path, capsys):
        self._seed_repo(tmp_path)
        code = main([str(tmp_path), "--root", str(tmp_path),
                     "--changed", "no-such-ref"])
        assert code == 2
        assert "--changed" in capsys.readouterr().out


class TestDocsAndListingsPinned:
    """Satellite 6: rule listings and docs cannot drift from the registry."""

    def test_list_rules_covers_names_scopes_and_deep_markers(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for name, rule in RULES.items():
            assert name in out
            assert rule.title in out
            for prefix in rule.scope:
                assert prefix in out
        assert "[deep]" in out

    def test_r1_scope_is_the_sim_packages_tuple(self):
        assert RULES["R1"].scope == SIM_PACKAGES

    def test_docs_cover_every_rule_and_every_scoped_package(self):
        doc = (REPO_ROOT / "docs" / "linting.md").read_text()
        for name, rule in RULES.items():
            assert name in doc, f"docs/linting.md is missing rule {name}"
        for package in SIM_PACKAGES:
            assert package in doc, \
                f"docs/linting.md is missing scope package {package}"
        for phrase in ("--deep", "--changed", "flow-baseline.txt",
                       "sarif", "exit code"):
            assert phrase in doc.lower() or phrase in doc, \
                f"docs/linting.md is missing {phrase!r}"

    def test_readme_and_extending_crosslink_the_deep_gate(self):
        readme = (REPO_ROOT / "README.md").read_text()
        assert "--deep" in readme
        extending = (REPO_ROOT / "docs" / "extending.md").read_text()
        assert "FlowRule" in extending
