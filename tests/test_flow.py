"""reproflow: the project-wide dataflow rules (F1, F2, F5) and --deep.

Every F-rule gets a planted-defect "teeth" fixture that must be caught and
near-miss twins that must stay clean; regression tests re-seed historic
bug classes (the MAC-domain splice, a counter decrement in the batched
segment and in Osiris recovery) into a scratch copy of the real tree; a
meta-test holds the repository itself deep-clean; and the --deep CLI
contract is pinned along with the docs so listings cannot drift.
"""

import shutil
import textwrap
from pathlib import Path

import pytest

from repro.lint import RULES, lint_paths
from repro.lint.rules import SIM_PACKAGES
from repro.lint.runner import main

REPO_ROOT = Path(__file__).resolve().parents[1]


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
            rules=["F1", "F2", "F5"])
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


class TestDocsAndListingsPinned:
    """Rule listings and docs cannot drift from the registry."""

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
        for phrase in ("--deep", "exit code"):
            assert phrase in doc.lower() or phrase in doc, \
                f"docs/linting.md is missing {phrase!r}"

    def test_readme_and_extending_crosslink_the_deep_gate(self):
        readme = (REPO_ROOT / "README.md").read_text()
        assert "--deep" in readme
        extending = (REPO_ROOT / "docs" / "extending.md").read_text()
        assert "FlowRule" in extending
