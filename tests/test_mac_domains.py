"""MAC domain separation, pinned by the attacks it exists to stop.

Every MAC in the system is computed over a (key, inputs) pair that an
adversary can partially steer, so two different *uses* of the engine over
identical inputs must never produce interchangeable tags.  These tests mount
the cross-domain splices directly: forge a tag in one domain, install it
where another domain's tag belongs, and require recovery to refuse it.
"""

import pytest

from repro.attacks.adversary import Adversary
from repro.common.constants import MAC_SIZE
from repro.core.chv import MAC_GROUP_DLM
from repro.core.system import SecureEpdSystem
from repro.common.errors import IntegrityError
from repro.crypto.primitives import MacDomain
from repro.stats.events import MacKind


def _crashed(config, scheme):
    system = SecureEpdSystem(config, scheme=scheme)
    system.fill_worst_case(seed=1)
    system.crash(seed=2)
    return system


def _vault_inputs(system, position):
    """Recover (ciphertext, address, counter) for one vault position from
    the raw medium, exactly as an off-chip adversary would."""
    chv = system.drain_engine._chv
    adversary = Adversary(system.nvm)
    ciphertext = adversary.observe(chv.data_address(position))
    raw = adversary.observe(chv.address_block_address(position // 8))
    slot = position % 8
    address = int.from_bytes(raw[slot * 8:(slot + 1) * 8], "little")
    counter = system.drain_counter.value_at(position)
    return ciphertext, address, counter


class TestVaultMacSplice:
    """A runtime data MAC spliced into a CHV MAC slot must not verify.

    Before domain separation, ``block_mac`` ignored its kind, so the
    DATA_PROTECT tag over the vault's exact (ciphertext, address, counter)
    *equalled* the stored CHV tag and the splice passed recovery."""

    def test_data_domain_tag_differs_from_stored_vault_tag(self, tiny_config):
        system = _crashed(tiny_config, "horus-slm")
        ciphertext, address, counter = _vault_inputs(system, 0)
        mac = system.controller.mac
        stored = Adversary(system.nvm).observe(
            system.drain_engine._chv.mac_block_address(0))[:MAC_SIZE]
        # Same inputs, vault domain: reconstructs the stored tag exactly...
        assert mac.block_mac(MacKind.VERIFY, ciphertext, address, counter,
                             domain=MacDomain.CHV_DATA) == stored
        # ...same inputs, runtime data domain: a different tag.
        assert mac.block_mac(MacKind.DATA_PROTECT, ciphertext, address,
                             counter, domain=MacDomain.DATA) != stored

    def test_spliced_data_mac_is_rejected_at_recovery(self, tiny_config):
        system = _crashed(tiny_config, "horus-slm")
        ciphertext, address, counter = _vault_inputs(system, 0)
        forged = system.controller.mac.block_mac(
            MacKind.DATA_PROTECT, ciphertext, address, counter,
            domain=MacDomain.DATA)
        chv = system.drain_engine._chv
        adversary = Adversary(system.nvm)
        block = adversary.observe(chv.mac_block_address(0))
        adversary.spoof(chv.mac_block_address(0),
                        forged + block[MAC_SIZE:])
        with pytest.raises(IntegrityError):
            system.recover()


class TestLevelTwoDigestSplice:
    """DLM second-level MACs live in their own domain: a tree-update digest
    over the same first-level concatenation must not substitute."""

    def _level2_state(self, tiny_config):
        system = _crashed(tiny_config, "horus-dlm")
        mac = system.controller.mac
        concat = b"".join(
            mac.block_mac(MacKind.VERIFY, *_vault_inputs(system, position),
                          domain=MacDomain.CHV_DATA)
            for position in range(8))
        chv = system.drain_engine._chv
        l2_address = chv.mac_block_address(0, MAC_GROUP_DLM)
        stored = Adversary(system.nvm).observe(l2_address)
        return system, concat, l2_address, stored

    def test_node_domain_digest_differs_from_stored_level2(self, tiny_config):
        system, concat, _, stored = self._level2_state(tiny_config)
        mac = system.controller.mac
        assert mac.digest_mac(MacKind.VERIFY, concat,
                              domain=MacDomain.CHV_LEVEL2) \
            == stored[:MAC_SIZE]
        assert mac.digest_mac(MacKind.TREE_UPDATE, concat,
                              domain=MacDomain.NODE) != stored[:MAC_SIZE]

    def test_spliced_tree_digest_is_rejected_at_recovery(self, tiny_config):
        system, concat, l2_address, stored = self._level2_state(tiny_config)
        forged = system.controller.mac.digest_mac(
            MacKind.TREE_UPDATE, concat, domain=MacDomain.NODE)
        Adversary(system.nvm).spoof(l2_address,
                                    forged + stored[MAC_SIZE:])
        with pytest.raises(IntegrityError):
            system.recover()


class TestShadowAddressPayloads:
    """The baseline's shadow dump authenticates its address payload blocks:
    re-homing restored metadata by editing an address must be detected."""

    def _crashed_baseline(self, config):
        system = SecureEpdSystem(config, scheme="base-lu")
        for i in range(8):
            system.controller.write(i * 4096, bytes([0x09]) * 64)
        system.fill_worst_case(seed=1)
        system.crash(seed=2)
        assert system.controller.shadow_count > 0
        return system

    def test_tampered_address_payload_fails_recovery(self, tiny_config):
        system = self._crashed_baseline(tiny_config)
        shadow = system.controller.layout.shadow
        first_payload = shadow.block_at(system.controller.shadow_count)
        Adversary(system.nvm).tamper(first_payload, byte_offset=0)
        with pytest.raises(IntegrityError):
            system.recover()

    def test_rehomed_address_fails_recovery(self, tiny_config):
        system = self._crashed_baseline(tiny_config)
        shadow = system.controller.layout.shadow
        payload_address = shadow.block_at(system.controller.shadow_count)
        adversary = Adversary(system.nvm)
        raw = bytearray(adversary.observe(payload_address))
        raw[0:8], raw[8:16] = raw[8:16], raw[0:8]   # swap two homes
        adversary.spoof(payload_address, bytes(raw))
        with pytest.raises(IntegrityError):
            system.recover()
