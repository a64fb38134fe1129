"""Timed crypto engines: accounting and functional behaviour."""

import pytest

from repro.crypto.engine import (
    AesEngine,
    MacEngine,
    block_domain,
    digest_domain,
)
from repro.crypto.primitives import MacDomain, compute_mac, int_field
from repro.sharding.keys import TenantExtent, TenantKeyedMac, TenantKeyring
from repro.stats.counters import SimStats
from repro.stats.events import AesKind, MacKind


class TestAesEngine:
    def test_every_operation_is_accounted(self):
        stats = SimStats()
        engine = AesEngine(stats)
        engine.encrypt(0, 1, bytes(64))
        engine.encrypt(64, 2, bytes(64))
        engine.decrypt(0, 1, bytes(64))
        assert stats.aes[AesKind.ENCRYPT] == 2
        assert stats.aes[AesKind.DECRYPT] == 1

    def test_functional_roundtrip(self):
        engine = AesEngine(SimStats())
        plaintext = bytes(range(64))
        ciphertext = engine.encrypt(4096, 5, plaintext)
        assert ciphertext != plaintext
        assert engine.decrypt(4096, 5, ciphertext) == plaintext

    def test_non_functional_mode_passes_through_but_counts(self):
        stats = SimStats()
        engine = AesEngine(stats, functional=False)
        payload = b"\x55" * 64
        assert engine.encrypt(0, 1, payload) == payload
        assert stats.total_aes == 1

    def test_none_payload_counts_only(self):
        stats = SimStats()
        engine = AesEngine(stats)
        assert engine.encrypt(0, 1, None) is None
        assert stats.total_aes == 1


class TestMacEngine:
    def test_block_mac_accounted_under_kind(self):
        stats = SimStats()
        engine = MacEngine(stats)
        engine.block_mac(MacKind.CHV_DATA, bytes(64), 0, 1)
        engine.block_mac(MacKind.VERIFY, bytes(64), 0, 1)
        assert stats.macs[MacKind.CHV_DATA] == 1
        assert stats.macs[MacKind.VERIFY] == 1

    def test_block_mac_binds_address_and_counter(self):
        engine = MacEngine(SimStats())
        base = engine.block_mac(MacKind.CHV_DATA, bytes(64), 0, 1)
        assert engine.block_mac(MacKind.CHV_DATA, bytes(64), 64, 1) != base
        assert engine.block_mac(MacKind.CHV_DATA, bytes(64), 0, 2) != base

    def test_domains_separate_equal_inputs(self):
        """A CHV MAC and a run-time data MAC over the same inputs must be
        different values, or one domain's MACs could be spliced into the
        other's and still verify."""
        engine = MacEngine(SimStats())
        runtime = engine.block_mac(MacKind.DATA_PROTECT, bytes(64), 0, 1)
        chv = engine.block_mac(MacKind.CHV_DATA, bytes(64), 0, 1)
        assert runtime != chv

    def test_verify_kind_recomputes_per_domain(self):
        """The accounting kind stays bookkeeping: recovery recomputes drain's
        CHV_DATA MACs as VERIFY against the explicit CHV domain, and run-time
        reads recompute DATA_PROTECT MACs as plain VERIFY."""
        engine = MacEngine(SimStats())
        assert engine.block_mac(MacKind.CHV_DATA, bytes(64), 0, 1) == \
            engine.block_mac(MacKind.VERIFY, bytes(64), 0, 1,
                             domain=MacDomain.CHV_DATA)
        assert engine.block_mac(MacKind.DATA_PROTECT, bytes(64), 0, 1) == \
            engine.block_mac(MacKind.VERIFY, bytes(64), 0, 1)
        assert engine.digest_mac(MacKind.CHV_LEVEL2, bytes(64)) == \
            engine.digest_mac(MacKind.VERIFY, bytes(64),
                              domain=MacDomain.CHV_LEVEL2)
        assert engine.digest_mac(MacKind.TREE_UPDATE, bytes(64)) == \
            engine.digest_mac(MacKind.VERIFY, bytes(64))

    def test_node_and_digest_macs_differ_in_binding(self):
        engine = MacEngine(SimStats())
        content = bytes(64)
        assert engine.node_mac(MacKind.VERIFY, content, 0) != \
            engine.digest_mac(MacKind.VERIFY, content)

    def test_verify_equal_functional(self):
        engine = MacEngine(SimStats())
        assert engine.verify_equal(b"x" * 8, b"x" * 8)
        assert not engine.verify_equal(b"x" * 8, b"y" * 8)

    def test_verify_equal_non_functional_always_passes(self):
        engine = MacEngine(SimStats(), functional=False)
        assert engine.verify_equal(b"x" * 8, b"y" * 8)

    def test_non_functional_macs_are_placeholder(self):
        stats = SimStats()
        engine = MacEngine(stats, functional=False)
        assert engine.digest_mac(MacKind.VERIFY, bytes(64)) == bytes(8)
        assert stats.total_macs == 1


class TestKeyedForks:
    """The engines fork one keyed state per domain instead of re-keying per
    call; every fork must equal the ``compute_mac`` specification."""

    CONTENT = bytes(range(64))
    KEY = b"fork-test-mac-key"

    @pytest.mark.parametrize("kind", list(MacKind), ids=lambda k: k.name)
    @pytest.mark.parametrize("domain", [None, *MacDomain],
                             ids=lambda d: "inherited" if d is None
                             else d.name)
    def test_forks_equal_compute_mac(self, kind, domain):
        engine = MacEngine(SimStats(), key=self.KEY)
        assert engine.block_mac(kind, self.CONTENT, 4096, 77,
                                domain=domain) == compute_mac(
            self.KEY, self.CONTENT, int_field(4096), int_field(77, 16),
            domain=block_domain(kind, domain))
        assert engine.digest_mac(kind, self.CONTENT, domain=domain) == \
            compute_mac(self.KEY, self.CONTENT,
                        domain=digest_domain(kind, domain))
        assert engine.node_mac(kind, self.CONTENT, 4096) == compute_mac(
            self.KEY, self.CONTENT, int_field(4096), domain=MacDomain.NODE)

    def test_forks_do_not_leak_state_between_calls(self):
        engine = MacEngine(SimStats(), key=self.KEY)
        first = engine.digest_mac(MacKind.VERIFY, self.CONTENT)
        engine.digest_mac(MacKind.VERIFY, bytes(64))
        assert engine.digest_mac(MacKind.VERIFY, self.CONTENT) == first

    def test_tenant_engine_keeps_master_keyed_digest_and_node_macs(self):
        keyring = TenantKeyring((TenantExtent(0, 0, 4 * 64),
                                 TenantExtent(1, 8 * 64, 4 * 64)),
                                mac_master=self.KEY)
        tenant = TenantKeyedMac(SimStats(), keyring)
        master = MacEngine(SimStats(), key=self.KEY)
        for kind in MacKind:
            assert tenant.digest_mac(kind, self.CONTENT) == \
                master.digest_mac(kind, self.CONTENT)
            assert tenant.node_mac(kind, self.CONTENT, 8 * 64) == \
                master.node_mac(kind, self.CONTENT, 8 * 64)
        # Block MACs stay per-tenant: tenant 1's differs from the master's.
        assert tenant.block_mac(MacKind.DATA_PROTECT, self.CONTENT, 8 * 64,
                                3) != master.block_mac(
            MacKind.DATA_PROTECT, self.CONTENT, 8 * 64, 3)
