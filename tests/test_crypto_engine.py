"""Timed crypto engines: accounting and functional behaviour."""

import pytest

from repro.crypto.engine import AesEngine, MacEngine
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



class TestMacEngine:
    def test_block_mac_accounted_under_kind(self):
        stats = SimStats()
        engine = MacEngine(stats)
        engine.block_mac(MacKind.CHV_DATA, bytes(64), 0, 1,
                         domain=MacDomain.CHV_DATA)
        engine.block_mac(MacKind.VERIFY, bytes(64), 0, 1,
                         domain=MacDomain.DATA)
        assert stats.macs[MacKind.CHV_DATA] == 1
        assert stats.macs[MacKind.VERIFY] == 1

    def test_block_mac_binds_address_and_counter(self):
        engine = MacEngine(SimStats())
        chv = MacDomain.CHV_DATA
        base = engine.block_mac(MacKind.CHV_DATA, bytes(64), 0, 1,
                                domain=chv)
        assert engine.block_mac(MacKind.CHV_DATA, bytes(64), 64, 1,
                                domain=chv) != base
        assert engine.block_mac(MacKind.CHV_DATA, bytes(64), 0, 2,
                                domain=chv) != base

    def test_domains_separate_equal_inputs(self):
        """A CHV MAC and a run-time data MAC over the same inputs must be
        different values, or one domain's MACs could be spliced into the
        other's and still verify."""
        engine = MacEngine(SimStats())
        runtime = engine.block_mac(MacKind.DATA_PROTECT, bytes(64), 0, 1,
                                   domain=MacDomain.DATA)
        chv = engine.block_mac(MacKind.CHV_DATA, bytes(64), 0, 1,
                               domain=MacDomain.CHV_DATA)
        assert runtime != chv

    def test_verify_kind_recomputes_per_domain(self):
        """The accounting kind stays bookkeeping: recovery recomputes drain's
        CHV_DATA MACs as VERIFY in the CHV domain, and run-time reads
        recompute DATA_PROTECT MACs as VERIFY in the data domain."""
        engine = MacEngine(SimStats())
        for domain, compute in ((MacDomain.CHV_DATA, MacKind.CHV_DATA),
                                (MacDomain.DATA, MacKind.DATA_PROTECT)):
            assert engine.block_mac(compute, bytes(64), 0, 1,
                                    domain=domain) == \
                engine.block_mac(MacKind.VERIFY, bytes(64), 0, 1,
                                 domain=domain)
        for domain, compute in ((MacDomain.CHV_LEVEL2, MacKind.CHV_LEVEL2),
                                (MacDomain.NODE, MacKind.TREE_UPDATE)):
            assert engine.digest_mac(compute, bytes(64), domain=domain) == \
                engine.digest_mac(MacKind.VERIFY, bytes(64), domain=domain)

    def test_node_and_digest_macs_differ_in_binding(self):
        engine = MacEngine(SimStats())
        content = bytes(64)
        assert engine.node_mac(MacKind.VERIFY, content, 0) != \
            engine.digest_mac(MacKind.VERIFY, content,
                              domain=MacDomain.NODE)



class TestKeyedForks:
    """The engines fork one keyed state per domain instead of re-keying per
    call; every fork must equal the ``compute_mac`` specification."""

    CONTENT = bytes(range(64))
    KEY = b"fork-test-mac-key"

    @pytest.mark.parametrize("kind", list(MacKind), ids=lambda k: k.name)
    @pytest.mark.parametrize("domain", list(MacDomain), ids=lambda d: d.name)
    def test_forks_equal_compute_mac(self, kind, domain):
        engine = MacEngine(SimStats(), key=self.KEY)
        assert engine.block_mac(kind, self.CONTENT, 4096, 77,
                                domain=domain) == compute_mac(
            self.KEY, self.CONTENT, int_field(4096), int_field(77, 16),
            domain=domain)
        assert engine.digest_mac(kind, self.CONTENT, domain=domain) == \
            compute_mac(self.KEY, self.CONTENT, domain=domain)
        assert engine.node_mac(kind, self.CONTENT, 4096) == compute_mac(
            self.KEY, self.CONTENT, int_field(4096), domain=MacDomain.NODE)

    def test_forks_do_not_leak_state_between_calls(self):
        engine = MacEngine(SimStats(), key=self.KEY)
        node = MacDomain.NODE
        first = engine.digest_mac(MacKind.VERIFY, self.CONTENT, domain=node)
        engine.digest_mac(MacKind.VERIFY, bytes(64), domain=node)
        assert engine.digest_mac(MacKind.VERIFY, self.CONTENT,
                                 domain=node) == first

    def test_tenant_engine_keeps_master_keyed_digest_and_node_macs(self):
        keyring = TenantKeyring((TenantExtent(0, 0, 4 * 64),
                                 TenantExtent(1, 8 * 64, 4 * 64)),
                                mac_master=self.KEY)
        tenant = TenantKeyedMac(SimStats(), keyring)
        master = MacEngine(SimStats(), key=self.KEY)
        for kind in MacKind:
            assert tenant.digest_mac(kind, self.CONTENT,
                                     domain=MacDomain.NODE) == \
                master.digest_mac(kind, self.CONTENT, domain=MacDomain.NODE)
            assert tenant.node_mac(kind, self.CONTENT, 8 * 64) == \
                master.node_mac(kind, self.CONTENT, 8 * 64)
        # Block MACs stay per-tenant: tenant 1's differs from the master's.
        assert tenant.block_mac(MacKind.DATA_PROTECT, self.CONTENT, 8 * 64,
                                3, domain=MacDomain.DATA) != master.block_mac(
            MacKind.DATA_PROTECT, self.CONTENT, 8 * 64, 3,
            domain=MacDomain.DATA)


class TestDomainIsRequired:
    """``domain`` is a required keyword of every MAC entry point: a call
    that leaves it out or passes it positionally fails before anything is
    MAC'd or counted, instead of falling back to a default domain."""

    ENGINES = {
        "master": MacEngine,
        "tenant": lambda stats: TenantKeyedMac(stats, TenantKeyring(
            (TenantExtent(0, 0, 4 * 64),), mac_master=b"required-key")),
    }
    CALLS = {
        "block_mac": lambda mac, *extra, **domain: mac.block_mac(
            MacKind.VERIFY, bytes(64), 0, 1, *extra, **domain),
        "digest_mac": lambda mac, *extra, **domain: mac.digest_mac(
            MacKind.VERIFY, bytes(64), *extra, **domain),
        "block_mac_batch": lambda mac, *extra, **domain: mac.block_mac_batch(
            MacKind.VERIFY, bytes(64), [0], [1], *extra, **domain),
        "digest_mac_batch": lambda mac, *extra, **domain:
            mac.digest_mac_batch(MacKind.VERIFY, [bytes(64)], *extra,
                                 **domain),
    }

    @pytest.mark.parametrize("call", list(CALLS))
    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_engine_call_needs_a_domain_keyword(self, engine, call):
        stats = SimStats()
        mac = self.ENGINES[engine](stats)
        with pytest.raises(TypeError, match="domain"):
            self.CALLS[call](mac)
        with pytest.raises(TypeError):
            self.CALLS[call](mac, MacDomain.DATA)
        assert stats.total_macs == 0
        assert self.CALLS[call](mac, domain=MacDomain.DATA)
        assert stats.total_macs == 1

    def test_compute_mac_needs_a_domain_keyword(self):
        with pytest.raises(TypeError, match="domain"):
            compute_mac(b"required-key", bytes(64))
        assert compute_mac(b"required-key", bytes(64),
                           domain=MacDomain.NODE) != compute_mac(
            b"required-key", bytes(64), domain=MacDomain.DATA)
