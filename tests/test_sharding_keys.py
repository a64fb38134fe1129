"""Per-tenant key domains: derivation, keyring resolution, keyed engines."""

import pytest

from repro.common.errors import ConfigError
from repro.crypto.engine import (
    DEFAULT_AES_KEY,
    DEFAULT_MAC_KEY,
    AesEngine,
    MacEngine,
)
from repro.sharding.keys import (
    MASTER_TENANT,
    TENANT_KEY_SIZE,
    TenantExtent,
    TenantKeyedAes,
    TenantKeyedMac,
    TenantKeyring,
    TenantKeySchedule,
    derive_tenant_key,
)
from repro.stats.counters import SimStats
from repro.stats.events import AesKind, MacKind

LINE = 64
BLOCK = bytes(range(256))[:64]


def ring(*extents):
    return TenantKeyring(extents)


def two_tenant_ring(size=4 * LINE):
    return ring(TenantExtent(0, 0, size),
                TenantExtent(1, 2 * size, size))


class TestKeyDerivation:
    def test_deterministic(self):
        assert derive_tenant_key(DEFAULT_AES_KEY, 7) == \
            derive_tenant_key(DEFAULT_AES_KEY, 7)

    def test_distinct_per_tenant_master_and_label(self):
        keys = {
            derive_tenant_key(DEFAULT_AES_KEY, 0),
            derive_tenant_key(DEFAULT_AES_KEY, 1),
            derive_tenant_key(DEFAULT_MAC_KEY, 0),
            derive_tenant_key(DEFAULT_AES_KEY, 0, label=b"other"),
        }
        assert len(keys) == 4
        assert all(len(key) == TENANT_KEY_SIZE for key in keys)

    def test_rejects_negative_tenant(self):
        with pytest.raises(ConfigError, match="non-negative"):
            derive_tenant_key(DEFAULT_AES_KEY, -1)


class TestTenantExtent:
    def test_rejects_misaligned_base_and_size(self):
        with pytest.raises(ConfigError, match="base"):
            TenantExtent(0, 32, LINE)
        with pytest.raises(ConfigError, match="size"):
            TenantExtent(0, 0, 96)
        with pytest.raises(ConfigError, match="size"):
            TenantExtent(0, 0, 0)


class TestTenantKeyring:
    def test_rejects_overlapping_extents(self):
        with pytest.raises(ConfigError, match="overlap"):
            ring(TenantExtent(0, 0, 2 * LINE),
                 TenantExtent(1, LINE, 2 * LINE))

    def test_tenant_of_resolves_inside_boundary_and_gap(self):
        keyring = two_tenant_ring()
        assert keyring.tenant_of(0) == 0
        assert keyring.tenant_of(4 * LINE - 1) == 0
        assert keyring.tenant_of(4 * LINE) == MASTER_TENANT
        assert keyring.tenant_of(8 * LINE) == 1
        assert keyring.tenant_of(12 * LINE) == MASTER_TENANT

    def test_keys_depend_only_on_tenant_id(self):
        """Same tenant id, different extent layouts -> same keys: tenants
        keep their keys across shards and reshardings."""
        one = ring(TenantExtent(3, 0, LINE))
        other = ring(TenantExtent(3, 8 * LINE, 4 * LINE))
        assert one.aes_key(3) == other.aes_key(3)
        assert one.mac_key(3) == other.mac_key(3)
        assert one.aes_key(MASTER_TENANT) == DEFAULT_AES_KEY
        assert one.mac_key(MASTER_TENANT) == DEFAULT_MAC_KEY

    def test_key_runs_group_maximal_spans(self):
        keyring = two_tenant_ring()
        addresses = [0, LINE, 8 * LINE, 9 * LINE, 0, 20 * LINE]
        assert list(keyring.key_runs(addresses)) == [
            (0, 2, 0), (2, 4, 1), (4, 5, 0), (5, 6, MASTER_TENANT)]

    def test_shard_view_clips_and_rebases(self):
        keyring = ring(TenantExtent(0, 0, 4 * LINE),
                       TenantExtent(1, 4 * LINE, 4 * LINE))
        view = keyring.shard_view(2 * LINE, 4 * LINE)
        assert [(e.tenant_id, e.base, e.size) for e in view.extents] == [
            (0, 0, 2 * LINE), (1, 2 * LINE, 2 * LINE)]
        # Clipped views still hand out the same tenant keys.
        assert view.aes_key(1) == keyring.aes_key(1)

    def test_shard_view_rejects_bad_window(self):
        with pytest.raises(ConfigError, match="shard window"):
            two_tenant_ring().shard_view(0, 0)

    def test_empty_keyring_is_all_master(self):
        keyring = ring()
        assert keyring.tenant_of(0) == MASTER_TENANT
        assert list(keyring.key_runs([0, LINE])) == [(0, 2, MASTER_TENANT)]


class TestTenantKeyedAes:
    def engines(self):
        keyring = two_tenant_ring()
        return (TenantKeyedAes(SimStats(), keyring),
                AesEngine(SimStats()), keyring)

    def test_tenant_ciphertext_differs_from_master(self):
        tenant_aes, master_aes, _ = self.engines()
        assert tenant_aes.encrypt(0, 1, BLOCK) != \
            master_aes.encrypt(0, 1, BLOCK)

    def test_unowned_addresses_use_master_key(self):
        tenant_aes, master_aes, keyring = self.engines()
        gap = 4 * LINE
        assert keyring.tenant_of(gap) == MASTER_TENANT
        assert tenant_aes.encrypt(gap, 1, BLOCK) == \
            master_aes.encrypt(gap, 1, BLOCK)

    def test_roundtrip_per_tenant(self):
        tenant_aes, _, _ = self.engines()
        for address in (0, 8 * LINE, 20 * LINE):
            ciphertext = tenant_aes.encrypt(address, 5, BLOCK)
            assert tenant_aes.decrypt(address, 5, ciphertext) == BLOCK

    def test_batch_matches_scalar_across_tenant_runs(self):
        tenant_aes, _, _ = self.engines()
        addresses = [0, LINE, 8 * LINE, 20 * LINE, 0]
        counters = [1, 2, 3, 4, 5]
        buffer = b"".join(BLOCK for _ in addresses)
        batched = tenant_aes.encrypt_batch(addresses, counters, buffer)
        scalar = b"".join(
            tenant_aes.encrypt(address, counter, BLOCK)
            for address, counter in zip(addresses, counters))
        assert batched == scalar
        assert tenant_aes.decrypt_batch(addresses, counters, batched) == \
            buffer

    def test_accounting_matches_base_engine(self):
        tenant_aes, _, _ = self.engines()
        tenant_aes.encrypt(0, 1, BLOCK)
        tenant_aes.encrypt_batch([0, 8 * LINE], [1, 2], BLOCK + BLOCK)
        assert tenant_aes._stats.aes[AesKind.ENCRYPT] == 3


class TestTenantKeyedMac:
    def engines(self):
        keyring = two_tenant_ring()
        return (TenantKeyedMac(SimStats(), keyring),
                MacEngine(SimStats()), keyring)

    def test_block_macs_separate_tenants(self):
        """The same (ciphertext, address shape, counter) MACs differently
        under different tenants' keys — the isolation the splice tests
        lean on."""
        tenant_mac, master_mac, _ = self.engines()
        a = tenant_mac.block_mac(MacKind.DATA_PROTECT, BLOCK, 0, 1)
        b = tenant_mac.block_mac(MacKind.DATA_PROTECT, BLOCK, 8 * LINE, 1)
        master = master_mac.block_mac(MacKind.DATA_PROTECT, BLOCK, 0, 1)
        assert a != master
        assert a != b

    def test_metadata_macs_stay_master_keyed(self):
        """Node and digest MACs are identical to the master engine's — the
        tree spans all tenants."""
        tenant_mac, master_mac, _ = self.engines()
        assert tenant_mac.node_mac(MacKind.TREE_UPDATE, BLOCK, 3 * LINE) == \
            master_mac.node_mac(MacKind.TREE_UPDATE, BLOCK, 3 * LINE)
        assert tenant_mac.digest_mac(MacKind.CHV_LEVEL2, BLOCK) == \
            master_mac.digest_mac(MacKind.CHV_LEVEL2, BLOCK)

    def test_block_mac_batch_matches_scalar(self):
        tenant_mac, _, _ = self.engines()
        addresses = [0, 8 * LINE, 9 * LINE, 0, 30 * LINE]
        counters = [1, 2, 3, 4, 5]
        buffer = b"".join(BLOCK for _ in addresses)
        batched = tenant_mac.block_mac_batch(
            MacKind.DATA_PROTECT, buffer, addresses, counters)
        scalar = [tenant_mac.block_mac(MacKind.DATA_PROTECT, BLOCK,
                                       address, counter)
                  for address, counter in zip(addresses, counters)]
        assert batched == scalar


class TestTenantKeySchedule:
    def test_build_returns_keyed_engines_on_shared_stats(self):
        stats = SimStats()
        schedule = TenantKeySchedule(two_tenant_ring())
        aes, mac = schedule.build(stats)
        assert isinstance(aes, TenantKeyedAes)
        assert isinstance(mac, TenantKeyedMac)
        aes.encrypt(0, 1, BLOCK)
        mac.block_mac(MacKind.DATA_PROTECT, BLOCK, 0, 1)
        assert stats.aes[AesKind.ENCRYPT] == 1
        assert stats.macs[MacKind.DATA_PROTECT] == 1

    def test_built_engines_compute_real_keyed_values(self):
        """The schedule's engines encrypt and MAC for real, under each
        tenant's own key: no pass-through, no placeholder MAC."""
        size = 4 * LINE
        aes, mac = TenantKeySchedule(two_tenant_ring(size)).build(SimStats())
        ciphertext = aes.encrypt(0, 1, BLOCK)
        assert ciphertext != BLOCK
        assert aes.decrypt(0, 1, ciphertext) == BLOCK
        tag = mac.block_mac(MacKind.DATA_PROTECT, BLOCK, 0, 1)
        assert tag != bytes(len(tag))
        # Tenant 1's tag is keyed apart from the master key's.
        assert mac.block_mac(MacKind.DATA_PROTECT, BLOCK, 2 * size, 1) != \
            MacEngine(SimStats()).block_mac(MacKind.DATA_PROTECT, BLOCK,
                                            2 * size, 1)
