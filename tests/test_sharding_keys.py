"""Per-tenant key domains: derivation, keyring resolution, keyed engines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.crypto import batch as crypto_batch
from repro.crypto.arena import frame_buffer
from repro.crypto.engine import (
    DEFAULT_AES_KEY,
    DEFAULT_MAC_KEY,
    AesEngine,
    MacEngine,
)
from repro.crypto.primitives import MacDomain
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
from tests.conftest import examples

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

    def test_key_groups_map_each_tenant_to_its_positions(self):
        """Interleaved tenants gather into one group per key, in
        first-seen order, each group's positions ascending."""
        keyring = two_tenant_ring()
        addresses = [0, LINE, 8 * LINE, 9 * LINE, 0, 20 * LINE, 8 * LINE]
        groups = keyring.key_groups(addresses)
        assert groups == {0: [0, 1, 4], 1: [2, 3, 6], MASTER_TENANT: [5]}
        assert list(groups) == [0, 1, MASTER_TENANT]
        assert keyring.key_groups([]) == {}

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
        assert keyring.key_groups([0, LINE]) == {MASTER_TENANT: [0, 1]}


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
        data = MacDomain.DATA
        a = tenant_mac.block_mac(MacKind.DATA_PROTECT, BLOCK, 0, 1,
                                 domain=data)
        b = tenant_mac.block_mac(MacKind.DATA_PROTECT, BLOCK, 8 * LINE, 1,
                                 domain=data)
        master = master_mac.block_mac(MacKind.DATA_PROTECT, BLOCK, 0, 1,
                                      domain=data)
        assert a != master
        assert a != b

    def test_metadata_macs_stay_master_keyed(self):
        """Tree-node and DLM second-level MACs are identical to the master
        engine's — the tree spans all tenants."""
        tenant_mac, master_mac, _ = self.engines()
        node = MacDomain.NODE
        assert tenant_mac.digest_mac(MacKind.TREE_UPDATE, BLOCK,
                                     domain=node) == \
            master_mac.digest_mac(MacKind.TREE_UPDATE, BLOCK, domain=node)
        level2 = MacDomain.CHV_LEVEL2
        assert tenant_mac.digest_mac(MacKind.CHV_LEVEL2, BLOCK,
                                     domain=level2) == \
            master_mac.digest_mac(MacKind.CHV_LEVEL2, BLOCK, domain=level2)

    def test_block_mac_batch_matches_scalar(self):
        tenant_mac, _, _ = self.engines()
        addresses = [0, 8 * LINE, 9 * LINE, 0, 30 * LINE]
        counters = [1, 2, 3, 4, 5]
        buffer = b"".join(BLOCK for _ in addresses)
        batched = tenant_mac.block_mac_batch(
            MacKind.DATA_PROTECT, buffer, addresses, counters,
            domain=MacDomain.DATA)
        scalar = [tenant_mac.block_mac(MacKind.DATA_PROTECT, BLOCK,
                                       address, counter,
                                       domain=MacDomain.DATA)
                  for address, counter in zip(addresses, counters)]
        assert batched == scalar


# Three tenants with gaps between them: an address pool over the whole
# window mixes tenant and master-keyed blocks.
MIXED_RING = ring(TenantExtent(0, 0, 4 * LINE),
                  TenantExtent(1, 8 * LINE, 4 * LINE),
                  TenantExtent(5, 16 * LINE, 2 * LINE))
POOLS = {
    "mixed": [i * LINE for i in range(20)],
    "one tenant": [8 * LINE, 9 * LINE, 11 * LINE],
    "master only": [4 * LINE, 13 * LINE, 19 * LINE],
}


@st.composite
def keyed_batches(draw, max_size=24):
    """(addresses, counters, blocks): interleaved tenant and master-keyed
    addresses with duplicates, distinct random payloads and counters (past
    2**64 too), from empty up to mixed batches whose per-key groups reach
    the arena's record lanes."""
    pool = POOLS[draw(st.sampled_from(sorted(POOLS)))]
    size = draw(st.integers(0, max_size))
    addresses = draw(st.lists(st.sampled_from(pool), min_size=size,
                              max_size=size))
    counters = draw(st.lists(st.integers(0, 2**70), min_size=size,
                             max_size=size))
    blocks = draw(st.lists(st.binary(min_size=LINE, max_size=LINE),
                           min_size=size, max_size=size, unique=True))
    return addresses, counters, blocks


class TestKeyGroupedBatches:
    """Tenant batches gather per key and scatter back: every element must
    land where per-element scalar keying puts it."""

    @given(addresses=st.lists(st.sampled_from(POOLS["mixed"]),
                              max_size=24))
    @settings(max_examples=examples(60))
    def test_key_groups_contract(self, addresses):
        """The groups partition the batch's positions, each ascending,
        each under its address's tenant, keys in first-seen order."""
        groups = MIXED_RING.key_groups(addresses)
        positions = sorted(p for group in groups.values() for p in group)
        assert positions == list(range(len(addresses)))
        for tenant, group in groups.items():
            assert group == sorted(group)
            assert all(MIXED_RING.tenant_of(addresses[p]) == tenant
                       for p in group)
        first_seen = list(dict.fromkeys(map(MIXED_RING.tenant_of,
                                            addresses)))
        assert list(groups) == first_seen

    @given(batch=keyed_batches(), share_frames=st.booleans())
    @settings(max_examples=examples(60), deadline=None)
    def test_aes_batches_match_scalar(self, batch, share_frames):
        addresses, counters, blocks = batch
        frames = frame_buffer(addresses, counters) if share_frames else None
        scalar_stats, batch_stats = SimStats(), SimStats()
        scalar = TenantKeyedAes(scalar_stats, MIXED_RING)
        batched = TenantKeyedAes(batch_stats, MIXED_RING)
        sealed = [scalar.encrypt(a, c, b)
                  for a, c, b in zip(addresses, counters, blocks)]
        assert batched.encrypt_batch(addresses, counters, b"".join(blocks),
                                     frames) == b"".join(sealed)
        opened = [scalar.decrypt(a, c, b)
                  for a, c, b in zip(addresses, counters, blocks)]
        assert batched.decrypt_batch(addresses, counters, b"".join(blocks),
                                     frames) == b"".join(opened)
        assert batch_stats.snapshot() == scalar_stats.snapshot()

    @given(batch=keyed_batches(), share_frames=st.booleans(),
           kind=st.sampled_from([MacKind.DATA_PROTECT, MacKind.CHV_DATA]),
           domain=st.sampled_from([MacDomain.DATA, MacDomain.CHV_DATA]))
    @settings(max_examples=examples(60), deadline=None)
    def test_block_mac_batches_match_scalar(self, batch, share_frames,
                                            kind, domain):
        addresses, counters, blocks = batch
        frames = frame_buffer(addresses, counters) if share_frames else None
        scalar_stats, batch_stats = SimStats(), SimStats()
        scalar = TenantKeyedMac(scalar_stats, MIXED_RING)
        batched = TenantKeyedMac(batch_stats, MIXED_RING)
        expected = [scalar.block_mac(kind, b, a, c, domain=domain)
                    for a, c, b in zip(addresses, counters, blocks)]
        assert batched.block_mac_batch(kind, b"".join(blocks), addresses,
                                       counters, domain=domain,
                                       frames=frames) == expected
        assert batch_stats.snapshot() == scalar_stats.snapshot()

    def test_one_kernel_call_per_key(self, monkeypatch):
        """Seven blocks in seven same-key runs over two tenants and the
        master key make three kernel calls per engine: one per key."""
        calls = []
        for name in ("encrypt_blocks", "compute_block_macs"):
            real = getattr(crypto_batch, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(crypto_batch, name, counted)
        addresses = [0, 8 * LINE, 4 * LINE, LINE, 9 * LINE, 5 * LINE, 0]
        buffer = b"".join(bytes([i]) * LINE for i in range(7))
        counters = list(range(7))
        TenantKeyedAes(SimStats(), MIXED_RING).encrypt_batch(
            addresses, counters, buffer)
        TenantKeyedMac(SimStats(), MIXED_RING).block_mac_batch(
            MacKind.DATA_PROTECT, buffer, addresses, counters,
            domain=MacDomain.DATA)
        assert calls == ["encrypt_blocks"] * 3 + ["compute_block_macs"] * 3

    @pytest.mark.parametrize("addresses", [[0, 8 * LINE], [0, LINE]],
                             ids=["mixed", "one key"])
    def test_batch_rejects_a_short_buffer(self, addresses):
        with pytest.raises(ValueError, match="per address"):
            TenantKeyedAes(SimStats(), MIXED_RING).encrypt_batch(
                addresses, [1, 2], bytes(LINE))
        with pytest.raises(ValueError, match="per address"):
            TenantKeyedMac(SimStats(), MIXED_RING).block_mac_batch(
                MacKind.DATA_PROTECT, bytes(LINE), addresses, [1, 2],
                domain=MacDomain.DATA)


class TestTenantKeySchedule:
    def test_build_returns_keyed_engines_on_shared_stats(self):
        stats = SimStats()
        schedule = TenantKeySchedule(two_tenant_ring())
        aes, mac = schedule.build(stats)
        assert isinstance(aes, TenantKeyedAes)
        assert isinstance(mac, TenantKeyedMac)
        aes.encrypt(0, 1, BLOCK)
        mac.block_mac(MacKind.DATA_PROTECT, BLOCK, 0, 1,
                      domain=MacDomain.DATA)
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
        data = MacDomain.DATA
        tag = mac.block_mac(MacKind.DATA_PROTECT, BLOCK, 0, 1, domain=data)
        assert tag != bytes(len(tag))
        # Tenant 1's tag is keyed apart from the master key's.
        assert mac.block_mac(MacKind.DATA_PROTECT, BLOCK, 2 * size, 1,
                             domain=data) != \
            MacEngine(SimStats()).block_mac(MacKind.DATA_PROTECT, BLOCK,
                                            2 * size, 1, domain=data)
