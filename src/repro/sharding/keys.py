"""Per-tenant key domains on top of the engines' MAC-domain separation.

:class:`~repro.crypto.primitives.MacDomain` keeps a MAC from verifying
outside the *structural* role it was written for (data vs tree node vs CHV).
Multi-tenancy needs the orthogonal guarantee: tenant A's ciphertext and MACs
must never decrypt or verify under tenant B's keys, even at the same address
shape.  This module derives one (AES key, MAC key) pair per tenant from the
controller's master keys and swaps keyed engine subclasses into the
controller via the :class:`~repro.crypto.engine.KeySchedule` injection point.

Only the *data-path* operations are tenant-keyed (block encryption and the
per-block data/CHV MACs, which carry a data address).  Metadata — counters,
tree nodes, DLM second-level digests — stays under the controller's master
key: the integrity tree spans all tenants by construction, and its nodes
carry no tenant-addressable content.

The batched engine paths make one crypto call per key:
:meth:`TenantKeyring.key_groups` maps each tenant of a batch to its
positions, each key's blocks are gathered into one kernel call, and the
results are scattered back to batch order.  A single-key batch takes the
same path: batches rarely have one key (bench_e2e seed 87: none of
fleet-4's 16 tenant-keyed batches, 16 of runner-s64's 150, holding 790 of
its 11,536 blocks), so a pass-through for them would buy nothing.
"""

import hashlib
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

from repro.common.constants import CACHE_LINE_SIZE
from repro.common.errors import ConfigError
from repro.crypto import batch
from repro.crypto.engine import (
    DEFAULT_AES_KEY,
    DEFAULT_MAC_KEY,
    AesEngine,
    MacEngine,
    block_domain,
)
from repro.crypto.primitives import (
    MacDomain,
    compute_mac,
    decrypt_block,
    encrypt_block,
    int_field,
)
from repro.stats.counters import SimStats
from repro.stats.events import AesKind, MacKind

TENANT_KEY_SIZE = 32

MASTER_TENANT = -1
"""Pseudo tenant id for addresses no extent owns (master-keyed)."""


def derive_tenant_key(master: bytes, tenant_id: int,
                      label: bytes = b"tenant") -> bytes:
    """Derive one tenant's key from a master key (keyed BLAKE2b KDF).

    Deterministic in (master, tenant_id, label) only — a tenant keeps its
    key across shards, reshardings, and restarts — and one-way, so a
    captured tenant key reveals nothing about the master or its siblings.
    """
    if tenant_id < 0:
        raise ConfigError(f"tenant id must be non-negative, got {tenant_id}")
    digest = hashlib.blake2b(key=master, digest_size=TENANT_KEY_SIZE)
    digest.update(label)
    digest.update(int_field(tenant_id))
    return digest.digest()


@dataclass(frozen=True)
class TenantExtent:
    """One tenant's contiguous slice of a data space."""

    tenant_id: int
    base: int
    size: int

    def __post_init__(self) -> None:
        if self.tenant_id < 0:
            raise ConfigError(
                f"tenant id must be non-negative, got {self.tenant_id}")
        if self.base < 0 or self.base % CACHE_LINE_SIZE:
            raise ConfigError(
                f"tenant {self.tenant_id} base {self.base:#x} must be a "
                f"non-negative line multiple")
        if self.size <= 0 or self.size % CACHE_LINE_SIZE:
            raise ConfigError(
                f"tenant {self.tenant_id} size {self.size:#x} must be a "
                f"positive line multiple")

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end


class TenantKeyring:
    """Address → tenant → key resolution over disjoint tenant extents.

    Addresses outside every extent resolve to the master keys
    (:data:`MASTER_TENANT`), so a keyring is total over its data space and
    a ring with no extents degenerates to exactly the unkeyed engines.
    """

    def __init__(self, extents: Sequence[TenantExtent],
                 aes_master: bytes = DEFAULT_AES_KEY,
                 mac_master: bytes = DEFAULT_MAC_KEY):
        ordered = sorted(extents, key=lambda extent: extent.base)
        for earlier, later in zip(ordered, ordered[1:]):
            if earlier.end > later.base:
                raise ConfigError(
                    f"tenant extents overlap: tenant {earlier.tenant_id} "
                    f"[{earlier.base:#x}, {earlier.end:#x}) and tenant "
                    f"{later.tenant_id} [{later.base:#x}, {later.end:#x})")
        self.extents = tuple(ordered)
        self.aes_master = aes_master
        self.mac_master = mac_master
        self._bases = [extent.base for extent in ordered]
        self._aes_keys: dict[int, bytes] = {MASTER_TENANT: aes_master}
        self._mac_keys: dict[int, bytes] = {MASTER_TENANT: mac_master}

    def tenant_of(self, address: int) -> int:
        """The tenant owning ``address`` (:data:`MASTER_TENANT` if none)."""
        index = bisect_right(self._bases, address) - 1
        if index >= 0 and self.extents[index].contains(address):
            return self.extents[index].tenant_id
        return MASTER_TENANT

    def aes_key(self, tenant_id: int) -> bytes:
        key = self._aes_keys.get(tenant_id)
        if key is None:
            key = derive_tenant_key(self.aes_master, tenant_id)
            self._aes_keys[tenant_id] = key
        return key

    def mac_key(self, tenant_id: int) -> bytes:
        key = self._mac_keys.get(tenant_id)
        if key is None:
            key = derive_tenant_key(self.mac_master, tenant_id)
            self._mac_keys[tenant_id] = key
        return key

    def key_groups(self,
                   addresses: Sequence[int]) -> dict[int, list[int]]:
        """Map each tenant of a batch to the positions of its addresses.

        Tenants appear in first-seen order and each tenant's positions
        ascend.  The batched engine paths gather each key's blocks into
        one crypto call and scatter the results back to batch order, which
        is byte-identical to per-element keying because the primitives are
        per-block.
        """
        groups: dict[int, list[int]] = {}
        tenant_of = self.tenant_of
        for position, address in enumerate(addresses):
            groups.setdefault(tenant_of(address), []).append(position)
        return groups

    def shard_view(self, base: int, size: int) -> "TenantKeyring":
        """The keyring as one shard sees it: extents clipped to the shard's
        global window ``[base, base + size)`` and rebased to local
        coordinates.  Keys depend only on tenant ids, so a tenant spanning
        a shard boundary uses the same keys on both sides.
        """
        if base < 0 or size <= 0:
            raise ConfigError(
                f"shard window [{base:#x}, +{size:#x}) must be non-negative "
                f"and non-empty")
        clipped = []
        for extent in self.extents:
            lo = max(extent.base, base)
            hi = min(extent.end, base + size)
            if lo < hi:
                clipped.append(TenantExtent(extent.tenant_id, lo - base,
                                            hi - lo))
        return TenantKeyring(clipped, self.aes_master, self.mac_master)


class TenantKeyedAes(AesEngine):
    """Counter-mode engine resolving the AES key per data address.

    Accounting is identical to the base engine (same kinds, same counts);
    only the key under each block changes.  Addresses outside every tenant
    extent use the master key, so metadata-path users are unaffected.
    """

    def __init__(self, stats: SimStats, keyring: TenantKeyring) -> None:
        super().__init__(stats, key=keyring.aes_master)
        self.keyring = keyring

    def encrypt(self, address: int, counter: int,
                plaintext: bytes) -> bytes:
        """Encrypt one block under its owning tenant's key."""
        self._stats.record_aes(AesKind.ENCRYPT)
        key = self.keyring.aes_key(self.keyring.tenant_of(address))
        return encrypt_block(key, address, counter, plaintext)

    def decrypt(self, address: int, counter: int,
                ciphertext: bytes) -> bytes:
        """Decrypt one block under its owning tenant's key."""
        self._stats.record_aes(AesKind.DECRYPT)
        key = self.keyring.aes_key(self.keyring.tenant_of(address))
        return decrypt_block(key, address, counter, ciphertext)

    def _run_batch(self, kind: AesKind, addresses: Sequence[int],
                   counters: Sequence[int],
                   buffer: bytes | bytearray | memoryview) -> bytes:
        self._stats.record_aes(kind, len(addresses))
        keyring = self.keyring
        blocks = _split_batch(buffer, len(addresses))
        for tenant, positions in keyring.key_groups(addresses).items():
            sealed = batch.encrypt_blocks(
                keyring.aes_key(tenant),
                *_gather(positions, addresses, counters, blocks))
            for position, block in zip(positions,
                                       batch.split_blocks(sealed)):
                blocks[position] = block
        return b"".join(blocks)

    def encrypt_batch(self, addresses: Sequence[int],
                      counters: Sequence[int],
                      plaintext: bytes | bytearray | memoryview,
                      frames: batch.Frames = None) -> bytes:
        """Batched :meth:`encrypt`: one crypto batch per key.

        Each key's blocks are gathered, encrypted in one call, and the
        ciphertext scattered back to batch order.  ``frames`` is accepted
        for interface parity but recomputed per key (frames are a pure
        function of (address, counter), so the output is byte-identical
        either way).
        """
        return self._run_batch(AesKind.ENCRYPT, addresses, counters,
                               plaintext)

    def decrypt_batch(self, addresses: Sequence[int],
                      counters: Sequence[int],
                      ciphertext: bytes | bytearray | memoryview,
                      frames: batch.Frames = None) -> bytes:
        """Batched :meth:`decrypt` (counter mode: same op as encryption)."""
        return self._run_batch(AesKind.DECRYPT, addresses, counters,
                               ciphertext)


class TenantKeyedMac(MacEngine):
    """MAC engine resolving the *block* MAC key per data address.

    Only :meth:`block_mac` / :meth:`block_mac_batch` — the shapes that carry
    a data address — are tenant-keyed.  Node and digest MACs (tree slots,
    cache-tree levels, DLM second level) stay master-keyed: the integrity
    tree spans all tenants and its content is controller metadata.
    """

    def __init__(self, stats: SimStats, keyring: TenantKeyring) -> None:
        super().__init__(stats, key=keyring.mac_master)
        self.keyring = keyring

    def block_mac(self, kind: MacKind, ciphertext: bytes,
                  address: int, counter: int,
                  domain: MacDomain | None = None) -> bytes:
        """Per-block data/CHV MAC under the owning tenant's key."""
        self._stats.record_mac(kind)
        key = self.keyring.mac_key(self.keyring.tenant_of(address))
        return compute_mac(key, ciphertext, int_field(address),
                           int_field(counter, 16),
                           domain=block_domain(kind, domain))

    def block_mac_batch(self, kind: MacKind,
                        buffer: bytes | bytearray | memoryview,
                        addresses: Sequence[int], counters: Sequence[int],
                        domain: MacDomain | None = None,
                        frames: batch.Frames = None) -> list[bytes]:
        """Batched :meth:`block_mac`: one MAC batch per key (gathered and
        scattered like :meth:`TenantKeyedAes.encrypt_batch`)."""
        self._stats.record_mac(kind, len(addresses))
        resolved = block_domain(kind, domain)
        keyring = self.keyring
        blocks = _split_batch(buffer, len(addresses))
        macs = [b""] * len(addresses)
        for tenant, positions in keyring.key_groups(addresses).items():
            sub_addresses, sub_counters, sub_buffer = _gather(
                positions, addresses, counters, blocks)
            for position, mac in zip(positions, batch.compute_block_macs(
                    keyring.mac_key(tenant), sub_buffer, sub_addresses,
                    sub_counters, resolved)):
                macs[position] = mac
        return macs


def _split_batch(buffer: bytes | bytearray | memoryview,
                 count: int) -> list[bytes]:
    """A batch's blocks, one record per address."""
    if len(buffer) != CACHE_LINE_SIZE * count:
        raise ValueError(
            f"buffer must be {CACHE_LINE_SIZE} B per address, got "
            f"{len(buffer)} B for {count} addresses")
    return batch.split_blocks(buffer)


def _gather(positions: list[int], addresses: Sequence[int],
            counters: Sequence[int],
            blocks: list[bytes]) -> tuple[list[int], list[int], bytes]:
    """One key's (addresses, counters, contiguous blocks) out of a batch."""
    return ([addresses[i] for i in positions],
            [counters[i] for i in positions],
            b"".join([blocks[i] for i in positions]))


@dataclass(frozen=True)
class TenantKeySchedule:
    """The :class:`~repro.crypto.engine.KeySchedule` installing tenant keys.

    Picklable (the keyring holds only bytes and extents), so process-pool
    shard workers can rebuild identical engines from a shipped spec.
    """

    keyring: TenantKeyring

    def build(self, stats: SimStats) -> tuple[AesEngine, MacEngine]:
        """Return the tenant-keyed engine pair for one controller."""
        return (TenantKeyedAes(stats, self.keyring),
                TenantKeyedMac(stats, self.keyring))
