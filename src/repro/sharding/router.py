"""Per-DIMM address-range routing.

A sharded system is N identical DIMMs (each a full
:class:`~repro.core.system.SecureEpdSystem` under the same
:class:`~repro.common.config.SystemConfig`) concatenated into one aggregate
data space.  The router is the address decoder in front of the fleet: global
data address → (shard, shard-local address) and back.  Routing is total and
disjoint over ``[0, total_data_size)`` — every aligned address maps to
exactly one shard — which the property suite asserts directly.

Routing is pure arithmetic (no state), so a routed trace can be split into
per-shard parts whose replays are bit-equivalent to the sharded run: the
shard-vs-solo differential oracle in :mod:`tests.test_sharding_differential`
leans on exactly this.  :meth:`ShardRouter.split` only partitions: each part
holds the caller's own ops, still in global coordinates, and a replay issues
them at the shard's base offset (``replay(system, part, base=extent.base)``).
"""

from dataclasses import dataclass

from repro.common.config import SystemConfig
from repro.common.constants import CACHE_LINE_SIZE
from repro.common.errors import AddressError, ConfigError
from repro.common.gcpause import collector_paused
from repro.mem.regions import MemoryLayout
from repro.workloads.trace import MemoryOp

MAX_SHARDS = 1024
"""Routing sanity bound; real sweeps top out at 16 (one DIMM per channel)."""


@dataclass(frozen=True)
class ShardExtent:
    """One shard's slice of the aggregate data space (global coordinates)."""

    shard: int
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end


class ShardRouter:
    """Route the aggregate data space across ``num_shards`` equal DIMMs."""

    def __init__(self, config: SystemConfig, num_shards: int):
        if not 1 <= num_shards <= MAX_SHARDS:
            raise ConfigError(
                f"shard count must be in 1..{MAX_SHARDS}, got {num_shards}")
        self.config = config
        self.num_shards = num_shards
        self.shard_data_size = MemoryLayout(config).data.size
        if self.shard_data_size % CACHE_LINE_SIZE:
            raise ConfigError(
                f"shard data size {self.shard_data_size:#x} not line "
                f"aligned; local addresses would lose alignment")
        self.total_data_size = self.shard_data_size * num_shards
        self.extents = tuple(
            ShardExtent(shard, shard * self.shard_data_size,
                        self.shard_data_size)
            for shard in range(num_shards))

    # -- address mapping ----------------------------------------------------

    def require_global_address(self, address: int) -> int:
        """Validate a global data address (alignment is the shard's job)."""
        if not 0 <= address < self.total_data_size:
            raise AddressError(
                f"global address {address:#x} outside aggregate data space "
                f"[0, {self.total_data_size:#x})")
        return address

    def shard_of(self, address: int) -> int:
        """The unique shard owning a global data address."""
        self.require_global_address(address)
        return address // self.shard_data_size

    def route(self, address: int) -> tuple[int, int]:
        """Decode a global address to its (shard, local address) pair."""
        self.require_global_address(address)
        return divmod(address, self.shard_data_size)

    def to_local(self, address: int) -> int:
        """The shard-local form of a global address."""
        self.require_global_address(address)
        return address % self.shard_data_size

    def to_global(self, shard: int, local: int) -> int:
        """Encode a (shard, local address) pair back to global coordinates."""
        if not 0 <= shard < self.num_shards:
            raise AddressError(
                f"shard {shard} outside fleet of {self.num_shards}")
        if not 0 <= local < self.shard_data_size:
            raise AddressError(
                f"local address {local:#x} outside shard data space "
                f"[0, {self.shard_data_size:#x})")
        return shard * self.shard_data_size + local

    # -- trace routing ------------------------------------------------------

    @collector_paused()
    def split(self, trace: list[MemoryOp]) -> list[list[MemoryOp]]:
        """Partition a global trace into per-shard parts, in place.

        Each part holds the input ops themselves (no copies, addresses
        still global) in arrival order, and every op lands in exactly one
        part, so the parts' lengths sum to the trace's.  A replay of part
        ``s`` at ``base=self.extents[s].base`` issues the shard-local
        addresses.  Every op is checked against the aggregate range before
        it is routed.  The split runs paused like every bulk entry point;
        it allocates nothing per op beyond a list slot.
        """
        parts: list[list[MemoryOp]] = [[] for _ in range(self.num_shards)]
        appends = [part.append for part in parts]
        size = self.shard_data_size
        total = self.total_data_size
        for op in trace:
            address = op.address
            if not 0 <= address < total:
                self.require_global_address(address)
            appends[address // size](op)
        return parts
