"""Per-DIMM address-range routing.

A sharded system is N identical DIMMs (each a full
:class:`~repro.core.system.SecureEpdSystem` under the same
:class:`~repro.common.config.SystemConfig`) concatenated into one aggregate
data space.  The router is the address decoder in front of the fleet: global
data address → (shard, shard-local address) and back.  Routing is total and
disjoint over ``[0, total_data_size)`` — every aligned address maps to
exactly one shard — which the property suite asserts directly.

Routing is pure arithmetic (no state), so a routed trace can be split into
per-shard sub-traces whose replays are bit-equivalent to the sharded run:
the shard-vs-solo differential oracle in :mod:`tests.test_sharding_differential`
leans on exactly this.
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
        """Route a global trace into per-shard local sub-traces.

        Per-shard op order matches arrival order (the routed twin of the
        global trace), and every op lands in exactly one sub-trace — so the
        concatenated result is a permutation of the input that only reorders
        across shards, never within one.  The collector is paused because
        a 200k-op split allocates as many ops, and the full collections
        they triggered, not this loop, were most of the routed path's
        overhead.
        """
        parts: list[list[MemoryOp]] = [[] for _ in range(self.num_shards)]
        size = self.shard_data_size
        total = self.total_data_size
        # Rebasing preserves the source op's validated invariants (the
        # shard base is line aligned, checked at construction), so the
        # rebased ops bypass __post_init__ and the frozen __setattr__ by
        # writing the slots directly; shard 0's base is zero, so its ops
        # alias the (frozen) originals.
        make = MemoryOp.__new__
        slots = vars(MemoryOp)
        set_kind = slots["kind"].__set__
        set_address = slots["address"].__set__
        set_data = slots["data"].__set__
        for op in trace:
            address = op.address
            if not 0 <= address < total:
                self.require_global_address(address)
            shard, local = divmod(address, size)
            if shard:
                rebased = make(MemoryOp)
                set_kind(rebased, op.kind)
                set_address(rebased, local)
                set_data(rebased, op.data)
                parts[shard].append(rebased)
            else:
                parts[0].append(op)
        return parts
