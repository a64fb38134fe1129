"""Physical address-space layout.

The protected data region occupies ``[0, memory_size)``.  Security metadata —
encryption counter blocks, data MAC blocks, and Bonsai Merkle Tree nodes —
plus the Horus Cache Hierarchy Vault (CHV) and the metadata-cache shadow
region live in a carved-out area laid out above the data region, mirroring how
real secure-memory controllers reserve part of the DIMM for metadata.

All mapping functions are pure arithmetic so tests can verify that regions
never overlap and that every metadata address is stable.
"""

from bisect import bisect_right
from dataclasses import dataclass

from repro.common.address import require_block_aligned
from repro.common.constants import (
    CACHE_LINE_SIZE,
    COUNTER_BLOCK_COVERAGE,
    MACS_PER_BLOCK,
    MERKLE_TREE_ARITY,
)
from repro.common.config import SystemConfig
from repro.common.errors import AddressError, ConfigError


@dataclass(frozen=True)
class Region:
    """A contiguous, block-aligned physical region."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    def block_at(self, index: int) -> int:
        """Address of the ``index``-th 64 B block in this region."""
        address = self.base + index * CACHE_LINE_SIZE
        if not self.contains(address):
            raise AddressError(
                f"block {index} outside region {self.name} "
                f"[{self.base:#x}, {self.end:#x})")
        return address


def tree_level_sizes(num_leaves: int, arity: int = MERKLE_TREE_ARITY) -> list[int]:
    """Node counts per tree level, bottom-up, ending at a single root.

    ``num_leaves`` are the blocks covered by the lowest node level (for the
    main BMT: counter blocks).  The returned list excludes the leaves
    themselves and includes the root.
    """
    if num_leaves <= 0:
        raise ConfigError(f"tree needs at least one leaf, got {num_leaves}")
    sizes = []
    level = num_leaves
    while level > 1:
        level = -(-level // arity)
        sizes.append(level)
    if not sizes:
        sizes.append(1)
    return sizes


class MemoryLayout:
    """Computes and owns the full physical layout for a configuration."""

    def __init__(self, config: SystemConfig):
        self._config = config
        data_size = config.memory.size
        arity = config.security.tree_arity

        self.num_counter_blocks = data_size // COUNTER_BLOCK_COVERAGE
        counter_size = self.num_counter_blocks * CACHE_LINE_SIZE
        mac_size = data_size // MACS_PER_BLOCK

        self.tree_levels = tree_level_sizes(self.num_counter_blocks, arity)
        self.num_tree_levels = len(self.tree_levels)
        """Node levels above the counter blocks, including the root level."""
        tree_size = sum(self.tree_levels) * CACHE_LINE_SIZE

        # CHV holds every flushed line plus 1/8 address blocks and up to 1/8
        # MAC blocks, plus the protected metadata-cache dump (Section IV-D).
        # Capacity is rounded up to a whole DLM group (64 positions) so the
        # rotating-vault extension keeps coalescing groups aligned.
        flush_capacity = -(-(config.total_cache_lines
                             + _metadata_lines(config)) // 64) * 64
        chv_size = _round_lines(flush_capacity * (CACHE_LINE_SIZE + 8 + 8))

        shadow_size = _round_lines(int(config.metadata_cache_size * 1.125))

        cursor = data_size
        self.data = Region("data", 0, data_size)
        self.counters = Region("counters", cursor, counter_size)
        cursor += counter_size
        self.macs = Region("macs", cursor, mac_size)
        cursor += mac_size
        self.tree = Region("tree", cursor, tree_size)
        cursor += tree_size
        self.chv = Region("chv", cursor, chv_size)
        cursor += chv_size
        self.shadow = Region("shadow", cursor, shadow_size)
        cursor += shadow_size
        self.total_size = cursor

        self._tree_level_bases = []
        base = self.tree.base
        for count in self.tree_levels:
            self._tree_level_bases.append(base)
            base += count * CACHE_LINE_SIZE

        # Flat bounds for the hot mapping paths: the data <-> metadata
        # mappings run once per memory-side op at run time and once per
        # flushed line during drains, so they avoid the Region property
        # chases and re-derive the same arithmetic against plain ints.
        self._data_size = data_size
        self._counters_base = self.counters.base
        self._counters_end = self.counters.end
        self._macs_base = self.macs.base
        self._macs_end = self.macs.end
        self._tree_arity = arity
        self._region_bases = [region.base for region in self.regions]
        self._region_names = [region.name for region in self.regions]

    @property
    def config(self) -> SystemConfig:
        return self._config

    @property
    def regions(self) -> tuple[Region, ...]:
        return (self.data, self.counters, self.macs, self.tree,
                self.chv, self.shadow)

    # -- data <-> metadata mappings -------------------------------------------

    def require_data_address(self, address: int) -> int:
        if address % CACHE_LINE_SIZE or not 0 <= address < self._data_size:
            # Slow path purely for the precise error.
            require_block_aligned(address)
            raise AddressError(f"{address:#x} is not a data address")
        return address

    def counter_block_address(self, data_address: int) -> int:
        """Counter block protecting the 4 KiB page containing ``data_address``."""
        if data_address % CACHE_LINE_SIZE \
                or not 0 <= data_address < self._data_size:
            self.require_data_address(data_address)
        address = (self._counters_base
                   + (data_address // COUNTER_BLOCK_COVERAGE)
                   * CACHE_LINE_SIZE)
        if address >= self._counters_end:
            # A data tail not covered by a whole counter block: delegate for
            # the exact out-of-region error.
            return self.counters.block_at(
                data_address // COUNTER_BLOCK_COVERAGE)
        return address

    def counter_slot(self, data_address: int) -> int:
        """Minor-counter index of ``data_address`` within its counter block."""
        self.require_data_address(data_address)
        return (data_address % COUNTER_BLOCK_COVERAGE) // CACHE_LINE_SIZE

    def mac_block_address(self, data_address: int) -> int:
        """MAC block holding the 8 B MAC of the data block at ``data_address``."""
        if data_address % CACHE_LINE_SIZE \
                or not 0 <= data_address < self._data_size:
            self.require_data_address(data_address)
        address = (self._macs_base
                   + (data_address // (CACHE_LINE_SIZE * MACS_PER_BLOCK))
                   * CACHE_LINE_SIZE)
        if address >= self._macs_end:
            return self.macs.block_at(
                data_address // (CACHE_LINE_SIZE * MACS_PER_BLOCK))
        return address

    def mac_slot(self, data_address: int) -> int:
        """Slot (0..7) of this data block's MAC within its MAC block."""
        self.require_data_address(data_address)
        return (data_address // CACHE_LINE_SIZE) % MACS_PER_BLOCK

    # -- tree node addressing ---------------------------------------------------

    def counter_block_index(self, counter_address: int) -> int:
        if not self.counters.contains(counter_address):
            raise AddressError(f"{counter_address:#x} is not a counter address")
        return (counter_address - self.counters.base) // CACHE_LINE_SIZE

    def tree_node_address(self, level: int, index: int) -> int:
        """Address of tree node ``index`` at node ``level`` (1 = just above
        the counter blocks, ``num_tree_levels`` = root level)."""
        if not 1 <= level <= self.num_tree_levels:
            raise AddressError(
                f"tree level {level} outside 1..{self.num_tree_levels}")
        count = self.tree_levels[level - 1]
        if not 0 <= index < count:
            raise AddressError(
                f"tree node {index} outside level {level} (has {count})")
        return self._tree_level_bases[level - 1] + index * CACHE_LINE_SIZE

    def parent_of_counter_block(self, counter_address: int) -> tuple[int, int, int]:
        """(level, index, slot) of the level-1 tree slot covering a counter block."""
        arity = self._config.security.tree_arity
        cb = self.counter_block_index(counter_address)
        return 1, cb // arity, cb % arity

    def parent_of_tree_node(self, level: int, index: int) -> tuple[int, int, int]:
        """(level, index, slot) of the parent slot of tree node (level, index)."""
        arity = self._config.security.tree_arity
        if level >= self.num_tree_levels:
            raise AddressError("the root has no parent")
        return level + 1, index // arity, index % arity

    def tree_node_coords(self, address: int) -> tuple[int, int]:
        """Inverse of :meth:`tree_node_address`: (level, index) of a node."""
        if not self.tree.contains(address):
            raise AddressError(f"{address:#x} is not a tree-node address")
        level = bisect_right(self._tree_level_bases, address)
        return level, ((address - self._tree_level_bases[level - 1])
                       // CACHE_LINE_SIZE)

    def classify(self, address: int) -> str:
        """Region name containing ``address``.

        The regions sit back to back from address 0, so the last region
        base at or below ``address`` names its region; an empty region
        shares its base with the next one and is never picked.
        """
        if not 0 <= address < self.total_size:
            raise AddressError(f"{address:#x} outside all regions")
        return self._region_names[
            bisect_right(self._region_bases, address) - 1]


def _round_lines(size: int) -> int:
    return -(-size // CACHE_LINE_SIZE) * CACHE_LINE_SIZE


def _metadata_lines(config: SystemConfig) -> int:
    return config.metadata_cache_size // CACHE_LINE_SIZE
