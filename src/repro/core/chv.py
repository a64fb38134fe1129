"""Cache Hierarchy Vault (CHV) layout.

The CHV is a small reserved NVM region that receives the drained cache
hierarchy *sequentially*: encrypted data blocks, coalesced address blocks
(8 original addresses per 64 B block), and coalesced MAC blocks.  Because
placement is positional — block ``i`` of the episode goes to data slot ``i``
— a flushed block's drain-counter value is recoverable from its CHV position
alone, which is what removes every metadata fetch from the drain path.
"""

from collections.abc import Sequence
from dataclasses import dataclass

from repro.common.constants import (
    ADDRESSES_PER_BLOCK,
    CACHE_LINE_SIZE,
    CHV_CACHE_FACTOR_SLM,
    CHV_METADATA_FACTOR_SLM,
    MACS_PER_BLOCK,
)
from repro.common.config import SystemConfig
from repro.common.errors import AddressError
from repro.mem.regions import MemoryLayout, Region


@dataclass(frozen=True)
class ChvLayout:
    """Positional addressing inside the CHV region."""

    region: Region
    capacity: int
    """Maximum number of 64 B blocks one episode can vault."""

    @classmethod
    def for_layout(cls, layout: MemoryLayout) -> "ChvLayout":
        config = layout.config
        raw = (config.total_cache_lines
               + config.metadata_cache_size // CACHE_LINE_SIZE)
        # Whole DLM groups, matching the region sizing in MemoryLayout, so
        # a rotated vault base never splits a coalescing group.
        capacity = -(-raw // 64) * 64
        return cls(layout.chv, capacity)

    @property
    def _data_base(self) -> int:
        return self.region.base

    @property
    def _address_base(self) -> int:
        return self._data_base + self.capacity * CACHE_LINE_SIZE

    @property
    def _mac_base(self) -> int:
        blocks = -(-self.capacity // ADDRESSES_PER_BLOCK)
        return self._address_base + blocks * CACHE_LINE_SIZE

    def _check_position(self, position: int) -> None:
        if not 0 <= position < self.capacity:
            raise AddressError(
                f"CHV position {position} outside capacity {self.capacity}")

    def _check_group(self, group: int, per_block: int, label: str) -> None:
        """Bounds-check a coalescing-group index before forming an address.

        The final group may be partial (capacity not a multiple of
        ``per_block``); ``ceil`` keeps it addressable while anything past it
        raises :class:`AddressError` before any NVM access.
        """
        groups = -(-self.capacity // per_block)
        if not 0 <= group < groups:
            raise AddressError(
                f"CHV {label} block {group} outside the layout's "
                f"{groups} groups")

    def _block_addresses(self, base: int, groups: Sequence[int],
                         per_block: int, label: str) -> list[int]:
        """Addresses of a batch of coalesced blocks starting at ``base``.

        The bounds check is :meth:`_check_group`'s over the batch: one
        min/max comparison when every group is in range, else the first
        bad group's error before any address is formed.
        """
        if groups and not (0 <= min(groups)
                           and max(groups) < -(-self.capacity // per_block)):
            for group in groups:
                self._check_group(group, per_block, label)
        return [base + group * CACHE_LINE_SIZE for group in groups]

    def data_address(self, position: int) -> int:
        """NVM address of the ``position``-th vaulted data block."""
        self._check_position(position)
        return self._data_base + position * CACHE_LINE_SIZE

    def address_block_address(self, group: int) -> int:
        """NVM address of the address block covering positions 8g..8g+7."""
        self._check_group(group, ADDRESSES_PER_BLOCK, "address")
        return self._address_base + group * CACHE_LINE_SIZE

    def address_block_addresses(self, groups: Sequence[int]) -> list[int]:
        """:meth:`address_block_address` for a whole episode's groups."""
        return self._block_addresses(self._address_base, groups,
                                     ADDRESSES_PER_BLOCK, "address")

    def data_addresses(self, positions: Sequence[int]) -> list[int]:
        """NVM addresses for a whole episode's data slots in one pass.

        Equivalent to :meth:`data_address` per element; the bounds check
        runs over the batch's extremes first so the common case pays one
        comparison instead of one per block.
        """
        if positions and not (0 <= min(positions)
                              and max(positions) < self.capacity):
            for position in positions:
                self._check_position(position)
        base = self._data_base
        return [base + position * CACHE_LINE_SIZE for position in positions]

    def mac_block_address(self, group: int,
                          group_size: int = MACS_PER_BLOCK) -> int:
        """NVM address of MAC block ``group``.

        For Horus-SLM a MAC block covers 8 positions (``group_size=8``, the
        default); for Horus-DLM it covers 64 (8 second-level MACs of 8
        positions each, ``group_size=64``).  The group index is checked
        against the layout's group count for that size before any NVM
        access, exactly like :meth:`address_block_address`.
        """
        self._check_group(group, group_size, "MAC")
        return self._mac_base + group * CACHE_LINE_SIZE

    def mac_block_addresses(self, groups: Sequence[int],
                            group_size: int) -> list[int]:
        """:meth:`mac_block_address` for a whole episode's groups."""
        return self._block_addresses(self._mac_base, groups, group_size,
                                     "MAC")


@dataclass(frozen=True)
class VaultRotation:
    """Per-episode rotation of the vault base (wear-leveling extension).

    The paper fixes the CHV start address, so every drain episode rewrites
    the same NVM blocks; our wear ablation shows that makes the CHV the
    hottest region of the device.  Because a block's drain-counter value is
    already derived from registers (DC/eDC), the physical slot can rotate by
    any episode-constant amount that both drain and recovery can derive from
    DC at episode start — spreading wear across the whole vault with zero
    extra state.  The offset is group-aligned (a multiple of 64 positions)
    so address/MAC coalescing groups never straddle the wrap.
    """

    offset: int
    capacity: int

    @classmethod
    def for_episode(cls, chv: "ChvLayout", episode_start_dc: int,
                    enabled: bool,
                    group_align: int = 64) -> "VaultRotation":
        """Derive the episode's offset from the start-of-episode DC.

        The offset advances by whole coalescing groups per DC consumed
        (``offset = (DC mod groups) * group_align``) so that even small
        episodes land on fresh vault blocks, while staying aligned to the
        MAC-coalescing group (8 for SLM, 64 for DLM).
        """
        if not enabled:
            return cls(0, chv.capacity)
        groups = chv.capacity // group_align
        offset = (episode_start_dc % groups) * group_align
        return cls(offset, chv.capacity)

    def data_slot(self, position: int) -> int:
        return (position + self.offset) % self.capacity

    def data_slots(self, count: int) -> list[int]:
        """Slots for positions ``0..count-1`` (batched :meth:`data_slot`).

        With no rotation this is the identity — the batch path skips the
        per-position modulo entirely.
        """
        if not self.offset:
            return list(range(count))
        capacity = self.capacity
        offset = self.offset
        return [(position + offset) % capacity for position in range(count)]

    def address_group(self, group: int) -> int:
        groups = self.capacity // ADDRESSES_PER_BLOCK
        return (group + self.offset // ADDRESSES_PER_BLOCK) % groups

    def mac_group(self, group: int, group_size: int) -> int:
        groups = self.capacity // group_size
        return (group + self.offset // group_size) % groups

    def groups(self, count: int, per_block: int) -> list[int]:
        """Groups ``0..count-1`` of ``per_block`` positions each, rotated:
        batched :meth:`address_group` (``per_block=8``) and
        :meth:`mac_group`.  Without rotation or wrap-around this is the
        identity."""
        groups = self.capacity // per_block
        shift = self.offset // per_block
        if not shift and count <= groups:
            return list(range(count))
        return [(group + shift) % groups for group in range(count)]


def expected_chv_bytes(config: SystemConfig) -> float:
    """Section IV-D sizing: 1.25 x cache + 1.125 x metadata cache (SLM)."""
    return (CHV_CACHE_FACTOR_SLM * config.total_cache_size
            + CHV_METADATA_FACTOR_SLM * config.metadata_cache_size)


MAC_GROUP_SLM = MACS_PER_BLOCK
"""Positions per MAC block with single-level MACs (8)."""

MAC_GROUP_DLM = MACS_PER_BLOCK * MACS_PER_BLOCK
"""Positions per MAC block with double-level MACs (64)."""
