"""Encryption counters: split counter blocks and the Horus drain counter.

Split counters (Section II-B): one 64 B counter block carries a 64-bit major
counter shared by 64 lines plus a 7-bit minor counter per line; a line's
encryption counter is the concatenation ``major || minor``.  Minor overflow
bumps the major and forces re-encryption of the whole 4 KiB page.

The drain counter (Section IV-C): a persistent, strictly monotonic on-chip
counter ``DC`` incremented per flushed block, plus the ephemeral drain counter
``eDC`` counting blocks drained in the current episode.  Together they let
recovery re-derive the counter value used for any CHV position without
persisting per-block counters.
"""

from dataclasses import dataclass, field

from repro.common.constants import (
    CACHE_LINE_SIZE,
    MAJOR_COUNTER_BITS,
    MINOR_COUNTER_BITS,
    MINOR_COUNTERS_PER_BLOCK,
)
from repro.common.errors import CounterOverflowError

_MINOR_LIMIT = 1 << MINOR_COUNTER_BITS
_MAJOR_LIMIT = 1 << MAJOR_COUNTER_BITS

# The chunked wire codec assumes the paper's exact split-counter geometry
# (64 x 7-bit minors -> eight 7-byte groups); any other geometry falls back
# to the generic shift loop.
_CHUNKED_WIRE = MINOR_COUNTER_BITS == 7 and MINOR_COUNTERS_PER_BLOCK == 64 \
    and CACHE_LINE_SIZE == 64


@dataclass
class SplitCounterBlock:
    """A 64 B split-counter block: 1 major + 64 minor counters."""

    major: int = 0
    minors: list[int] = field(
        default_factory=lambda: [0] * MINOR_COUNTERS_PER_BLOCK)

    def __post_init__(self) -> None:
        if not 0 <= self.major < _MAJOR_LIMIT:
            raise CounterOverflowError(f"major counter {self.major} out of range")
        if len(self.minors) != MINOR_COUNTERS_PER_BLOCK:
            raise ValueError(
                f"need exactly {MINOR_COUNTERS_PER_BLOCK} minor counters")
        for minor in self.minors:
            if not 0 <= minor < _MINOR_LIMIT:
                raise CounterOverflowError(f"minor counter {minor} out of range")

    def counter_for(self, slot: int) -> int:
        """Full encryption counter of line ``slot``: ``major || minor``."""
        return (self.major << MINOR_COUNTER_BITS) | self.minors[slot]

    def will_overflow(self, slot: int) -> bool:
        """True when the next :meth:`increment` of ``slot`` wraps the minor."""
        return self.minors[slot] + 1 >= _MINOR_LIMIT

    def increment(self, slot: int) -> bool:
        """Advance the counter of line ``slot`` before a write.

        Returns True when the minor overflowed: the major was incremented,
        all minors reset, and the caller must re-encrypt the whole page
        (the split-counter contract).
        """
        minor = self.minors[slot] + 1
        if minor < _MINOR_LIMIT:
            self.minors[slot] = minor
            return False
        if self.major + 1 >= _MAJOR_LIMIT:
            raise CounterOverflowError("major counter exhausted")
        self.major += 1
        self.minors = [0] * MINOR_COUNTERS_PER_BLOCK
        return True

    # -- 64 B wire format -----------------------------------------------------
    # 8 bytes of major counter followed by 64 x 7-bit minors packed into the
    # remaining 56 bytes (the scheme's arithmetic is exactly why a counter
    # block covers 4 KiB with zero padding).

    def to_bytes(self) -> bytes:
        if _CHUNKED_WIRE:
            # 8 minors = 56 bits = 7 bytes: packing per chunk keeps the
            # intermediate ints machine-sized instead of accumulating one
            # 448-bit integer (this serializes every counter writeback).
            out = bytearray(self.major.to_bytes(8, "little"))
            m = self.minors
            for i in range(0, MINOR_COUNTERS_PER_BLOCK, 8):
                chunk = (m[i] | m[i + 1] << 7 | m[i + 2] << 14
                         | m[i + 3] << 21 | m[i + 4] << 28 | m[i + 5] << 35
                         | m[i + 6] << 42 | m[i + 7] << 49)
                out += chunk.to_bytes(7, "little")
            return bytes(out)
        packed = 0
        for i, minor in enumerate(self.minors):
            packed |= minor << (i * MINOR_COUNTER_BITS)
        return (self.major.to_bytes(8, "little")
                + packed.to_bytes(CACHE_LINE_SIZE - 8, "little"))

    @classmethod
    def from_bytes(cls, data: bytes) -> "SplitCounterBlock":
        if len(data) != CACHE_LINE_SIZE:
            raise ValueError(f"counter block must be {CACHE_LINE_SIZE} B")
        major = int.from_bytes(data[:8], "little")
        if major >= _MAJOR_LIMIT:
            raise CounterOverflowError(
                f"major counter {major} out of range")
        mask = _MINOR_LIMIT - 1
        # Masked parsing cannot produce an out-of-range minor, so skip the
        # dataclass validation pass — this runs once per counter-block fetch.
        block = cls.__new__(cls)
        block.major = major
        if _CHUNKED_WIRE:
            minors: list[int] = []
            extend = minors.extend
            for base in range(8, CACHE_LINE_SIZE, 7):
                chunk = int.from_bytes(data[base:base + 7], "little")
                extend((chunk & 127, (chunk >> 7) & 127, (chunk >> 14) & 127,
                        (chunk >> 21) & 127, (chunk >> 28) & 127,
                        (chunk >> 35) & 127, (chunk >> 42) & 127,
                        chunk >> 49))
            block.minors = minors
        else:
            packed = int.from_bytes(data[8:], "little")
            block.minors = [(packed >> (i * MINOR_COUNTER_BITS)) & mask
                            for i in range(MINOR_COUNTERS_PER_BLOCK)]
        return block

    def copy(self) -> "SplitCounterBlock":
        return SplitCounterBlock(self.major, list(self.minors))


class DrainCounter:
    """The Horus DC/eDC register pair (both in the persistent TCB).

    ``DC`` never repeats across the lifetime of the system — that property is
    what makes CHV pads unique without any persisted per-block counters.
    """

    def __init__(self, initial: int = 0) -> None:
        if initial < 0:
            raise CounterOverflowError("drain counter cannot be negative")
        self._dc = initial
        self._edc = 0

    @property
    def value(self) -> int:
        """Current DC (the next flush will consume this value)."""
        return self._dc

    @property
    def ephemeral(self) -> int:
        """Blocks drained in the current episode (eDC)."""
        return self._edc

    def begin_episode(self) -> None:
        """Start a new drain episode (eDC starts counting from zero)."""
        self._edc = 0

    def next(self) -> int:
        """Consume and return the counter value for the next flushed block."""
        if self._dc + 1 >= 1 << 64:
            raise CounterOverflowError("drain counter exhausted")
        value = self._dc
        self._dc += 1
        self._edc += 1
        return value

    def take(self, count: int) -> int:
        """Consume ``count`` consecutive counter values; return the first.

        Equivalent to ``count`` calls of :meth:`next` (positions get values
        ``start .. start+count-1``) — the batched drain path reserves a whole
        episode's counters in one register update, exactly as hardware
        would add a constant to DC.
        """
        if count < 0:
            raise CounterOverflowError("cannot take a negative count")
        if self._dc + count >= 1 << 64:
            raise CounterOverflowError("drain counter exhausted")
        start = self._dc
        self._dc += count
        self._edc += count
        return start

    def value_at(self, position: int) -> int:
        """DC value that was used for episode position ``position``.

        ``position`` counts from the start of the most recent episode; the
        paper derives this as ``DC - eDC + position`` from the persistent
        registers, which is exactly what recovery needs.
        """
        if not 0 <= position < self._edc:
            raise CounterOverflowError(
                f"position {position} outside episode of {self._edc} blocks")
        return self._dc - self._edc + position

    def clear_ephemeral(self) -> None:
        """Called after a successful recovery (the paper clears eDC)."""
        self._edc = 0
