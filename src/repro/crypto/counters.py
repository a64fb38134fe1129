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

from collections.abc import Sequence

from repro.common.constants import (
    CACHE_LINE_SIZE,
    MAJOR_COUNTER_BITS,
    MINOR_COUNTER_BITS,
    MINOR_COUNTERS_PER_BLOCK,
)
from repro.common.errors import CounterOverflowError

_MINOR_MASK = (1 << MINOR_COUNTER_BITS) - 1
_MAJOR_LIMIT = 1 << MAJOR_COUNTER_BITS


class SplitCounterBlock:
    """A 64 B split-counter block: 1 major + 64 minor counters.

    The minors live in one integer, :attr:`packed`: minor ``slot`` is bits
    ``[7*slot, 7*slot + 7)``, so the little-endian bytes of ``packed`` are
    exactly the wire form's last 56 bytes.  Reads and increments are
    shift, mask and add; the codec is two int conversions.
    """

    __slots__ = ("major", "packed")

    def __init__(self, major: int = 0,
                 minors: Sequence[int] = (0,) * MINOR_COUNTERS_PER_BLOCK
                 ) -> None:
        if not 0 <= major < _MAJOR_LIMIT:
            raise CounterOverflowError(f"major counter {major} out of range")
        if len(minors) != MINOR_COUNTERS_PER_BLOCK:
            raise ValueError(
                f"need exactly {MINOR_COUNTERS_PER_BLOCK} minor counters")
        self.major = major
        self.packed = 0
        for slot, minor in enumerate(minors):
            if not 0 <= minor <= _MINOR_MASK:
                raise CounterOverflowError(f"minor counter {minor} out of range")
            self.packed |= minor << (slot * MINOR_COUNTER_BITS)

    @property
    def minors(self) -> tuple[int, ...]:
        """The 64 minor counters, as a read-only snapshot."""
        return tuple((self.packed >> (slot * MINOR_COUNTER_BITS)) & _MINOR_MASK
                     for slot in range(MINOR_COUNTERS_PER_BLOCK))

    def counter_for(self, slot: int) -> int:
        """Full encryption counter of line ``slot``: ``major || minor``."""
        return (self.major << MINOR_COUNTER_BITS) | (
            (self.packed >> (slot * MINOR_COUNTER_BITS)) & _MINOR_MASK)

    def will_overflow(self, slot: int) -> bool:
        """True when the next :meth:`increment` of ``slot`` wraps the minor."""
        return (self.packed >> (slot * MINOR_COUNTER_BITS)) & _MINOR_MASK \
            == _MINOR_MASK

    def increment(self, slot: int) -> bool:
        """Advance the counter of line ``slot`` before a write.

        Returns True when the minor overflowed: the major was incremented,
        all minors reset, and the caller must re-encrypt the whole page
        (the split-counter contract).
        """
        shift = slot * MINOR_COUNTER_BITS
        if (self.packed >> shift) & _MINOR_MASK != _MINOR_MASK:
            self.packed += 1 << shift
            return False
        if self.major + 1 >= _MAJOR_LIMIT:
            raise CounterOverflowError("major counter exhausted")
        self.major += 1
        self.packed = 0
        return True

    # -- 64 B wire format -----------------------------------------------------
    # 8 bytes of major counter followed by 64 x 7-bit minors packed into the
    # remaining 56 bytes (the scheme's arithmetic is exactly why a counter
    # block covers 4 KiB with zero padding).

    def to_bytes(self) -> bytes:
        return (self.major.to_bytes(8, "little")
                + self.packed.to_bytes(CACHE_LINE_SIZE - 8, "little"))

    @classmethod
    def from_bytes(cls, data: bytes) -> "SplitCounterBlock":
        if len(data) != CACHE_LINE_SIZE:
            raise ValueError(f"counter block must be {CACHE_LINE_SIZE} B")
        major = int.from_bytes(data[:8], "little")
        if major >= _MAJOR_LIMIT:
            raise CounterOverflowError(
                f"major counter {major} out of range")
        # Every 56-byte pattern is 64 in-range minors, so the constructor's
        # validation pass is skipped: this runs once per counter fetch.
        block = cls.__new__(cls)
        block.major = major
        block.packed = int.from_bytes(data[8:], "little")
        return block

    def copy(self) -> "SplitCounterBlock":
        return SplitCounterBlock.from_bytes(self.to_bytes())

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SplitCounterBlock)
                and self.major == other.major and self.packed == other.packed)


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
