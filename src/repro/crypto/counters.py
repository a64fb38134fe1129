"""Encryption counters: split counter blocks and the Horus drain counter.

Split counters (Section II-B): one 64 B counter block carries a 64-bit major
counter shared by 64 lines plus a 7-bit minor counter per line; a line's
encryption counter is the concatenation ``major || minor``.  Minor overflow
bumps the major and forces re-encryption of the whole 4 KiB page.

A counter block is one int whose 64 little-endian bytes are its NVM form:
the major is the low 64 bits, and minor ``slot`` sits at bits
``64 + 7*slot``.  The functions below read and advance that int; a block
is never mutated, so a cached block is an immutable value like any other
metadata line.

The drain counter (Section IV-C): a persistent, strictly monotonic on-chip
counter ``DC`` incremented per flushed block, plus the ephemeral drain counter
``eDC`` counting blocks drained in the current episode.  Together they let
recovery re-derive the counter value used for any CHV position without
persisting per-block counters.
"""

from repro.common.constants import MAJOR_COUNTER_BITS, MINOR_COUNTER_BITS
from repro.common.errors import CounterOverflowError

MINOR_MASK = (1 << MINOR_COUNTER_BITS) - 1
MAJOR_MASK = (1 << MAJOR_COUNTER_BITS) - 1


def major(block: int) -> int:
    """The block's 64-bit major counter."""
    return block & MAJOR_MASK


def minor(block: int, slot: int) -> int:
    """The 7-bit minor counter of line ``slot``."""
    return (block >> (MAJOR_COUNTER_BITS + slot * MINOR_COUNTER_BITS)) \
        & MINOR_MASK


def counter_for(block: int, slot: int) -> int:
    """Full encryption counter of line ``slot``: ``major || minor``."""
    return ((block & MAJOR_MASK) << MINOR_COUNTER_BITS) | (
        (block >> (MAJOR_COUNTER_BITS + slot * MINOR_COUNTER_BITS))
        & MINOR_MASK)


def increment(block: int, slot: int) -> tuple[int, bool]:
    """Advance the counter of line ``slot`` before a write.

    Returns the new block and whether the minor overflowed: then the
    major was incremented, all minors reset, and the caller must
    re-encrypt the whole page (the split-counter contract).  An exhausted
    major raises :class:`CounterOverflowError`.
    """
    shift = MAJOR_COUNTER_BITS + slot * MINOR_COUNTER_BITS
    if (block >> shift) & MINOR_MASK != MINOR_MASK:
        return block + (1 << shift), False
    if block & MAJOR_MASK == MAJOR_MASK:
        raise CounterOverflowError("major counter exhausted")
    return (block & MAJOR_MASK) + 1, True


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
