"""Split counter blocks (ints and the functions on them) and the Horus
drain counter."""

import pytest

from repro.common.errors import CounterOverflowError
from repro.crypto.counters import (
    DrainCounter,
    counter_for,
    increment,
    major,
    minor,
)
from repro.secure.controller import encode_counter


def block_of(major_value: int, minors: list[int]) -> int:
    """A counter-block int from its fields (the wire layout, spelled out)."""
    block = major_value
    for slot, value in enumerate(minors):
        block |= value << (64 + 7 * slot)
    return block


class TestSplitCounters:
    def test_fresh_block_is_zero(self):
        assert major(0) == 0
        assert not any(minor(0, slot) for slot in range(64))
        assert counter_for(0, 0) == 0
        assert counter_for(0, 63) == 0

    def test_counter_concatenates_major_and_minor(self):
        block = block_of(3, [5] + [0] * 63)
        assert counter_for(block, 0) == (3 << 7) | 5

    def test_increment_advances_one_slot(self):
        block, overflowed = increment(0, 7)
        assert overflowed is False
        assert minor(block, 7) == 1
        assert minor(block, 6) == 0

    def test_minor_overflow_bumps_major_and_resets(self):
        block = block_of(0, [127] + [3] * 63)
        block, overflowed = increment(block, 0)
        assert overflowed is True
        assert major(block) == 1
        assert all(minor(block, slot) == 0 for slot in range(64))

    def test_counters_never_repeat_across_overflow(self):
        """A block's counter stream must be strictly increasing even through
        a minor-counter wrap (the split-counter security invariant)."""
        block = 0
        seen = set()
        for _ in range(300):
            block, _ = increment(block, 0)
            value = counter_for(block, 0)
            assert value not in seen
            seen.add(value)

    def test_major_exhaustion_raises(self):
        block = block_of((1 << 64) - 1, [127] + [0] * 63)
        with pytest.raises(CounterOverflowError):
            increment(block, 0)

    def test_increment_leaves_its_input_alone(self):
        """Blocks are immutable values: an increment returns a new int and
        the old one still reads the old counters (what page re-encryption
        decrypts under)."""
        old = block_of(2, [127] * 64)
        new, overflowed = increment(old, 9)
        assert overflowed
        assert counter_for(old, 9) == (2 << 7) | 127
        assert counter_for(new, 9) == 3 << 7


class TestCounterBlockWireFormat:
    def test_zero_block_serializes_to_zeros(self):
        assert encode_counter(0) == bytes(64)

    def test_roundtrip(self):
        block = block_of(0xDEADBEEF, [i % 128 for i in range(64)])
        assert int.from_bytes(encode_counter(block), "little") == block

    def test_major_then_packed_minors(self):
        """64-bit major + 64 x 7-bit minors = exactly one cache line: the
        major is the first 8 bytes, minor 0 the low bits of byte 8."""
        wire = encode_counter(block_of(0x0102, [0x7F] + [0] * 63))
        assert len(wire) == 64
        assert wire[:8] == (0x0102).to_bytes(8, "little")
        assert wire[8] == 0x7F and not any(wire[9:])


class TestDrainCounter:
    def test_next_is_strictly_monotonic(self):
        dc = DrainCounter()
        values = [dc.next() for _ in range(100)]
        assert values == sorted(set(values))

    def test_episode_tracking(self):
        dc = DrainCounter()
        dc.begin_episode()
        for _ in range(10):
            dc.next()
        assert dc.ephemeral == 10
        assert dc.value == 10

    def test_monotonic_across_episodes(self):
        """DC never repeats even across drain episodes — the property that
        makes CHV pads unique without persisted per-block counters."""
        dc = DrainCounter()
        dc.begin_episode()
        first = [dc.next() for _ in range(5)]
        dc.clear_ephemeral()
        dc.begin_episode()
        second = [dc.next() for _ in range(5)]
        assert not set(first) & set(second)

    def test_value_at_reconstructs_episode_counters(self):
        dc = DrainCounter(initial=1000)
        dc.begin_episode()
        used = [dc.next() for _ in range(8)]
        for position, value in enumerate(used):
            assert dc.value_at(position) == value

    def test_value_at_rejects_out_of_episode_positions(self):
        dc = DrainCounter()
        dc.begin_episode()
        dc.next()
        with pytest.raises(CounterOverflowError):
            dc.value_at(1)
        with pytest.raises(CounterOverflowError):
            dc.value_at(-1)

    def test_clear_ephemeral_after_recovery(self):
        dc = DrainCounter()
        dc.begin_episode()
        dc.next()
        dc.clear_ephemeral()
        assert dc.ephemeral == 0
        assert dc.value == 1  # DC itself is never reset

    def test_rejects_negative_initial(self):
        with pytest.raises(CounterOverflowError):
            DrainCounter(initial=-1)
