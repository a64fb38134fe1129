"""Split counter blocks and the Horus drain counter."""

import pytest

from repro.common.errors import CounterOverflowError
from repro.crypto.counters import DrainCounter, SplitCounterBlock


class TestSplitCounterBlock:
    def test_fresh_block_is_zero(self):
        block = SplitCounterBlock()
        assert block.major == 0 and not any(block.minors)
        assert block.counter_for(0) == 0
        assert block.counter_for(63) == 0

    def test_counter_concatenates_major_and_minor(self):
        block = SplitCounterBlock(major=3, minors=[5] + [0] * 63)
        assert block.counter_for(0) == (3 << 7) | 5

    def test_increment_advances_one_slot(self):
        block = SplitCounterBlock()
        assert block.increment(7) is False
        assert block.minors[7] == 1
        assert block.minors[6] == 0

    def test_minor_overflow_bumps_major_and_resets(self):
        block = SplitCounterBlock(major=0, minors=[127] + [3] * 63)
        assert block.will_overflow(0)
        overflowed = block.increment(0)
        assert overflowed is True
        assert block.major == 1
        assert all(minor == 0 for minor in block.minors)

    def test_counters_never_repeat_across_overflow(self):
        """A block's counter stream must be strictly increasing even through
        a minor-counter wrap (the split-counter security invariant)."""
        block = SplitCounterBlock()
        seen = set()
        for _ in range(300):
            block.increment(0)
            value = block.counter_for(0)
            assert value not in seen
            seen.add(value)

    def test_major_exhaustion_raises(self):
        block = SplitCounterBlock(major=(1 << 64) - 1,
                                  minors=[127] + [0] * 63)
        with pytest.raises(CounterOverflowError):
            block.increment(0)

    def test_rejects_out_of_range_values(self):
        with pytest.raises(CounterOverflowError):
            SplitCounterBlock(major=1 << 64)
        with pytest.raises(CounterOverflowError):
            SplitCounterBlock(minors=[128] + [0] * 63)
        with pytest.raises(ValueError):
            SplitCounterBlock(minors=[0] * 10)

    def test_minors_are_read_only(self):
        """Minors change only through increment: the property is a
        snapshot, so an item store would silently do nothing if it
        were allowed."""
        block = SplitCounterBlock()
        with pytest.raises(TypeError):
            block.minors[0] = 1
        with pytest.raises(AttributeError):
            block.minors = [1] * 64
        assert block.counter_for(0) == 0

    def test_copy_is_independent(self):
        block = SplitCounterBlock()
        copy = block.copy()
        copy.increment(0)
        assert block.minors[0] == 0


class TestCounterBlockWireFormat:
    def test_zero_block_serializes_to_zeros(self):
        assert SplitCounterBlock().to_bytes() == bytes(64)

    def test_roundtrip(self):
        block = SplitCounterBlock(major=0xDEADBEEF,
                                  minors=[i % 128 for i in range(64)])
        assert SplitCounterBlock.from_bytes(block.to_bytes()) == block

    def test_exactly_64_bytes(self):
        """64-bit major + 64 x 7-bit minors = exactly one cache line."""
        assert len(SplitCounterBlock().to_bytes()) == 64

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            SplitCounterBlock.from_bytes(bytes(63))


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
