"""Property-based tests: crypto primitives and split counters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.constants import (
    CACHE_LINE_SIZE,
    MINOR_COUNTER_BITS,
    MINOR_COUNTERS_PER_BLOCK,
)
from repro.common.errors import CounterOverflowError
from repro.crypto.counters import counter_for, increment, major, minor
from repro.crypto.primitives import (
    decrypt_block,
    encrypt_block,
    generate_pad,
    xor_block,
)
from repro.secure.controller import encode_counter

KEY = b"prop-test-key"

blocks64 = st.binary(min_size=64, max_size=64)
addresses = st.integers(min_value=0, max_value=(1 << 48) - 1).map(
    lambda a: a * 64)
counters = st.integers(min_value=0, max_value=(1 << 71) - 1)


class TestEncryptionProperties:
    @given(blocks64, addresses, counters)
    def test_roundtrip(self, plaintext, address, counter):
        ciphertext = encrypt_block(KEY, address, counter, plaintext)
        assert decrypt_block(KEY, address, counter, ciphertext) == plaintext

    @given(blocks64, addresses, counters)
    def test_encryption_changes_content(self, plaintext, address, counter):
        assert encrypt_block(KEY, address, counter, plaintext) != plaintext

    @given(addresses, counters, counters)
    def test_distinct_counters_distinct_pads(self, address, c1, c2):
        if c1 != c2:
            assert generate_pad(KEY, address, c1) != \
                generate_pad(KEY, address, c2)

    @given(addresses, addresses, counters)
    def test_distinct_addresses_distinct_pads(self, a1, a2, counter):
        if a1 != a2:
            assert generate_pad(KEY, a1, counter) != \
                generate_pad(KEY, a2, counter)

    @given(blocks64, blocks64)
    def test_xor_is_an_involution(self, a, b):
        assert xor_block(xor_block(a, b), b) == a

    @given(blocks64)
    def test_xor_identity(self, a):
        assert xor_block(a, bytes(64)) == a


class TestSplitCounterProperties:
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=300))
    @settings(max_examples=50)
    def test_counter_stream_never_repeats_per_slot(self, slots):
        """Interleaved increments across slots: each slot's counter sequence
        is strictly increasing (no pad reuse, the CME invariant)."""
        block = 0
        last = {slot: counter_for(block, slot) for slot in range(64)}
        for slot in slots:
            block, _ = increment(block, slot)
            value = counter_for(block, slot)
            assert value > last[slot]
            last[slot] = value

    @given(st.integers(0, 63))
    def test_overflow_resets_all_minors(self, slot):
        block = int.from_bytes(bytes(8) + b"\xff" * 56, "little")
        block, overflowed = increment(block, slot)
        assert overflowed
        assert block == 1


# -- reference model: a list of minors and the generic shift-loop packer ------

_MINOR_LIMIT = 1 << MINOR_COUNTER_BITS
_MAJOR_MAX = (1 << 64) - 1


class ListCounterBlock:
    """The split-counter contract over a plain list of minors."""

    def __init__(self, major: int, minors: list[int]) -> None:
        self.major = major
        self.minors = list(minors)

    def counter_for(self, slot: int) -> int:
        return (self.major << MINOR_COUNTER_BITS) | self.minors[slot]

    def increment(self, slot: int) -> bool:
        minor = self.minors[slot] + 1
        if minor < _MINOR_LIMIT:
            self.minors[slot] = minor
            return False
        if self.major + 1 > _MAJOR_MAX:
            raise CounterOverflowError("major counter exhausted")
        self.major += 1
        self.minors = [0] * MINOR_COUNTERS_PER_BLOCK
        return True

    def to_bytes(self) -> bytes:
        packed = 0
        for i, minor in enumerate(self.minors):
            packed |= minor << (i * MINOR_COUNTER_BITS)
        return (self.major.to_bytes(8, "little")
                + packed.to_bytes(CACHE_LINE_SIZE - 8, "little"))

    @classmethod
    def from_bytes(cls, data: bytes) -> "ListCounterBlock":
        packed = int.from_bytes(data[8:], "little")
        return cls(int.from_bytes(data[:8], "little"),
                   [(packed >> (i * MINOR_COUNTER_BITS)) & (_MINOR_LIMIT - 1)
                    for i in range(MINOR_COUNTERS_PER_BLOCK)])


# Values at and next to the limits, so increments overflow and exhaust often.
majors = st.one_of(st.sampled_from([0, 1, _MAJOR_MAX - 1, _MAJOR_MAX]),
                   st.integers(0, _MAJOR_MAX))
minor_values = st.one_of(st.sampled_from([0, 125, 126, 127]),
                         st.integers(0, 127))
slots = st.one_of(st.sampled_from([0, 1, 62, 63]), st.integers(0, 63))


def assert_matches(block: int, model: ListCounterBlock) -> None:
    assert major(block) == model.major
    assert [minor(block, slot) for slot in range(MINOR_COUNTERS_PER_BLOCK)] \
        == model.minors
    assert encode_counter(block) == model.to_bytes()
    for slot in range(MINOR_COUNTERS_PER_BLOCK):
        assert counter_for(block, slot) == model.counter_for(slot)


class TestSplitCounterAgainstListModel:
    @given(majors,
           st.lists(minor_values, min_size=64, max_size=64),
           st.lists(slots, max_size=400))
    @settings(max_examples=200)
    def test_increments_match_the_model(self, major_value, minors, touched):
        """Every counter function agrees with the list-of-minors model,
        through overflow resets and up to major exhaustion, which must
        leave both blocks untouched."""
        model = ListCounterBlock(major_value, minors)
        block = int.from_bytes(model.to_bytes(), "little")
        assert_matches(block, model)
        for slot in touched:
            try:
                expected = model.increment(slot)
            except CounterOverflowError:
                with pytest.raises(CounterOverflowError):
                    increment(block, slot)
                assert model.major == _MAJOR_MAX
            else:
                block, overflowed = increment(block, slot)
                assert overflowed is expected
            assert counter_for(block, slot) == model.counter_for(slot)
            assert 0 <= block < 1 << (8 * CACHE_LINE_SIZE)
        assert_matches(block, model)

    @given(st.binary(min_size=64, max_size=64))
    def test_any_wire_form_reads_as_the_reference_decodes_it(self, data):
        """Any 64 B pattern, read as a counter-block int, has the fields
        the reference packer decodes, and encodes back to itself."""
        block = int.from_bytes(data, "little")
        model = ListCounterBlock.from_bytes(data)
        assert_matches(block, model)
        assert model.to_bytes() == data
