"""Property-based equivalence: arena kernels vs the scalar primitives.

The arena substrate (:mod:`repro.crypto.arena`) promises *value
transparency*: whether the numpy u64 lanes or the small-input and
arbitrary-precision Python paths ran, every kernel's output is
byte-identical to the scalar spelling it replaces.  This suite holds each
kernel to that promise — over empty, singleton and N-element inputs (both
sides of each kernel's size threshold), duplicate addresses, and counters
past the u64 range (which must transparently fall back), the records
kernels that feed every batched hash included — and pins the arena-backed
``generate_pads`` / ``encrypt_blocks`` / ``compute_block_macs`` forms to
the scalar primitives across every MacDomain.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.constants import CACHE_LINE_SIZE, MAC_SIZE
from repro.crypto import arena, batch
from repro.crypto.arena import (
    BLOCK_RECORD_SIZE,
    FRAME_SIZE,
    block_frame_records,
    frame_buffer,
    pack_u64,
    records,
    tile_u64,
    unpack_u64,
    xor_bytes,
)
from repro.crypto.primitives import (
    MacDomain,
    compute_mac,
    encrypt_block,
    generate_pad,
    int_field,
)
from tests.conftest import examples

u64s = st.integers(0, 2**64 - 1)
wide = st.integers(0, 2**128 - 1)
blocks = st.binary(min_size=CACHE_LINE_SIZE, max_size=CACHE_LINE_SIZE)
keys = st.binary(min_size=1, max_size=64)
domains = st.sampled_from(MacDomain)


@st.composite
def work_lists(draw, min_size=0, max_size=12, counter_strategy=wide):
    """(addresses, counters) with duplicate-heavy addresses (cf.
    test_prop_batch.work_lists)."""
    pool = draw(st.lists(u64s, min_size=1, max_size=3))
    size = draw(st.integers(min_size, max_size))
    addr_list = draw(st.lists(st.sampled_from(pool), min_size=size,
                              max_size=size))
    ctr_list = draw(st.lists(counter_strategy, min_size=size,
                             max_size=size))
    return addr_list, ctr_list


class TestPackU64:
    @given(values=st.lists(u64s, max_size=12))
    @settings(max_examples=examples(100))
    def test_matches_scalar_to_bytes(self, values):
        assert pack_u64(values) == b"".join(
            v.to_bytes(8, "little") for v in values)

    @given(values=st.lists(u64s, min_size=2, max_size=12))
    @settings(max_examples=examples(100))
    def test_round_trips_through_unpack(self, values):
        assert unpack_u64(pack_u64(values)) == values

    @given(values=st.lists(u64s, max_size=6),
           oversize=st.integers(2**64, 2**128))
    @settings(max_examples=examples(50))
    def test_oversize_value_raises_like_to_bytes(self, values, oversize):
        with pytest.raises(OverflowError):
            pack_u64(values + [oversize])

    @given(extra=st.integers(1, 7))
    @settings(max_examples=examples(20))
    def test_unpack_rejects_unaligned_buffers(self, extra):
        with pytest.raises(ValueError):
            unpack_u64(b"\x00" * (8 + extra))

    def test_empty(self):
        assert pack_u64([]) == b""
        assert unpack_u64(b"") == []


class TestTileU64:
    @given(values=st.lists(u64s, max_size=8), lanes=st.integers(1, 8))
    @settings(max_examples=examples(100))
    def test_matches_scalar_repeat(self, values, lanes):
        assert tile_u64(values, lanes) == b"".join(
            v.to_bytes(8, "little") * lanes for v in values)

    @given(values=st.lists(u64s, min_size=1, max_size=8))
    @settings(max_examples=examples(50))
    def test_eight_lanes_is_the_pattern_block(self, values):
        tiled = tile_u64(values, 8)
        assert len(tiled) == CACHE_LINE_SIZE * len(values)


class TestFrameBuffer:
    @given(work=work_lists())
    @settings(max_examples=examples(100))
    def test_matches_scalar_framing(self, work):
        addrs, ctrs = work
        assert frame_buffer(addrs, ctrs) == b"".join(
            int_field(a) + int_field(c, 16) for a, c in zip(addrs, ctrs))

    @given(start=st.integers(0, 2**128 - 13), count=st.integers(0, 12),
           pool=st.lists(u64s, min_size=1, max_size=3))
    @settings(max_examples=examples(100))
    def test_range_counters_match_list_counters(self, start, count, pool):
        """Range counters (the drain's shape) — including ranges that
        cross 2**64 and must take the fallback — equal explicit lists."""
        addrs = (pool * count)[:count]
        ctrs = range(start, start + count)
        assert frame_buffer(addrs, ctrs) == \
            frame_buffer(addrs, list(ctrs))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            frame_buffer([1, 2], [3])


# Record counts on both sides of the lanes' minimum batch.
record_counts = st.integers(0, 3 * arena._MIN_RECORD_LANES)
buffer_types = st.sampled_from([bytes, bytearray, memoryview])


class TestRecords:
    """The records kernels: C-built ``bytes`` records, one per item, equal
    to the slice each replaces on both sides of the size threshold."""

    @given(size=st.sampled_from([8, FRAME_SIZE, CACHE_LINE_SIZE,
                                 BLOCK_RECORD_SIZE]),
           count=record_counts, wrap=buffer_types, data=st.data())
    @settings(max_examples=examples(80))
    def test_records_cut_the_buffer(self, size, count, wrap, data):
        raw = data.draw(st.binary(min_size=size * count,
                                  max_size=size * count))
        cut = records(wrap(raw), size)
        assert cut == [raw[i:i + size] for i in range(0, len(raw), size)]
        assert all(type(record) is bytes for record in cut)

    @given(work=work_lists(max_size=3 * arena._MIN_RECORD_LANES))
    @settings(max_examples=examples(50))
    def test_frame_records_are_the_frames(self, work):
        addrs, ctrs = work
        assert records(frame_buffer(addrs, ctrs), FRAME_SIZE) == [
            int_field(a) + int_field(c, 16) for a, c in zip(addrs, ctrs)]

    @given(work=work_lists(max_size=3 * arena._MIN_RECORD_LANES),
           wrap=buffer_types, data=st.data())
    @settings(max_examples=examples(50))
    def test_block_frame_records_join_block_and_frame(self, work,
                                                      wrap, data):
        addrs, ctrs = work
        payload = [data.draw(blocks) for _ in addrs]
        joined = block_frame_records(wrap(b"".join(payload)),
                                     wrap(frame_buffer(addrs, ctrs)))
        assert joined == [block + int_field(a) + int_field(c, 16)
                          for block, a, c in zip(payload, addrs, ctrs)]
        assert all(type(record) is bytes
                   and len(record) == BLOCK_RECORD_SIZE
                   for record in joined)

    @given(size=st.sampled_from([FRAME_SIZE, CACHE_LINE_SIZE]),
           count=record_counts, extra=st.integers(1, 23))
    @settings(max_examples=examples(30))
    def test_records_reject_wrong_lengths(self, size, count, extra):
        with pytest.raises(ValueError, match="not a multiple"):
            records(bytes(size * count + extra), size)

    @given(count=record_counts, skew=st.sampled_from([-1, 1]),
           side=st.sampled_from(["blocks", "frames"]))
    @settings(max_examples=examples(30))
    def test_block_frame_records_reject_mismatched_lengths(
            self, count, skew, side):
        """A block buffer cut mid-block, or a frame buffer one byte off,
        raises before any record is built."""
        block_bytes = CACHE_LINE_SIZE * count
        frame_bytes = FRAME_SIZE * count
        if side == "blocks":
            block_bytes = max(block_bytes + skew, 1)
        else:
            frame_bytes = max(frame_bytes + skew, 1)
        with pytest.raises(ValueError, match="per record"):
            block_frame_records(bytes(block_bytes), bytes(frame_bytes))


class TestXorBytes:
    @given(pair=st.integers(0, 256).flatmap(
        lambda n: st.tuples(st.binary(min_size=n, max_size=n),
                            st.binary(min_size=n, max_size=n))))
    @settings(max_examples=examples(100))
    def test_matches_bigint_xor(self, pair):
        a, b = pair
        expected = (int.from_bytes(a, "little")
                    ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")
        assert xor_bytes(a, b) == expected

    @given(pair=st.integers(0, 64).flatmap(
        lambda n: st.tuples(st.binary(min_size=n, max_size=n),
                            st.binary(min_size=n, max_size=n))))
    @settings(max_examples=examples(100))
    def test_involution(self, pair):
        a, b = pair
        assert xor_bytes(xor_bytes(a, b), b) == a

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            xor_bytes(b"\x00" * 8, b"\x00" * 9)


class TestArenaBackedBatchParity:
    """The arena-fed batch forms equal the scalar primitives byte for
    byte."""

    @given(key=keys, work=work_lists())
    @settings(max_examples=examples(60))
    def test_generate_pads_with_frame_buffer(self, key, work):
        addrs, ctrs = work
        frames = frame_buffer(addrs, ctrs)
        pads = batch.generate_pads(key, addrs, ctrs, frames)
        for i, (address, counter) in enumerate(zip(addrs, ctrs)):
            assert pads[i * 64:(i + 1) * 64] == \
                generate_pad(key, address, counter)

    @given(key=keys, work=work_lists(), data=st.data())
    @settings(max_examples=examples(60))
    def test_encrypt_blocks_from_arena(self, key, work, data):
        addrs, ctrs = work
        payload = [data.draw(blocks) for _ in addrs]
        ciphertext = batch.encrypt_blocks(
            key, addrs, ctrs, memoryview(b"".join(payload)),
            frame_buffer(addrs, ctrs))
        assert len(ciphertext) == CACHE_LINE_SIZE * len(addrs)
        for i, (address, counter) in enumerate(zip(addrs, ctrs)):
            assert ciphertext[i * 64:(i + 1) * 64] == encrypt_block(
                key, address, counter, payload[i])

    @given(key=keys, work=work_lists(), domain=domains, data=st.data())
    @settings(max_examples=examples(60))
    def test_compute_block_macs_from_arena(self, key, work,
                                           domain, data):
        addrs, ctrs = work
        payload = [data.draw(blocks) for _ in addrs]
        macs = batch.compute_block_macs(
            key, memoryview(b"".join(payload)), addrs, ctrs, domain=domain,
            frames=frame_buffer(addrs, ctrs))
        assert len(macs) == len(addrs)
        for mac, address, counter, block in zip(macs, addrs, ctrs, payload):
            assert len(mac) == MAC_SIZE
            assert mac == compute_mac(
                key, block + int_field(address, 8) + int_field(counter, 16),
                domain=domain)
