"""Sparse backing store."""

import pytest

from repro.common.errors import AddressError, AlignmentError
from repro.mem.backend import SparseMemory


@pytest.fixture
def memory() -> SparseMemory:
    return SparseMemory(1 << 20)


class TestReadWrite:
    def test_unwritten_reads_as_zeros(self, memory):
        assert memory.read_block(0) == bytes(64)
        assert memory.read_block(64 * 100) == bytes(64)

    def test_roundtrip(self, memory):
        payload = bytes(range(64))
        memory.write_block(128, payload)
        assert memory.read_block(128) == payload

    def test_overwrite(self, memory):
        memory.write_block(0, b"\x01" * 64)
        memory.write_block(0, b"\x02" * 64)
        assert memory.read_block(0) == b"\x02" * 64

    def test_is_written_tracks_explicit_writes(self, memory):
        assert not memory.is_written(64)
        memory.write_block(64, bytes(64))
        assert memory.is_written(64)

    def test_touched_blocks(self, memory):
        memory.write_block(0, bytes(64))
        memory.write_block(64, bytes(64))
        memory.write_block(0, bytes(64))  # overwrite, not a new block
        assert memory.touched_blocks == 2


class TestValidation:
    def test_rejects_unaligned_address(self, memory):
        with pytest.raises(AlignmentError):
            memory.read_block(1)

    def test_rejects_out_of_range(self, memory):
        assert memory.size == 1 << 20
        memory.write_block(memory.size - 64, b"\x07" * 64)
        assert memory.read_block(memory.size - 64) == b"\x07" * 64
        with pytest.raises(AddressError):
            memory.read_block(1 << 20)
        with pytest.raises(AddressError):
            memory.write_block(memory.size, bytes(64))

    def test_rejects_short_payload(self, memory):
        with pytest.raises(AddressError):
            memory.write_block(0, b"short")

    def test_rejects_bad_size(self):
        with pytest.raises(AddressError):
            SparseMemory(100)
        with pytest.raises(AddressError):
            SparseMemory(0)


class TestAdversarialAndClear:
    def test_corrupt_block_bypasses_nothing_functionally(self, memory):
        memory.corrupt_block(0, b"\xff" * 64)
        assert memory.read_block(0) == b"\xff" * 64

    def test_clear_resets_to_zeros(self, memory):
        memory.write_block(0, b"\xaa" * 64)
        memory.clear()
        assert memory.read_block(0) == bytes(64)
        assert memory.touched_blocks == 0


class TestAttackedLedger:
    def test_corrupt_block_is_ledgered(self, memory):
        memory.corrupt_block(0, b"\xff" * 64)
        assert memory.attacked_blocks == {0}

    def test_regular_writes_are_not_ledgered(self, memory):
        memory.write_block(0, b"\x01" * 64)
        assert memory.attacked_blocks == frozenset()

    def test_ledger_is_a_frozen_snapshot(self, memory):
        memory.corrupt_block(0, b"\xff" * 64)
        before = memory.attacked_blocks
        memory.corrupt_block(64, b"\xee" * 64)
        assert before == {0}
        assert memory.attacked_blocks == {0, 64}

    def test_clear_drops_the_ledger(self, memory):
        memory.corrupt_block(0, b"\xff" * 64)
        memory.clear()
        assert memory.attacked_blocks == frozenset()


class TestArenaIo:
    """write_arena/read_arena vs the scalar write_block/read_block spec."""

    def test_write_arena_matches_scalar_writes(self, memory):
        addresses = [0, 4096, 64]
        buffer = b"".join(bytes([i]) * 64 for i in range(3))
        memory.write_arena(addresses, buffer)
        for i, address in enumerate(addresses):
            assert memory.read_block(address) == bytes([i]) * 64

    def test_read_arena_matches_scalar_reads(self, memory):
        memory.write_block(64, b"\x07" * 64)
        out = memory.read_arena([0, 64, 128])
        assert bytes(out) == bytes(64) + b"\x07" * 64 + bytes(64)

    def test_round_trip(self, memory):
        addresses = [4096 * i for i in range(4)]
        buffer = bytes(range(256))
        memory.write_arena(addresses, buffer)
        assert bytes(memory.read_arena(addresses)) == buffer

    def test_duplicate_addresses_last_write_wins(self, memory):
        memory.write_arena([0, 0], b"\x01" * 64 + b"\x02" * 64)
        assert memory.read_block(0) == b"\x02" * 64

    def test_memoryview_buffer_accepted(self, memory):
        memory.write_arena([0], memoryview(b"\x05" * 64))
        assert memory.read_block(0) == b"\x05" * 64

    def test_rejects_ragged_buffer(self, memory):
        with pytest.raises(AddressError):
            memory.write_arena([0, 64], bytes(100))

    def test_validates_every_address_before_writing(self, memory):
        with pytest.raises((AddressError, AlignmentError)):
            memory.write_arena([0, 3], bytes(128))
        # the valid prefix must not have landed
        assert not memory.is_written(0)

    def test_empty_batch(self, memory):
        memory.write_arena([], b"")
        assert bytes(memory.read_arena([])) == b""

    BAD = {
        "negative": [0, 64, -64, 128],
        "beyond-end": [0, 64, 1 << 20, 128],
        "misaligned": [0, 64, 200, 128],
        "misaligned-at-end": [0, 64, (1 << 20) - 32, 128],
        "first-bad-wins": [0, 8, -64, 1 << 20],
    }

    @staticmethod
    def _error(call):
        with pytest.raises(AddressError) as caught:
            call()
        return type(caught.value), str(caught.value)

    @pytest.mark.parametrize("batch", list(BAD.values()), ids=list(BAD))
    def test_read_arena_fails_like_read_block(self, memory, batch):
        def per_block():
            for address in batch:
                memory.read_block(address)

        assert self._error(lambda: memory.read_arena(batch)) == \
            self._error(per_block)

    @pytest.mark.parametrize("batch", list(BAD.values()), ids=list(BAD))
    def test_write_arena_fails_like_write_block_and_stores_nothing(
            self, batch):
        per_block_memory = SparseMemory(1 << 20)
        arena_memory = SparseMemory(1 << 20)

        def per_block():
            for address in batch:
                per_block_memory.write_block(address, bytes(64))

        assert self._error(lambda: arena_memory.write_arena(
            batch, bytes(64 * len(batch)))) == self._error(per_block)
        assert arena_memory.touched_blocks == 0
