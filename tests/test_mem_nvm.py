"""Timed, accounted NVM device."""

import pytest

from repro.common.errors import AddressError
from repro.faults.plan import FaultPlan, PowerCut, TornWrite
from repro.mem.nvm import NvmDevice
from repro.mem.regions import MemoryLayout
from repro.mem.wear import WearTracker
from repro.stats.counters import SimStats
from repro.stats.events import ReadKind, WriteKind


@pytest.fixture
def device() -> NvmDevice:
    return NvmDevice(1 << 20)


class TestAccounting:
    def test_read_is_accounted_by_kind(self, device):
        device.read(0, ReadKind.COUNTER)
        device.read(0, ReadKind.COUNTER)
        device.read(64, ReadKind.TREE_NODE)
        assert device.stats.reads[ReadKind.COUNTER] == 2
        assert device.stats.reads[ReadKind.TREE_NODE] == 1

    def test_write_is_accounted_by_kind(self, device):
        device.write(0, bytes(64), WriteKind.CHV_DATA)
        assert device.stats.writes[WriteKind.CHV_DATA] == 1

    def test_peek_and_poke_are_not_accounted(self, device):
        device.poke(0, b"\x42" * 64)
        assert device.peek(0) == b"\x42" * 64
        assert device.stats.total_memory_requests == 0

    def test_kind_is_mandatory_and_typed(self, device):
        with pytest.raises(AddressError):
            device.read(0, "counter")
        with pytest.raises(AddressError):
            device.write(0, bytes(64), "data")


class TestDataPath:
    def test_write_then_read_roundtrip(self, device):
        payload = bytes(range(64))
        device.write(4096, payload, WriteKind.DATA)
        assert device.read(4096, ReadKind.DATA) == payload

    def test_unwritten_reads_zeros_but_counts(self, device):
        assert device.read(0, ReadKind.DATA) == bytes(64)
        assert device.stats.total_reads == 1

    def test_size_is_the_backend_size(self, device):
        assert device.size == device.backend.size == 1 << 20
        with pytest.raises(AddressError):
            device.write(device.size, bytes(64), WriteKind.DATA)

    def test_shared_stats_object(self):
        from repro.stats.counters import SimStats
        stats = SimStats()
        device = NvmDevice(1 << 16, stats)
        device.write(0, bytes(64), WriteKind.DATA)
        assert stats.total_writes == 1


class TestArenaIo:
    """Grouped arena I/O: same image and stats as the scalar stream."""

    def test_write_arena_single_kind(self, device):
        addresses = [0, 4096]
        device.write_arena(addresses, b"\x01" * 64 + b"\x02" * 64,
                           WriteKind.DATA)
        assert device.peek(0) == b"\x01" * 64
        assert device.peek(4096) == b"\x02" * 64
        assert device.stats.writes[WriteKind.DATA] == 2

    def test_write_arena_per_element_kinds(self, device):
        kinds = [WriteKind.CHV_DATA, WriteKind.CHV_METADATA]
        device.write_arena([0, 64], bytes(128), kinds)
        assert device.stats.writes[WriteKind.CHV_DATA] == 1
        assert device.stats.writes[WriteKind.CHV_METADATA] == 1

    def test_write_arena_kind_counts_fold(self, device):
        device.write_arena([0, 64, 128], bytes(192), WriteKind.CHV_DATA,
                           kind_counts={WriteKind.CHV_DATA: 2,
                                        WriteKind.CHV_METADATA: 1})
        assert device.stats.writes[WriteKind.CHV_DATA] == 2
        assert device.stats.writes[WriteKind.CHV_METADATA] == 1

    def test_write_arena_rejects_untyped_kind(self, device):
        with pytest.raises(AddressError):
            device.write_arena([0], bytes(64), "data")

    def test_read_arena_accounts_and_reads(self, device):
        device.write(64, b"\x09" * 64, WriteKind.DATA)
        out = device.read_arena([0, 64], ReadKind.DATA)
        assert bytes(out) == bytes(64) + b"\x09" * 64
        assert device.stats.reads[ReadKind.DATA] == 2

    def test_read_arena_rejects_untyped_kind(self, device):
        with pytest.raises(AddressError):
            device.read_arena([0], "data")

    def test_grouped_io_reflects_side_channels(self, device, tiny_config):
        assert device.grouped_io
        device.trace = []
        assert not device.grouped_io
        device.trace = None
        assert device.grouped_io
        # Wear is a per-block count, blind to write order: it rides the
        # grouped path instead of forcing per-request issue.
        device.wear = WearTracker(MemoryLayout(tiny_config))
        assert device.grouped_io

    def test_write_arena_under_wear_equals_the_scalar_loop(self,
                                                          tiny_config):
        """Grouped issue with a wear tracker attached counts exactly what
        the scalar write loop counts, duplicates included."""
        layout = MemoryLayout(tiny_config)
        addresses = [64 * (i % 5) for i in range(12)] \
            + [layout.counters.base, layout.tree.base, layout.counters.base]
        payload = b"".join(bytes([i + 1]) * 64
                           for i in range(len(addresses)))

        def fresh() -> NvmDevice:
            device = NvmDevice(layout.total_size)
            device.wear = WearTracker(layout)
            return device

        grouped = fresh()
        assert grouped.grouped_io
        grouped.write_arena(addresses, payload, WriteKind.DATA)
        scalar = fresh()
        for index, address in enumerate(addresses):
            scalar.write(address, payload[64 * index:64 * (index + 1)],
                         WriteKind.DATA)
        assert grouped.wear.total_writes == scalar.wear.total_writes \
            == len(addresses)
        assert grouped.wear.region_wear() == scalar.wear.region_wear()
        assert grouped.backend.image() == scalar.backend.image()
        assert grouped.stats.snapshot() == scalar.stats.snapshot()

    def test_write_arena_scalar_fallback_under_trace(self, device):
        """With a trace attached the arena degrades to per-request scalar
        issue, so the request log keeps one entry per block."""
        device.trace = []
        device.write_arena([0, 64], b"\x03" * 128, WriteKind.DATA)
        out = device.read_arena([0, 64], ReadKind.DATA)
        assert bytes(out) == b"\x03" * 128
        assert device.trace == [(0, True), (64, True),
                                (0, False), (64, False)]
        assert device.stats.writes[WriteKind.DATA] == 2
        assert device.stats.reads[ReadKind.DATA] == 2

    def test_account_reads_counts_without_touching_backend(self, device):
        device.account_reads(ReadKind.DATA, 5)
        assert device.stats.reads[ReadKind.DATA] == 5

    def test_account_reads_refused_under_trace(self, device):
        device.trace = []
        with pytest.raises(AddressError):
            device.account_reads(ReadKind.DATA, 1)

    def test_arena_equals_scalar_stream(self):
        """Differential: one grouped arena write/read equals the scalar
        per-block stream on image and stats."""
        from repro.stats.counters import SimStats
        addresses = [4096 * i for i in range(8)]
        payload = b"".join(bytes([i]) * 64 for i in range(8))

        grouped = NvmDevice(1 << 20, SimStats())
        grouped.write_arena(addresses, payload, WriteKind.DATA)
        grouped_out = bytes(grouped.read_arena(addresses, ReadKind.DATA))

        scalar = NvmDevice(1 << 20, SimStats())
        for i, address in enumerate(addresses):
            scalar.write(address, payload[i * 64:(i + 1) * 64],
                         WriteKind.DATA)
        scalar_out = b"".join(
            scalar.read(address, ReadKind.DATA) for address in addresses)

        assert grouped_out == scalar_out
        assert grouped.backend.image() == scalar.backend.image()
        assert grouped.stats.snapshot() == scalar.stats.snapshot()


def _batch_items() -> list[tuple[int, bytes, WriteKind]]:
    """Twelve writes over five addresses (so later writes overwrite earlier
    ones) cycling through four kinds."""
    kinds = (WriteKind.DATA, WriteKind.COUNTER, WriteKind.CHV_DATA,
             WriteKind.DATA)
    return [(64 * (i % 5), bytes([i + 1]) * 64, kinds[i % 4])
            for i in range(12)]


def _scalar_twin(items, plan: FaultPlan | None = None) -> NvmDevice:
    device = NvmDevice(1 << 20, SimStats())
    device.trace = []
    device.fault_plan = plan
    for address, data, kind in items:
        device.write(address, data, kind)
    return device


class TestWriteBatch:
    """``write_batch`` is the scalar write issued item by item: every
    observable equals the in-order loop of :meth:`NvmDevice.write`."""

    def _batched(self, items, plan: FaultPlan | None = None) -> NvmDevice:
        device = NvmDevice(1 << 20, SimStats())
        device.trace = []
        device.fault_plan = plan
        device.write_batch(items)
        return device

    def test_equals_the_scalar_write_loop(self):
        items = _batch_items()
        batched, scalar = self._batched(items), _scalar_twin(items)
        assert batched.backend.image() == scalar.backend.image()
        assert batched.stats.snapshot() == scalar.stats.snapshot()
        assert batched.trace == scalar.trace == [
            (address, True) for address, _, _ in items]

    def test_later_duplicates_win(self, device):
        items = _batch_items()
        device.write_batch(items)
        last = {address: data for address, data, _ in items}
        for address, data in last.items():
            assert device.peek(address) == data
        assert device.stats.writes[WriteKind.DATA] == 6
        assert device.stats.writes[WriteKind.COUNTER] == 3
        assert device.stats.writes[WriteKind.CHV_DATA] == 3

    def test_empty_batch_is_a_no_op(self, device):
        device.trace = []
        device.write_batch([])
        assert device.stats.total_memory_requests == 0
        assert device.trace == []
        assert device.backend.image() == NvmDevice(1 << 20).backend.image()

    def test_power_cut_mid_batch_loses_exactly_the_tail(self):
        """A hold-up source dying after five writes loses the batch's last
        seven; all twelve attempts are still accounted."""
        items = _batch_items()
        batched = self._batched(items, FaultPlan([PowerCut(after_writes=5)]))
        scalar = _scalar_twin(items, FaultPlan([PowerCut(after_writes=5)]))
        assert batched.lost_writes == [
            (address, kind) for address, _, kind in items[5:]]
        assert batched.lost_writes == scalar.lost_writes
        assert batched.backend.image() == scalar.backend.image()
        assert batched.stats.total_writes == len(items)
        assert batched.trace == scalar.trace

    def test_torn_write_hits_the_same_item(self):
        items = _batch_items()
        batched = self._batched(items, FaultPlan([TornWrite(at_write=7)]))
        scalar = _scalar_twin(items, FaultPlan([TornWrite(at_write=7)]))
        assert batched.fault_plan.events == scalar.fault_plan.events
        assert [event.write_index for event in batched.fault_plan.events] \
            == [7]
        assert batched.backend.image() == scalar.backend.image()
        torn_address, torn_data, _ = items[7]
        # No later item rewrites address 7 % 5, so the torn block stays.
        assert all(address != torn_address for address, _, _ in items[8:])
        assert batched.peek(torn_address) != torn_data
        assert batched.peek(torn_address)[:32] == torn_data[:32]

    def test_wear_records_every_request(self, tiny_config):
        layout = MemoryLayout(tiny_config)
        device = NvmDevice(layout.total_size)
        device.wear = WearTracker(layout)
        items = _batch_items()
        device.write_batch(items)
        assert device.wear.total_writes == len(items)
        data = device.wear.wear_of("data")
        assert data.blocks_written == 5
        assert data.max_writes_per_block == 3


class TestUndoJournal:
    """The undo journal a failed batched controller call rolls back with:
    undone, the medium and the wear counts are as the journal found them,
    whichever write path touched a block and however often."""

    def _written(self, device: NvmDevice) -> None:
        device.write(0, b"\x01" * 64, WriteKind.DATA)
        device.write(64, b"\x02" * 64, WriteKind.DATA)

    def _journaled(self, device: NvmDevice) -> None:
        device.open_journal()
        device.write(0, b"\x11" * 64, WriteKind.COUNTER)
        device.write_arena([0, 128, 128, 64], b"\x22" * 256, WriteKind.DATA)
        device.write(128, b"\x33" * 64, WriteKind.DATA_MAC)

    def test_undo_restores_the_medium_and_wear(self, tiny_config):
        device = NvmDevice(1 << 20)
        device.wear = WearTracker(MemoryLayout(tiny_config))
        self._written(device)
        image = device.backend.image()
        wear = device.wear.region_wear()
        self._journaled(device)
        device.close_journal(undo=True)
        assert device.backend.image() == image
        assert list(device.backend.written_addresses()) == [0, 64]
        assert not device.backend.is_written(128)
        assert device.wear.region_wear() == wear
        assert device.backend.journal is None

    def test_close_without_undo_keeps_every_write(self):
        device = NvmDevice(1 << 20)
        self._written(device)
        self._journaled(device)
        device.close_journal(undo=False)
        assert device.peek(0) == b"\x22" * 64
        assert device.peek(128) == b"\x33" * 64
        assert device.backend.journal is None
