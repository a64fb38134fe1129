"""Controller edge cases: minor-counter overflow, the victim buffer, and
batched segments that fail part-way.

Corners the mainline roundtrip tests never reach:

* ``_reencrypt_page`` — a minor-counter overflow mid-write (and mid-drain)
  re-encrypts the whole 4 KiB page, skipping holes and the overflowing
  slot; a batched system must stay indistinguishable from a scalar one
  across it, stats included;
* ``drain_victims`` — with a metadata cache at capacity, every insert parks
  a dirty victim; the buffer must drain in FIFO order and run cascading
  writebacks to a fixed point;
* a batched call that fails anywhere (a tampered counter block or tree
  node, a bad address, a data block whose batched verification fails
  after later writes ran) rolls back and re-runs on the scalar path, so it
  stops in the state the per-op loop leaves: earlier ops complete, the
  failing op's MAC victim where the loop parks it, later ops undone.
"""

import traceback
from dataclasses import replace

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import (
    AddressError,
    IntegrityError,
    OracleDivergenceError,
)
from repro.core.system import SecureEpdSystem
from repro.common.constants import MAJOR_COUNTER_BITS, MINOR_COUNTER_BITS
from repro.crypto.counters import MINOR_MASK, major
from repro.mem.nvm import NvmDevice
from repro.mem.regions import MemoryLayout
from repro.mem.wear import WearTracker
from repro.secure.controller import SecureMemoryController
from repro.secure.osiris import OsirisLazyScheme
from repro.stats.counters import SimStats
from repro.secure.controller import encode_counter
from tests.conftest import (
    controller_state,
    corrupt_batched_verify_macs,
    install_counter_block,
)

WRITTEN_SLOTS = (0, 2, 3, 40, 63)
OVERFLOW_SLOT = 2


def make_controller(batched: bool, scheme: str = "lazy",
                    scale: int = 512) -> SecureMemoryController:
    config = SystemConfig.scaled(scale)
    layout = MemoryLayout(config)
    stats = SimStats()
    nvm = NvmDevice(layout.total_size, stats)
    return SecureMemoryController(config, nvm, layout, stats,
                                  scheme=scheme, batched=batched)


def payload(tag: int) -> bytes:
    return tag.to_bytes(8, "little") * 8


def _force_overflow(controller: SecureMemoryController,
                    address: int = OVERFLOW_SLOT * 64) -> None:
    """Arm ``address``'s minor counter so its next write wraps the page:
    the cached block's slot goes to the minor limit."""
    block = controller.get_counter(address)
    assert major(block) == 0
    shift = MAJOR_COUNTER_BITS + OVERFLOW_SLOT * MINOR_COUNTER_BITS
    install_counter_block(controller, address, block | MINOR_MASK << shift)


def _run_overflow_sequence(batched: bool) -> SecureMemoryController:
    """Write a page with holes, then overflow one slot's minor counter."""
    controller = make_controller(batched)
    for slot in WRITTEN_SLOTS:
        controller.write(slot * 64, payload(slot + 1))
    _force_overflow(controller)
    controller.write(OVERFLOW_SLOT * 64, payload(99))
    assert major(controller.get_counter(0)) == 1
    return controller


class TestReencryptPageOnOverflow:
    @pytest.mark.parametrize("batched", [False, True])
    def test_overflow_bumps_major_and_preserves_contents(self, batched):
        controller = _run_overflow_sequence(batched)
        assert major(controller.get_counter(0)) == 1
        assert controller.read(OVERFLOW_SLOT * 64) == payload(99)
        for slot in WRITTEN_SLOTS:
            if slot != OVERFLOW_SLOT:
                assert controller.read(slot * 64) == payload(slot + 1)

    @pytest.mark.parametrize("batched", [False, True])
    def test_unwritten_lines_stay_unwritten(self, batched):
        controller = _run_overflow_sequence(batched)
        for slot in range(64):
            written = controller.nvm.backend.is_written(slot * 64)
            assert written == (slot in WRITTEN_SLOTS)

    def test_overflow_after_a_read_in_one_segment(self):
        """A segment that reads and then overflows a write: the scalar
        overflow tail must run on the overflowing write's counter block,
        not on whatever the segment's data phase last touched."""

        def run(batched: bool) -> SecureMemoryController:
            controller = make_controller(batched)
            controller.write(0, payload(1))
            _force_overflow(controller)
            results = controller.run_ops_batch(
                [("r", 0, None), ("w", OVERFLOW_SLOT * 64, payload(9))])
            assert results == [payload(1), None]
            assert major(controller.get_counter(0)) == 1
            return controller

        batched, scalar = run(batched=True), run(batched=False)
        assert batched.nvm.backend.image() == scalar.nvm.backend.image()
        assert batched.stats.snapshot() == scalar.stats.snapshot()
        assert batched.read(OVERFLOW_SLOT * 64) == payload(9)

    def test_overflow_mid_drain_matches_scalar(self):
        """A baseline secure drain hits the overflow *while flushing*: a
        batched system must leave the same NVM image, stats, and counter
        state as a scalar one.

        ``base-eu`` flushes metadata home at drain time, so the post-crash
        counter fetch observes the overflow directly.
        """

        def run(batched: bool) -> SecureEpdSystem:
            config = SystemConfig.scaled(512)
            system = SecureEpdSystem(config, scheme="base-eu",
                                     batched=batched)
            for slot in WRITTEN_SLOTS:
                system.controller.write(slot * 64, payload(slot + 1))
            slots = (1, 5, OVERFLOW_SLOT)
            system.hierarchy.restore_dirty(
                [slot * 64 for slot in slots],
                [payload(0xA0 + slot) for slot in slots])
            _force_overflow(system.controller)
            system.crash(seed=7)
            return system

        scalar = run(batched=False)
        batched = run(batched=True)
        assert batched.nvm.backend.image() == scalar.nvm.backend.image()
        assert batched.stats.snapshot() == scalar.stats.snapshot()
        for system in (scalar, batched):
            assert major(system.controller.get_counter(0)) == 1
        # The re-encrypted page still decrypts after power restoration.
        for slot in (1, 5, OVERFLOW_SLOT):
            assert scalar.controller.read(slot * 64) == \
                payload(0xA0 + slot)
        for slot in WRITTEN_SLOTS:
            if slot != OVERFLOW_SLOT:
                assert scalar.controller.read(slot * 64) == \
                    payload(slot + 1)

    @pytest.mark.parametrize("scheme", ["base-lu", "base-eu", "horus-slm",
                                        "horus-dlm"])
    def test_overflow_survives_crash_and_recovery(self, scheme):
        """A run-time overflow re-encrypts the page before the crash; every
        secure scheme's drain and recovery then bring back the bumped
        major counter and the page's contents, and a batched system stays
        indistinguishable from a scalar one throughout."""

        def run(batched: bool) -> SecureEpdSystem:
            system = SecureEpdSystem(SystemConfig.scaled(512), scheme=scheme,
                                     batched=batched)
            for slot in WRITTEN_SLOTS:
                system.controller.write(slot * 64, payload(slot + 1))
            _force_overflow(system.controller)
            system.controller.write(OVERFLOW_SLOT * 64, payload(99))
            system.crash(seed=7)
            system.recover()
            return system

        scalar = run(batched=False)
        batched = run(batched=True)
        assert batched.nvm.backend.image() == scalar.nvm.backend.image()
        assert batched.stats.snapshot() == scalar.stats.snapshot()
        for system in (scalar, batched):
            assert major(system.controller.get_counter(0)) == 1
            assert system.read(OVERFLOW_SLOT * 64) == payload(99)
            for slot in WRITTEN_SLOTS:
                if slot != OVERFLOW_SLOT:
                    assert system.read(slot * 64) == payload(slot + 1)


class TestDrainVictimsOrdering:
    EXTRA = 8
    """Dirty lines touched beyond one set's capacity (= victims parked)."""

    def _fill_one_set(self, controller: SecureMemoryController
                      ) -> tuple[list[int], list[int]]:
        """Fill one counter-cache set past capacity with dirty lines.

        Counter blocks of consecutive 4 KiB pages are contiguous, so pages
        ``num_sets`` apart collide in one set.  Touching ``ways + EXTRA``
        of them dirty overfills the set: every insert past ``ways`` evicts
        that set's LRU line into the victim buffer.  Returns (data
        addresses, counter-block addresses) in touch order.
        """
        num_sets = controller.counter_cache.config.num_sets
        ways = controller.counter_cache.config.ways
        data_addresses = [page * num_sets * 4096
                          for page in range(ways + self.EXTRA)]
        cb_addresses = []
        for data_address in data_addresses:
            controller.get_counter(data_address)
            install_counter_block(controller, data_address,
                                  1 << MAJOR_COUNTER_BITS)
            cb_address = controller.layout.counter_block_address(data_address)
            controller.counter_cache.dirty.add(cb_address)
            cb_addresses.append(cb_address)
        return data_addresses, cb_addresses

    def test_full_set_parks_victims_in_eviction_order(self):
        controller = make_controller(batched=True)
        _, touched = self._fill_one_set(controller)
        parked = list(controller._victims)
        # LRU eviction of an EXTRA-line overshoot parks the oldest lines,
        # oldest first.
        assert parked == touched[:self.EXTRA]

    def test_drain_writes_back_in_fifo_order(self):
        controller = make_controller(batched=True)
        self._fill_one_set(controller)
        expected = list(controller._victims)

        written = []
        nvm_write = controller.nvm.write

        def recording_write(address, data, kind):
            written.append(address)
            return nvm_write(address, data, kind)

        controller.nvm.write = recording_write
        try:
            controller.drain_victims()
        finally:
            controller.nvm.write = nvm_write

        assert not controller._victims
        ordered = [address for address in written
                   if address in set(expected)]
        assert ordered == expected

    def test_drain_runs_cascades_to_fixed_point(self):
        """Writing a counter back refreshes its parent tree slot, which can
        evict the tree cache's own dirty victims mid-drain; the pass must
        absorb them too."""
        controller = make_controller(batched=True, scheme="eager")
        self._fill_one_set(controller)
        controller.drain_victims()
        assert not controller._victims
        assert not any(dirty for address, _, dirty in
                       controller.counter_cache.lines()
                       if address in controller._victims)

    def test_victim_hit_reclaims_newest_copy(self):
        """A lookup that hits the victim buffer absorbs the parked line
        instead of fetching a stale copy from NVM, and reinstalls it
        dirty."""
        controller = make_controller(batched=True)
        data_addresses, touched = self._fill_one_set(controller)
        victim_cb = touched[0]
        parked, kind = controller._victims[victim_cb]
        assert kind == "counter"
        assert parked != controller.nvm.peek(victim_cb)
        block = controller.get_counter(data_addresses[0])
        assert encode_counter(block) == parked
        assert victim_cb not in controller._victims
        assert victim_cb in controller.counter_cache.dirty


class TestSchemeHookFailureParity:
    """An eager write whose counter block is cached but whose level-1 tree
    node is not re-fetches that node in the scheme hook — after scalar
    issue has already stored the write's data MAC.  A tampered node then
    fails the write there, and the batched segment must leave the MAC
    cache, the victim buffer (the MAC victim parked where the write loop
    parks it) and the NVM image exactly as the loop does."""

    PAGES = [9 * i for i in range(160)]
    """Pages 9 apart: their counter blocks spread over the counter-cache
    sets and each sits under its own level-1 node, so the warm-up leaves
    cached counters whose level-1 node the tree cache has evicted."""

    def _path_cached(self, controller, cb_address: int) -> bool:
        layout = controller.layout
        level, index, _ = layout.parent_of_counter_block(cb_address)
        while True:
            if not controller.tree_cache.contains(
                    layout.tree_node_address(level, index)):
                return False
            if level == layout.num_tree_levels:
                return True
            level, index, _ = layout.parent_of_tree_node(level, index)

    def _run(self, batched: bool):
        controller = make_controller(batched, scheme="eager")
        for page in self.PAGES:
            controller.write(page * 4096 + 64 * (page % 64), payload(page))
        layout = controller.layout
        quiet, target = [], None
        for page in self.PAGES:
            cb_address = layout.counter_block_address(page * 4096)
            if not controller.counter_cache.contains(cb_address):
                continue
            if self._path_cached(controller, cb_address):
                quiet.append(page)
                continue
            level, index, _ = layout.parent_of_counter_block(cb_address)
            node = layout.tree_node_address(level, index)
            if target is None and not controller.tree_cache.contains(node):
                # A slot whose MAC block is uncached: its MAC store misses
                # and evicts a dirty MAC line into the victim buffer.
                slot = next(
                    slot for slot in range(64)
                    if not controller.mac_cache.contains(
                        layout.mac_block_address(page * 4096 + 64 * slot)))
                target = (page * 4096 + 64 * slot, node)
        assert quiet and target is not None
        address, node = target
        controller.nvm.backend.corrupt_block(node, b"\x5a" * 64)
        ops = [("w", page * 4096 + 128, payload(500 + page))
               for page in quiet[:8]] + [("w", address, payload(999))]
        with pytest.raises(IntegrityError) as failure:
            controller.run_ops_batch(ops)
        frames = [frame.name for frame in
                  traceback.extract_tb(failure.value.__traceback__)]
        return controller, str(failure.value), frames

    def test_failure_in_the_hook_matches_the_write_loop(self):
        batched, batched_error, _ = self._run(batched=True)
        scalar, scalar_error, frames = self._run(batched=False)
        assert "propagate_to_root" in frames
        assert batched_error == scalar_error
        scalar_state = controller_state(scalar)
        assert any(kind == "mac"
                   for _, kind, *_ in scalar_state["victim buffer"])
        batched_state = controller_state(batched)
        for name in scalar_state:
            assert batched_state[name] == scalar_state[name], name


class TestReparkedVictimFailureParity:
    """A victim parked before a write's MAC access can leave the buffer
    and come back behind that access's MAC victim, and then fail.

    The buffer holds counter block X, its level-1 parent V and counter
    block Y under another level-2 node.  X's writeback absorbs V; Y's
    writeback climbs a 2-way, 1-set tree cache and evicts V again, so V
    re-parks at the tail; V's own writeback then fetches its tampered
    level-2 parent and fails.  Scalar issue parked the write's MAC victim
    before V re-parked, so it wrote that victim out: the batched segment
    must too, though V's address was among the victims parked before the
    access."""

    def _run(self, batched: bool):
        base = SystemConfig.scaled(512)
        config = replace(base, security=replace(
            base.security, tree_cache_size=128, tree_cache_ways=2,
            mac_cache_size=128, mac_cache_ways=2))
        layout = MemoryLayout(config)
        stats = SimStats()
        controller = SecureMemoryController(
            config, NvmDevice(layout.total_size, stats), layout, stats,
            scheme="lazy", batched=batched)
        controller.get_counter(0)
        controller.tree_cache.clear()
        for data_address in (4096, 8192):
            # The MAC set is full of dirty lines: the write's MAC fill
            # parks one.
            controller.mac_cache.insert(
                layout.mac_block_address(data_address), bytes(64),
                dirty=True)
        x_block = layout.counter_block_address(64 * 4096)
        y_block = layout.counter_block_address(128 * 4096)
        v_node = layout.tree_node_address(1, 8)
        assert layout.parent_of_counter_block(x_block)[:2] == (1, 8)
        assert layout.parent_of_tree_node(1, 8)[:2] == (2, 1)
        assert layout.parent_of_counter_block(y_block)[:2] == (1, 16)
        assert layout.parent_of_tree_node(1, 16)[:2] == (2, 2)
        controller._victims[x_block] = (
            encode_counter(1 << MAJOR_COUNTER_BITS), "counter")
        controller._victims[v_node] = (controller._defaults.content(1),
                                       "tree")
        controller._victims[y_block] = (
            encode_counter(2 << MAJOR_COUNTER_BITS), "counter")
        controller.nvm.backend.corrupt_block(
            layout.tree_node_address(2, 1), b"\x5a" * 64)
        written = []
        nvm_write = controller.nvm.write

        def recording_write(address, data, kind):
            written.append(address)
            return nvm_write(address, data, kind)

        controller.nvm.write = recording_write
        with pytest.raises(IntegrityError) as failure:
            controller.run_ops_batch([("w", 0, payload(7))])
        return controller, str(failure.value), written

    def test_reparked_victim_failure_matches_the_write_loop(self):
        batched, batched_error, _ = self._run(batched=True)
        scalar, scalar_error, written = self._run(batched=False)
        assert scalar_error == "tree node (2,1) MAC mismatch"
        assert batched_error == scalar_error
        layout = scalar.layout
        mac_victim = layout.mac_block_address(4096)
        # The write loop wrote X, Y, then the MAC victim, and failed on the
        # re-parked V (never written).
        assert written == [0, layout.counter_block_address(64 * 4096),
                           layout.counter_block_address(128 * 4096),
                           mac_victim]
        scalar_state = controller_state(scalar)
        assert all(kind != "mac"
                   for _, kind, *_ in scalar_state["victim buffer"])
        batched_state = controller_state(batched)
        for name in scalar_state:
            assert batched_state[name] == scalar_state[name], name


class TestReadFailureParity:
    """A read stops a mixed segment in the counter phase too.  A read
    whose counter block was tampered fails after scalar issue has read its
    data block; a read of a bad address fails before anything.  Either
    way the ops before it complete and the state is the write loop's."""

    PAGES = [9 * i for i in range(120)]
    """Enough pages that the first ones' counter blocks were evicted (and
    written back) by the time the segment runs."""

    def _run(self, batched: bool, read_address: int):
        controller = make_controller(batched)
        for page in self.PAGES:
            controller.write(page * 4096, payload(page))
        assert not controller.counter_cache.contains(
            controller.layout.counter_block_address(0))
        controller.nvm.backend.corrupt_block(
            controller.layout.counter_block_address(0), b"\x3c" * 64)
        ops = [("w", self.PAGES[60] * 4096 + 64, payload(1)),
               ("r", self.PAGES[61] * 4096, None),
               ("r", read_address, None),
               ("w", self.PAGES[62] * 4096 + 64, payload(2))]
        with pytest.raises((IntegrityError, AddressError)) as failure:
            controller.run_ops_batch(ops)
        return controller, f"{failure.type.__name__}: {failure.value}"

    @pytest.mark.parametrize("read_address", [0, 3, -64, 1 << 40],
                             ids=["tampered-counter", "misaligned",
                                  "negative", "beyond-data"])
    def test_failing_read_matches_the_op_loop(self, read_address):
        batched, batched_error = self._run(True, read_address)
        scalar, scalar_error = self._run(False, read_address)
        assert batched_error == scalar_error
        scalar_state = controller_state(scalar)
        batched_state = controller_state(batched)
        for name in scalar_state:
            assert batched_state[name] == scalar_state[name], name


class TestTreeWalkFailureParity:
    """A tree walk that climbs through missing nodes and then fails
    verification stops in one exact state.

    A cold eager controller reads address 0 after its written path has
    gone home to NVM.  The counter fill walks tree levels 1..5 of
    ``scaled(512)``; the node at ``(level, 0)`` is tampered.  The walk
    reads and MACs every missing node up to the first resident or
    buffered ancestor (or the root register), then verifies top-down and
    installs each node that passed.  The literals below pin the request
    trace, the stats delta, and the tree cache (set order, LRU first) the
    failing read leaves behind.
    """

    TRACE = [(0x0, False), (0x4000000, False), (0x4900000, False),
             (0x4920000, False), (0x4924000, False), (0x4924800, False),
             (0x4924900, False)]
    STATS = {"reads": {"counter": 1, "data": 1, "tree_node": 5},
             "writes": {}, "macs": {"verify": 6}, "aes": {},
             "total_memory_requests": 7, "total_macs": 6}
    TREE_CACHE = {
        1: [(0x4924800, False), (0x4924000, False), (0x4920000, False),
            (0x4924900, False)],
        2: [(0x4924800, False), (0x4924000, False), (0x4924900, False)],
        3: [(0x4924800, False), (0x4924900, False)],
        4: [(0x4924900, False)],
    }

    def _cold_controller(self) -> SecureMemoryController:
        controller = make_controller(batched=True, scheme="eager")
        controller.write(0, payload(1))
        controller.flush_metadata()
        controller.drop_volatile_state()
        return controller

    def _failing_read(self, controller: SecureMemoryController,
                      level: int) -> tuple[str, dict]:
        controller.nvm.backend.corrupt_block(
            controller.layout.tree_node_address(level, 0), b"\x5a" * 64)
        before = controller.stats.copy()
        controller.nvm.trace = []
        with pytest.raises(IntegrityError) as failure:
            controller.read(0)
        return str(failure.value), controller.stats.diff(before).snapshot()

    @staticmethod
    def _tree_cache(controller: SecureMemoryController) -> list:
        return [(address, dirty)
                for address, _, dirty in controller.tree_cache.lines()]

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_tampered_level_stops_the_walk(self, level):
        controller = self._cold_controller()
        assert controller.layout.num_tree_levels == 5
        error, stats = self._failing_read(controller, level)
        assert error == f"tree node ({level},0) MAC mismatch"
        assert controller.nvm.trace == self.TRACE
        assert stats == self.STATS
        assert self._tree_cache(controller) == self.TREE_CACHE[level]
        assert (controller.tree_cache.hits,
                controller.tree_cache.misses) == (5, 10)
        assert not controller._victims

    def test_buffered_ancestor_ends_the_climb(self):
        """An ancestor parked in the victim buffer is absorbed, unread and
        unverified, and anchors the verification below it."""
        controller = self._cold_controller()
        node = controller.get_tree_node(3, 0)
        address = controller.layout.tree_node_address(3, 0)
        controller.tree_cache.invalidate(address)
        controller._victims[address] = (node, "tree")
        error, stats = self._failing_read(controller, 1)
        assert error == "tree node (1,0) MAC mismatch"
        assert controller.nvm.trace == self.TRACE[:4]
        assert stats == {
            "reads": {"counter": 1, "data": 1, "tree_node": 2},
            "writes": {}, "macs": {"verify": 3}, "aes": {},
            "total_memory_requests": 4, "total_macs": 3}
        assert self._tree_cache(controller) == [
            (0x4924800, False), (0x4924000, True), (0x4920000, False),
            (0x4924900, False)]
        assert (controller.tree_cache.hits,
                controller.tree_cache.misses) == (5, 11)
        assert not controller._victims


class TestVerifyFailureParity:
    """Stage 5 of a batched segment verifies its reads' data MACs after
    stages 1-4 ran for every op, so a data block tampered under a read is
    found once the segment's later writes are in NVM.  The call rolls back
    and re-runs on the scalar path: it raises the loop's error and leaves
    the loop's state, on every update scheme."""

    PAGES = [9 * i for i in range(120)]

    def _run(self, batched: bool, scheme: str, wear: bool = False,
             lead: int = 1):
        controller = make_controller(
            batched, scheme=(OsirisLazyScheme(stop_loss=8)
                             if scheme == "osiris" else scheme))
        if wear:
            controller.nvm.wear = WearTracker(controller.layout)
        for page in self.PAGES:
            controller.write(page * 4096, payload(page))
        tampered = self.PAGES[61] * 4096
        controller.nvm.backend.corrupt_block(tampered, b"\x3c" * 64)
        writes = [("w", page * 4096 + 64, payload(page))
                  for page in self.PAGES[60:82] if page != self.PAGES[61]]
        ops = writes[:lead] + [("r", tampered, None)] + writes[lead:]
        with pytest.raises(IntegrityError) as failure:
            controller.run_ops_batch(ops)
        assert str(failure.value) == f"data MAC mismatch at {tampered:#x}"
        return controller

    @pytest.mark.parametrize("lead", [1, 0],
                             ids=["write-first", "read-first"])
    @pytest.mark.parametrize("scheme", ["lazy", "eager", "osiris"])
    def test_failing_verify_matches_the_op_loop(self, scheme, lead):
        """``lead`` writes run before the read.  With none, the loop fails
        before any write has moved the root register."""
        scalar_state = controller_state(self._run(False, scheme, lead=lead))
        batched_state = controller_state(self._run(True, scheme, lead=lead))
        for name in scalar_state:
            assert batched_state[name] == scalar_state[name], name

    def test_wear_rolls_back_to_the_op_loop_counts(self):
        scalar = self._run(False, "lazy", wear=True).nvm.wear
        batched = self._run(True, "lazy", wear=True).nvm.wear
        assert batched._writes == scalar._writes

    def test_every_call_closes_the_journal(self):
        controller = self._run(True, "lazy")
        assert controller.nvm.backend.journal is None
        controller.run_ops_batch([("w", 0, payload(3)), ("r", 0, None)])
        assert controller.nvm.backend.journal is None
        with pytest.raises(TypeError):
            # Not a ReproError: no rollback, but the journal still closes.
            controller.run_ops_batch([("w", 64, None)])
        assert controller.nvm.backend.journal is None


class TestBatchedOnlyFailure:
    """A batched call that fails where the scalar re-run completes is a
    bug in the batched stages, never a result: it raises
    ``OracleDivergenceError``.  Planted by corrupting the batched VERIFY
    MACs only."""

    def test_batched_only_mismatch_is_a_divergence(self, monkeypatch):
        controller = make_controller(batched=True)
        controller.write(0, payload(1))
        corrupt_batched_verify_macs(monkeypatch)
        with pytest.raises(OracleDivergenceError,
                           match="scalar run of the same 2 ops completed"):
            controller.run_ops_batch([("w", 64, payload(2)),
                                      ("r", 0, None)])
        assert controller.nvm.backend.journal is None
        # The scalar re-run is what the call left behind.
        assert controller.read(64) == payload(2)

