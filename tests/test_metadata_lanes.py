"""Metadata-cache lanes hold immutable wire values.

The counter, tree and MAC caches are data-cache lanes
(``SetAssociativeCache``): a counter block is one int whose 64
little-endian bytes are its NVM form, a tree node or MAC block is 64 B
``bytes``, and the victim buffer parks every kind as its 64 B wire form.
Nothing in the controller may leave a mutable or wrapped value behind,
whatever path a line took to get there: fills, stores, overflows,
absorbed victims, drains and recovery restores.
"""

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.core.system import SecureEpdSystem
from repro.crypto.counters import major
from repro.secure.controller import SecureMemoryController

SCHEMES = [("base-lu", 0), ("base-lu", 8), ("base-eu", 0),
           ("horus-slm", 0), ("horus-dlm", 0)]
SCHEME_IDS = ["base-lu", "base-lu-osiris", "base-eu", "horus-slm",
              "horus-dlm"]

PAGES = range(0, 9 * 150, 9)
"""Pages 9 apart: more counter blocks and level-1 nodes than the scaled
metadata caches hold, so dirty lines of every kind are evicted."""

OVERFLOW_ADDRESS = 3 * 4096 + 5 * 64


def payload(tag: int) -> bytes:
    return tag.to_bytes(8, "little") * 8


def assert_wire_values(controller: SecureMemoryController) -> None:
    for address, block, _ in controller.counter_cache.lines():
        assert type(block) is int, hex(address)
        assert 0 <= block < 1 << 512, hex(address)
    for cache in (controller.tree_cache, controller.mac_cache):
        for address, value, _ in cache.lines():
            assert type(value) is bytes and len(value) == 64, hex(address)
    for address, (value, kind) in controller._victims.items():
        assert kind in ("counter", "tree", "mac")
        assert type(value) is bytes and len(value) == 64, hex(address)


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("scheme, stop_loss", SCHEMES, ids=SCHEME_IDS)
def test_mixed_workload_leaves_only_wire_values(scheme, stop_loss,
                                                batched):
    system = SecureEpdSystem(SystemConfig.scaled(512), scheme=scheme,
                             osiris_stop_loss=stop_loss, batched=batched)
    controller = system.controller
    assert controller is not None
    parked = []
    drain_victims = controller.drain_victims

    def checked_drain(*args, **kwargs):
        parked.extend(controller._victims.values())
        assert_wire_values(controller)
        return drain_victims(*args, **kwargs)

    controller.drain_victims = checked_drain

    written = {page * 4096 + 64 * (page % 64): payload(page)
               for page in PAGES}
    ops = [("w", address, data) for address, data in written.items()]
    # 128 writes to one line: the last wraps its minor counter.
    ops += [("w", OVERFLOW_ADDRESS, payload(1000 + i)) for i in range(128)]
    written[OVERFLOW_ADDRESS] = payload(1127)
    ops += [("r", address, None) for address in written]
    results = controller.run_ops_batch(ops)
    assert results[-len(written):] == list(written.values())
    assert major(controller.get_counter(OVERFLOW_ADDRESS)) == 1
    assert parked, "the workload must evict dirty metadata"
    assert {kind for _, kind in parked} >= {"counter", "mac"}
    assert_wire_values(controller)

    drop_volatile_state = controller.drop_volatile_state

    def checked_drop():
        assert_wire_values(controller)
        drop_volatile_state()

    controller.drop_volatile_state = checked_drop
    flushed = {(2000 + page) * 4096 + 64 * (page % 64): payload(5000 + page)
               for page in PAGES}
    system.hierarchy.restore_dirty(list(flushed), list(flushed.values()))
    system.crash(seed=2)
    system.recover()
    assert_wire_values(controller)
    for address, data in {**written, **flushed}.items():
        assert system.read(address) == data
    assert_wire_values(controller)


def make_controller() -> SecureMemoryController:
    system = SecureEpdSystem(SystemConfig.scaled(512), scheme="base-lu")
    assert system.controller is not None
    return system.controller


class TestSlotStores:
    """A slot store replaces exactly its 8 bytes and puts the new value,
    dirty, back in the lane."""

    def test_tree_slot_store_lands_in_the_lane(self):
        controller = make_controller()
        before = controller.get_tree_node(1, 0)
        after = controller._set_tree_slot(1, 0, 3, b"\x01" * 8)
        assert after[24:32] == b"\x01" * 8
        assert after[:24] + after[32:] == before[:24] + before[32:]
        address = controller.layout.tree_node_address(1, 0)
        assert controller.get_tree_node(1, 0) is after
        assert address in controller.tree_cache.dirty

    def test_data_mac_store_lands_in_the_lane(self):
        controller = make_controller()
        data_address = 5 * 64
        mb_address = controller.layout.mac_block_address(data_address)
        controller._store_data_mac(data_address, b"\x02" * 8)
        block = controller.mac_cache.lookup(mb_address)
        assert type(block) is bytes
        assert block == bytes(40) + b"\x02" * 8 + bytes(16)
        assert mb_address in controller.mac_cache.dirty
        assert controller._load_data_mac(data_address) == b"\x02" * 8


class TestRestoreMetadataLine:
    CONTENT = bytes(range(64))

    @pytest.mark.parametrize("region", ["counters", "tree", "macs"])
    def test_restore_installs_the_wire_value_dirty(self, region):
        controller = make_controller()
        layout = controller.layout
        address = {"counters": layout.counter_block_address(0),
                   "tree": layout.tree_node_address(1, 0),
                   "macs": layout.mac_block_address(0)}[region]
        controller.restore_metadata_line(address, self.CONTENT)
        cache = {"counters": controller.counter_cache,
                 "tree": controller.tree_cache,
                 "macs": controller.mac_cache}[region]
        assert list(controller.metadata_lines(cache)) == [
            (address, self.CONTENT, True)]

    def test_restore_that_would_evict_a_dirty_line_raises(self):
        controller = make_controller()
        cache = controller.counter_cache
        layout = controller.layout
        # Pages num_sets apart share one counter-cache set.
        pages = [page * cache.num_sets for page in range(cache.ways + 1)]
        for page in pages[:-1]:
            controller.restore_metadata_line(
                layout.counter_block_address(page * 4096), self.CONTENT)
        with pytest.raises(ConfigError, match="must not evict dirty"):
            controller.restore_metadata_line(
                layout.counter_block_address(pages[-1] * 4096),
                self.CONTENT)

    def test_restore_of_a_data_address_raises(self):
        with pytest.raises(ConfigError, match="not a metadata address"):
            make_controller().restore_metadata_line(0, self.CONTENT)
