"""The run-time secure memory controller: functional protection, update
schemes, verification, and attack detection at the controller level."""

import pytest

from repro.attacks.adversary import Adversary
from repro.common.config import SystemConfig
from repro.common.errors import IntegrityError
from repro.crypto.counters import major
from repro.mem.nvm import NvmDevice
from repro.mem.regions import MemoryLayout
from repro.secure.controller import SecureMemoryController
from repro.stats.counters import SimStats
from repro.stats.events import MacKind, WriteKind


def make_controller(scheme: str = "lazy", scale: int = 512):
    config = SystemConfig.scaled(scale)
    layout = MemoryLayout(config)
    stats = SimStats()
    nvm = NvmDevice(layout.total_size, stats)
    controller = SecureMemoryController(config, nvm, layout, stats,
                                        scheme=scheme)
    return controller


def payload(tag: int) -> bytes:
    return tag.to_bytes(8, "little") * 8


class TestWriteReadRoundtrip:
    @pytest.mark.parametrize("scheme", ["lazy", "eager"])
    def test_roundtrip(self, scheme):
        controller = make_controller(scheme)
        controller.write(0, payload(1))
        controller.write(4096, payload(2))
        assert controller.read(0) == payload(1)
        assert controller.read(4096) == payload(2)

    def test_overwrite_returns_newest(self):
        controller = make_controller()
        controller.write(0, payload(1))
        controller.write(0, payload(2))
        assert controller.read(0) == payload(2)

    def test_data_in_nvm_is_ciphertext(self):
        controller = make_controller()
        controller.write(0, payload(7))
        assert controller.nvm.peek(0) != payload(7)

    def test_same_plaintext_two_addresses_distinct_ciphertext(self):
        controller = make_controller()
        controller.write(0, payload(7))
        controller.write(64, payload(7))
        assert controller.nvm.peek(0) != controller.nvm.peek(64)

    def test_rewrite_changes_ciphertext(self):
        """Temporal uniqueness: the counter advanced."""
        controller = make_controller()
        controller.write(0, payload(7))
        first = controller.nvm.peek(0)
        controller.write(0, payload(7))
        assert controller.nvm.peek(0) != first

    def test_unwritten_memory_reads_zeros(self):
        controller = make_controller()
        assert controller.read(8192) == bytes(64)


class TestUpdateSchemes:
    def test_lazy_write_leaves_root_stale(self):
        controller = make_controller("lazy")
        root_before = controller.root_mac
        controller.write(0, payload(1))
        assert controller.root_mac == root_before

    def test_eager_write_updates_root(self):
        controller = make_controller("eager")
        root_before = controller.root_mac
        controller.write(0, payload(1))
        assert controller.root_mac != root_before

    def test_lazy_marks_counter_dirty_in_cache(self):
        controller = make_controller("lazy")
        controller.write(0, payload(1))
        cb_address = controller.layout.counter_block_address(0)
        assert controller.counter_cache.contains(cb_address)
        assert cb_address in controller.counter_cache.dirty

    def test_eager_accounts_tree_update_macs(self):
        controller = make_controller("eager")
        controller.write(0, payload(1))
        levels = controller.layout.num_tree_levels
        # counter MAC + one MAC per node level (incl. root register refresh)
        assert controller.stats.macs[MacKind.TREE_UPDATE] == levels + 1

    def test_lazy_accounts_no_tree_update_on_write(self):
        controller = make_controller("lazy")
        controller.write(0, payload(1))
        assert controller.stats.macs[MacKind.TREE_UPDATE] == 0


class TestPersistencePaths:
    def test_eager_flush_then_cold_read(self):
        """Eager: flushing dirty metadata home suffices for recovery."""
        controller = make_controller("eager")
        controller.write(0, payload(1))
        controller.write(16384, payload(2))
        controller.flush_metadata()
        controller.drop_volatile_state()
        assert controller.read(0) == payload(1)
        assert controller.read(16384) == payload(2)

    def test_lazy_crash_without_flush_breaks_verification(self):
        """The paper's premise: lazily-updated metadata lost in a crash makes
        memory unverifiable (hence the metadata-cache flush / Anubis step)."""
        controller = make_controller("lazy")
        controller.write(0, payload(1))
        controller.drop_volatile_state()   # crash with dirty counters lost
        with pytest.raises(IntegrityError):
            controller.read(0)

    def test_lazy_flush_dumps_shadow_and_sets_root(self):
        controller = make_controller("lazy")
        controller.write(0, payload(1))
        controller.flush_metadata()
        assert controller.cache_tree_root is not None
        assert controller.shadow_count > 0
        assert controller.stats.writes[WriteKind.SHADOW] > 0
        assert controller.stats.macs[MacKind.CACHE_TREE] > 0


class TestVerificationAgainstAttacks:
    def _flushed_controller(self):
        """An eager controller with everything persisted and caches cold."""
        controller = make_controller("eager")
        controller.write(0, payload(1))
        controller.write(4096, payload(2))
        controller.flush_metadata()
        controller.drop_volatile_state()
        return controller

    def test_data_tamper_detected(self):
        controller = self._flushed_controller()
        Adversary(controller.nvm).tamper(0)
        with pytest.raises(IntegrityError):
            controller.read(0)

    def test_data_mac_tamper_detected(self):
        controller = self._flushed_controller()
        Adversary(controller.nvm).tamper(controller.layout.mac_block_address(0))
        with pytest.raises(IntegrityError):
            controller.read(0)

    def test_counter_tamper_detected(self):
        controller = self._flushed_controller()
        Adversary(controller.nvm).tamper(
            controller.layout.counter_block_address(0))
        with pytest.raises(IntegrityError):
            controller.read(0)

    def test_tree_node_tamper_detected(self):
        controller = self._flushed_controller()
        Adversary(controller.nvm).tamper(
            controller.layout.tree_node_address(1, 0))
        with pytest.raises(IntegrityError):
            controller.read(0)

    def test_data_splice_detected(self):
        controller = self._flushed_controller()
        Adversary(controller.nvm).splice(0, 4096)
        with pytest.raises(IntegrityError):
            controller.read(0)

    def test_counter_replay_detected(self):
        """Replay a stale-but-authentic counter block: the tree must refuse."""
        controller = make_controller("eager")
        controller.write(0, payload(1))
        controller.flush_metadata()
        adversary = Adversary(controller.nvm)
        stale = adversary.snapshot(controller.layout.counter_block_address(0))
        controller.drop_volatile_state()
        controller.write(0, payload(2))
        controller.flush_metadata()
        controller.drop_volatile_state()
        adversary.replay(controller.layout.counter_block_address(0), stale)
        with pytest.raises(IntegrityError):
            controller.read(0)

    def test_data_replay_detected(self):
        """Replay stale data+MAC pair: the advanced counter must refuse."""
        controller = self._flushed_controller()
        adversary = Adversary(controller.nvm)
        stale_data = adversary.snapshot(0)
        controller.write(0, payload(9))
        controller.flush_metadata()
        controller.drop_volatile_state()
        adversary.replay(0, stale_data)
        with pytest.raises(IntegrityError):
            controller.read(0)


class TestCounterOverflow:
    def test_minor_overflow_triggers_page_reencryption(self):
        controller = make_controller("eager")
        controller.write(0, payload(1))      # neighbour in the same page
        controller.write(64, payload(2))
        ct_before = controller.nvm.peek(0)
        for i in range(130):                 # force minor of slot 1 to wrap
            controller.write(64, payload(i))
        assert major(controller.get_counter(64)) >= 1
        # Neighbour was re-encrypted under the new major counter...
        assert controller.nvm.peek(0) != ct_before
        # ...and still decrypts to the original plaintext.
        assert controller.read(0) == payload(1)
        assert controller.read(64) == payload(129)


class TestVictimBufferConsistency:
    def test_heavy_sparse_traffic_stays_consistent(self):
        """More sparse writes than the counter cache can hold: every fetch,
        eviction cascade, and victim-buffer absorption must preserve
        functional correctness (lazy scheme)."""
        controller = make_controller("lazy")
        config = controller.layout.config
        blocks = (config.security.counter_cache_size // 64) * 4
        addresses = [i * 4096 for i in range(blocks)]
        for i, address in enumerate(addresses):
            controller.write(address, payload(i))
        for i, address in enumerate(addresses):
            assert controller.read(address) == payload(i)

    def test_victim_buffer_is_empty_between_operations(self):
        controller = make_controller("lazy")
        for i in range(64):
            controller.write(i * 4096, payload(i))
        assert len(controller._victims) == 0
