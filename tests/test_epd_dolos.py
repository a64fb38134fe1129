"""Dolos-style ADR: MSU-staged persists off the secure critical path."""

import pytest

from repro.common.constants import CACHE_LINE_SIZE
from repro.common.errors import ConfigError, IntegrityError
from repro.epd.adr import AdrSecureSystem
from repro.epd.dolos import DolosAdrSystem


@pytest.fixture
def dolos(tiny_config) -> DolosAdrSystem:
    return DolosAdrSystem(tiny_config, background_batch=8)


def payload(tag: int) -> bytes:
    return tag.to_bytes(8, "little") * 8


class TestPersistSemantics:
    def test_persisted_data_survives_crash_via_staging(self, dolos):
        dolos.write(0, payload(1))
        dolos.persist(0)
        assert dolos.staged_entries == 1
        dolos.crash()
        assert dolos.recover() == 1
        assert dolos.read(0) == payload(1)

    def test_background_replay_clears_the_staging_ring(self, dolos):
        for i in range(30):
            dolos.write(i * 4096, payload(i))
            dolos.persist(i * 4096)
        assert dolos.background_writes > 0
        assert dolos.staged_entries <= 8 + 1
        dolos.crash()
        dolos.recover()
        for i in range(30):
            assert dolos.read(i * 4096) == payload(i)

    def test_unpersisted_writes_are_lost(self, dolos):
        dolos.write(0, payload(1))
        dolos.crash()
        dolos.recover()
        assert dolos.read(0) == bytes(64)

    def test_staging_ring_wraps_safely(self, tiny_config):
        dolos = DolosAdrSystem(tiny_config, background_batch=4)
        # Far more persists than ring slots: forced background drains keep
        # the ring from overwriting live entries.
        for i in range(200):
            dolos.write((i % 50) * 4096, payload(i))
            dolos.persist((i % 50) * 4096)
        dolos.crash()
        dolos.recover()
        for i in range(150, 200):
            assert dolos.read((i % 50) * 4096) == payload(i)

    def test_rejects_bad_batch(self, tiny_config):
        with pytest.raises(ConfigError):
            DolosAdrSystem(tiny_config, background_batch=0)


def flip_bit(dolos: DolosAdrSystem, address: int, offset: int) -> None:
    """Flip the low bit of byte ``offset`` of the block at ``address``."""
    block = bytearray(dolos.nvm.backend.read_block(address))
    block[offset] ^= 1
    dolos.nvm.backend.corrupt_block(address, bytes(block))


class TestStagingRingIsAuthenticated:
    """A staged entry is its address block (address, then MAC) and its
    ciphertext block; recovery checks the MAC before it decrypts, so a
    tampered entry is detected instead of replayed as wrong data."""

    @pytest.mark.parametrize("block, offset", [(1, 0), (0, 8)],
                             ids=["ciphertext-bit", "mac-byte"])
    def test_tampered_entry_fails_recovery(self, dolos, block, offset):
        dolos.write(0, payload(1))
        dolos.persist(0)
        entry = dolos._staging.block_at(0)
        flip_bit(dolos, entry + block * CACHE_LINE_SIZE, offset)
        dolos.crash()
        with pytest.raises(IntegrityError, match="MAC mismatch"):
            dolos.recover()


class TestCriticalPathAdvantage:
    def test_dolos_persist_is_cheaper_than_plain_adr(self, tiny_config):
        """The Dolos claim: persist-critical-path cycles drop to a small
        constant independent of the tree depth."""
        plain = AdrSecureSystem(tiny_config)
        dolos = DolosAdrSystem(tiny_config, background_batch=64)
        for i in range(32):
            address = i * 65 * 64
            for system in (plain, dolos):
                system.write(address, payload(i))
                system.persist(address)
        assert dolos.persists == plain.persists
        assert dolos.persist_critical_cycles() < \
            0.9 * plain.persist_critical_cycles()

    def test_persist_cost_is_tree_depth_independent(self, tiny_config):
        dolos = DolosAdrSystem(tiny_config, background_batch=64)
        dolos.write(0, payload(1))
        dolos.persist(0)
        single = dolos.persist_critical_cycles()
        # One staging write + 1/8 address write + MAC + AES at Table I
        # latencies — nothing that scales with the memory size.
        t = dolos.timing
        assert single == (t.write_cycles + t.write_cycles // 8
                          + t.mac_cycles + t.aes_cycles)
