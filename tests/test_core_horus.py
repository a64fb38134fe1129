"""The Horus drain engine: operation-count contracts and CHV contents."""

import pytest

from repro.common.config import SystemConfig
from repro.core.system import SecureEpdSystem
from repro.stats.events import AesKind, MacKind, WriteKind


@pytest.fixture(scope="module")
def slm_report(tiny_config):
    system = SecureEpdSystem(tiny_config, scheme="horus-slm")
    system.fill_worst_case(seed=1)
    return system, system.crash(seed=2)


@pytest.fixture(scope="module")
def dlm_report(tiny_config):
    system = SecureEpdSystem(tiny_config, scheme="horus-dlm")
    system.fill_worst_case(seed=1)
    return system, system.crash(seed=2)


class TestHorusOperationContracts:
    def test_no_main_metadata_traffic_at_all(self, slm_report):
        """Horus's whole point: zero fetches/updates of the regular secure
        metadata during the drain."""
        _, report = slm_report
        assert report.total_reads == 0
        assert report.stats.writes[WriteKind.DATA] == 0
        assert report.stats.writes[WriteKind.COUNTER] == 0
        assert report.stats.writes[WriteKind.TREE_NODE] == 0
        assert report.stats.macs[MacKind.TREE_UPDATE] == 0
        assert report.stats.macs[MacKind.VERIFY] == 0

    def test_one_chv_data_write_per_flushed_line(self, slm_report):
        _, report = slm_report
        total_vaulted = report.flushed_blocks + report.metadata_blocks
        assert (report.stats.writes[WriteKind.CHV_DATA]
                + report.stats.writes[WriteKind.CHV_METADATA]) == total_vaulted

    def test_one_address_block_per_eight_lines(self, slm_report):
        _, report = slm_report
        vaulted = report.flushed_blocks + report.metadata_blocks
        assert report.stats.writes[WriteKind.CHV_ADDRESS] == -(-vaulted // 8)

    def test_slm_one_mac_block_per_eight_lines(self, slm_report):
        _, report = slm_report
        vaulted = report.flushed_blocks + report.metadata_blocks
        assert report.stats.writes[WriteKind.CHV_MAC] == -(-vaulted // 8)

    def test_slm_total_writes_are_1_25x(self, slm_report, tiny_config):
        _, report = slm_report
        vaulted = report.flushed_blocks + report.metadata_blocks
        assert report.total_writes == pytest.approx(1.25 * vaulted, rel=0.01)

    def test_one_aes_and_one_mac_per_line_slm(self, slm_report):
        _, report = slm_report
        vaulted = report.flushed_blocks + report.metadata_blocks
        assert report.stats.aes[AesKind.ENCRYPT] == vaulted
        assert report.stats.macs[MacKind.CHV_DATA] == vaulted
        assert report.stats.macs[MacKind.CHV_LEVEL2] == 0


class TestDoubleLevelMac:
    def test_dlm_one_mac_block_per_64_lines(self, dlm_report):
        _, report = dlm_report
        vaulted = report.flushed_blocks + report.metadata_blocks
        assert report.stats.writes[WriteKind.CHV_MAC] == -(-vaulted // 64)

    def test_dlm_spends_1_125x_macs(self, dlm_report):
        _, report = dlm_report
        vaulted = report.flushed_blocks + report.metadata_blocks
        assert report.stats.macs[MacKind.CHV_DATA] == vaulted
        assert report.stats.macs[MacKind.CHV_LEVEL2] == -(-vaulted // 8)

    def test_dlm_writes_fewer_blocks_than_slm(self, slm_report, dlm_report):
        assert dlm_report[1].total_writes < slm_report[1].total_writes

    def test_dlm_8x_fewer_mac_writes_than_slm(self, slm_report, dlm_report):
        slm_macs = slm_report[1].stats.writes[WriteKind.CHV_MAC]
        dlm_macs = dlm_report[1].stats.writes[WriteKind.CHV_MAC]
        # Exactly 8x up to the ceiling of the final partial groups.
        assert 7.0 <= slm_macs / dlm_macs <= 8.0


class TestDrainCounterBehaviour:
    def test_dc_advances_once_per_vaulted_block(self, slm_report):
        system, report = slm_report
        vaulted = report.flushed_blocks + report.metadata_blocks
        assert system.drain_counter.value == vaulted
        assert system.drain_counter.ephemeral == vaulted

    def test_two_episodes_never_reuse_dc_values(self, tiny_config):
        system = SecureEpdSystem(tiny_config, scheme="horus-slm")
        system.fill_worst_case(seed=1)
        system.crash(seed=2)
        first_end = system.drain_counter.value
        system.recover()
        system.fill_worst_case(seed=3)
        system.crash(seed=4)
        # The second episode started where the first ended: no reuse.
        assert system.drain_counter.value > first_end
        assert system.drain_counter.value - system.drain_counter.ephemeral \
            == first_end


class TestChvContents:
    def test_vaulted_blocks_are_ciphertext(self, slm_report):
        system, report = slm_report
        chv = system.drain_engine._chv
        # A vaulted block must not equal any plaintext pattern (all our fill
        # payloads repeat an 8-byte address tag; ciphertext will not).
        raw = system.nvm.peek(chv.data_address(0))
        assert raw[:8] != raw[8:16]

    def test_identical_plaintexts_vault_to_distinct_ciphertexts(self,
                                                                tiny_config):
        """Unique DC per flush: equal lines leak nothing (Section IV-C4)."""
        system = SecureEpdSystem(tiny_config, scheme="horus-slm")
        same = b"\x42" * 64
        system.hierarchy.restore_dirty(0, same)
        system.hierarchy.restore_dirty(4096, same)
        system.crash(seed=2)
        chv = system.drain_engine._chv
        assert system.nvm.peek(chv.data_address(0)) != \
            system.nvm.peek(chv.data_address(1))

    def test_drain_is_independent_of_flush_order(self, tiny_config):
        """Horus cost is oblivious to content/order (Section V-A)."""
        totals = set()
        for drain_seed in (2, 3, 4):
            system = SecureEpdSystem(tiny_config, scheme="horus-slm")
            system.fill_worst_case(seed=1)
            report = system.crash(seed=drain_seed)
            totals.add((report.total_memory_requests, report.total_macs))
        assert len(totals) == 1


TAIL_LENGTHS = (1, 7, 9, 63, 65)
"""Vault lengths that end an episode mid-register.  At 63 the DLM's last
second-level block fills only when the partial first-level register folds
into it; at 65 a single line follows a complete 64-line DLM group."""

HORUS_VARIANTS = [("horus-slm", False), ("horus-slm", True),
                  ("horus-dlm", False), ("horus-dlm", True)]


def _tail_line(index: int) -> bytes:
    return (index + 1).to_bytes(8, "little") * 8


def _tail_episode(scheme: str, rotate: bool, batched: bool, lines: int):
    """Drain exactly ``lines`` dirty lines (one page's consecutive lines,
    so none is evicted before the crash) and nothing else."""
    system = SecureEpdSystem(SystemConfig.scaled(512), scheme=scheme,
                             rotate_vault=rotate, batched=batched)
    for index in range(lines):
        system.hierarchy.restore_dirty(index * 64, _tail_line(index))
    return system, system.crash(seed=2)


class TestEpisodeTail:
    """Episodes whose vault count is not a multiple of a coalescing group:
    the partially filled address, MAC and second-level registers flush at
    episode end, in the scalar engine's order."""

    @pytest.mark.parametrize("lines", TAIL_LENGTHS)
    @pytest.mark.parametrize(
        "scheme,rotate", HORUS_VARIANTS,
        ids=[f"{s}+rot" if r else s for s, r in HORUS_VARIANTS])
    def test_scalar_and_batched_tails_agree(self, scheme, rotate, lines):
        scalar, scalar_report = _tail_episode(scheme, rotate, False, lines)
        batched, batched_report = _tail_episode(scheme, rotate, True, lines)
        assert scalar_report.flushed_blocks == lines
        assert scalar_report.metadata_blocks == 0
        assert batched.nvm.backend.image() == scalar.nvm.backend.image()
        assert batched_report.stats.snapshot() == \
            scalar_report.stats.snapshot()
        for system in (scalar, batched):
            system.recover()
            for index in range(lines):
                assert system.read(index * 64) == _tail_line(index)

    @pytest.mark.parametrize("lines", TAIL_LENGTHS)
    def test_dlm_tail_counts(self, lines):
        """The scalar DLM engine's partial registers cost what a full group
        costs: one address block and one second-level MAC per started
        group of 8, one MAC block per started group of 64."""
        _, report = _tail_episode("horus-dlm", False, False, lines)
        assert report.stats.macs[MacKind.CHV_DATA] == lines
        assert report.stats.macs[MacKind.CHV_LEVEL2] == -(-lines // 8)
        assert report.stats.writes[WriteKind.CHV_ADDRESS] == -(-lines // 8)
        assert report.stats.writes[WriteKind.CHV_MAC] == -(-lines // 64)
