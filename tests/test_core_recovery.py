"""Horus recovery: functional restore, estimator pinning, attack detection."""

import pytest

from repro.attacks.adversary import Adversary
from repro.common.config import SystemConfig
from repro.common.errors import IntegrityError, RecoveryError
from repro.common.units import mib
from repro.core.recovery import (
    estimate_recovery_seconds,
    estimate_recovery_stats,
)
from repro.core.system import SecureEpdSystem
from repro.stats.events import ReadKind


def _crashed_system(config, scheme="horus-slm", fill_seed=1, drain_seed=2):
    system = SecureEpdSystem(config, scheme=scheme)
    system.fill_worst_case(seed=fill_seed)
    system.crash(seed=drain_seed)
    return system


class TestFunctionalRecovery:
    @pytest.mark.parametrize("scheme", ["horus-slm", "horus-dlm"])
    def test_recovery_restores_every_line_bit_exact(self, tiny_config,
                                                    scheme):
        system = SecureEpdSystem(tiny_config, scheme=scheme)
        system.fill_worst_case(seed=1)
        expected = {address: data
                    for address, data, _ in system.hierarchy.llc.lines()}
        system.crash(seed=2)
        assert len(system.hierarchy) == 0
        report = system.recover()
        assert report.blocks_restored > 0
        restored = {address: data
                    for address, data, _ in system.hierarchy.llc.lines()}
        assert restored == expected

    def test_recovered_lines_are_dirty(self, tiny_config):
        system = _crashed_system(tiny_config)
        system.recover()
        assert all(dirty for _, _, dirty in system.hierarchy.llc.lines())

    def test_metadata_caches_are_restored(self, tiny_config):
        system = SecureEpdSystem(tiny_config, scheme="horus-slm")
        for i in range(8):                  # populate some metadata state
            system.controller.write(i * 4096, b"\x09" * 64)
        system.fill_worst_case(seed=1)
        resident_before = sum(len(c) for c in
                              system.controller.metadata_caches)
        system.crash(seed=2)
        system.recover()
        resident_after = sum(len(c) for c in
                             system.controller.metadata_caches)
        assert resident_after == resident_before > 0

    def test_edc_cleared_after_recovery(self, tiny_config):
        system = _crashed_system(tiny_config)
        system.recover()
        assert system.drain_counter.ephemeral == 0

    def test_recover_twice_raises(self, tiny_config):
        system = _crashed_system(tiny_config)
        system.recover()
        with pytest.raises(RecoveryError):
            system.recover()

    def test_recovery_reads_exactly_the_chv(self, tiny_config):
        system = _crashed_system(tiny_config)
        report = system.recover()
        assert report.stats.total_reads == report.stats.reads[ReadKind.CHV]
        vaulted = report.blocks_restored
        # data + 1/8 address blocks + 1/8 MAC blocks (SLM)
        assert report.stats.total_reads == \
            vaulted + 2 * -(-vaulted // 8)


class TestRecoveryAttackDetection:
    def test_tampered_chv_data_detected(self, tiny_config):
        system = _crashed_system(tiny_config)
        chv = system.drain_engine._chv
        Adversary(system.nvm).tamper(chv.data_address(5))
        with pytest.raises(IntegrityError):
            system.recover()

    def test_tampered_address_block_detected(self, tiny_config):
        system = _crashed_system(tiny_config)
        chv = system.drain_engine._chv
        Adversary(system.nvm).tamper(chv.address_block_address(0))
        with pytest.raises(IntegrityError):
            system.recover()

    def test_tampered_mac_block_detected(self, tiny_config):
        system = _crashed_system(tiny_config)
        chv = system.drain_engine._chv
        Adversary(system.nvm).tamper(chv.mac_block_address(0))
        with pytest.raises(IntegrityError):
            system.recover()

    def test_spliced_chv_blocks_detected(self, tiny_config):
        system = _crashed_system(tiny_config)
        chv = system.drain_engine._chv
        Adversary(system.nvm).splice(chv.data_address(0),
                                     chv.data_address(1))
        with pytest.raises(IntegrityError):
            system.recover()

    def test_replayed_previous_episode_detected(self, tiny_config):
        """Replay the whole first episode's CHV into the second: every DC
        value differs, so the very first MAC check must fail."""
        system = _crashed_system(tiny_config)
        chv = system.drain_engine._chv
        adversary = Adversary(system.nvm)
        stale = [adversary.snapshot(chv.data_address(i)) for i in range(16)]
        system.recover()
        system.fill_worst_case(seed=3)
        system.crash(seed=4)
        for i, content in enumerate(stale):
            adversary.replay(chv.data_address(i), content)
        with pytest.raises(IntegrityError):
            system.recover()

    def test_dlm_detects_tamper_in_any_group_member(self, tiny_config):
        system = _crashed_system(tiny_config, scheme="horus-dlm")
        chv = system.drain_engine._chv
        Adversary(system.nvm).tamper(chv.data_address(3))
        with pytest.raises(IntegrityError):
            system.recover()


class TestRecoveryEstimator:
    def test_estimator_matches_functional_recovery(self, tiny_config):
        """The Fig. 16 estimator must count exactly what the engine does."""
        system = _crashed_system(tiny_config)
        report = system.recover()
        estimate = estimate_recovery_stats(tiny_config,
                                           double_level_mac=False,
                                           blocks=report.blocks_restored)
        assert estimate.total_reads == report.stats.total_reads
        assert estimate.total_macs == report.stats.total_macs
        assert estimate.total_aes == report.stats.total_aes

    def test_estimator_matches_functional_recovery_dlm(self, tiny_config):
        system = _crashed_system(tiny_config, scheme="horus-dlm")
        report = system.recover()
        estimate = estimate_recovery_stats(tiny_config, double_level_mac=True,
                                           blocks=report.blocks_restored)
        assert estimate.total_reads == report.stats.total_reads
        assert estimate.total_macs == report.stats.total_macs

    def test_paper_scale_headline_numbers(self):
        """Fig. 16 at 128 MB LLC: 0.51 s (SLM) and 0.48 s (DLM)."""
        config = SystemConfig.paper(llc_size=mib(128))
        assert estimate_recovery_seconds(config, False) == \
            pytest.approx(0.51, abs=0.02)
        assert estimate_recovery_seconds(config, True) == \
            pytest.approx(0.48, abs=0.02)
