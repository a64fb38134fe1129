"""Closed-form drain cost models, pinned against the simulator."""

import pytest

from repro.common.config import SystemConfig
from repro.core.analytic import (
    horus_drain_cost,
    horus_drain_seconds,
    validate_baseline_report,
    validate_horus_report,
)
from repro.core.system import SecureEpdSystem


class TestClosedForm:
    def test_slm_formula(self):
        cost = horus_drain_cost(296000, double_level_mac=False)
        assert cost.data_writes == 296000
        assert cost.address_writes == 37000
        assert cost.mac_writes == 37000
        assert cost.total_writes == 370000            # exactly 1.25x
        assert cost.mac_computations == 296000
        assert cost.aes_operations == 296000

    def test_dlm_formula(self):
        cost = horus_drain_cost(296000, double_level_mac=True)
        assert cost.mac_writes == 4625
        assert cost.mac_computations == 296000 + 37000  # 1.125x

    def test_ceiling_behaviour(self):
        cost = horus_drain_cost(9, double_level_mac=True)
        assert cost.address_writes == 2
        assert cost.mac_writes == 1
        assert cost.mac_computations == 9 + 2

    def test_as_stats_roundtrip(self):
        cost = horus_drain_cost(100, double_level_mac=False)
        stats = cost.as_stats()
        assert stats.total_writes == cost.total_writes
        assert stats.total_macs == cost.mac_computations
        assert stats.total_aes == cost.aes_operations

    def test_paper_scale_drain_time(self):
        """Full-scale worst-case Horus-SLM drain ~ 0.21 s under Table I
        parameters (the simulated run measures 0.1998 s with an empty
        metadata cache; the closed form includes a full one)."""
        seconds = horus_drain_seconds(SystemConfig.paper(), False)
        assert seconds == pytest.approx(0.211, abs=0.005)


class TestSimulatorPinning:
    @pytest.mark.parametrize("scheme", ["horus-slm", "horus-dlm"])
    def test_simulated_horus_matches_closed_form_exactly(self, tiny_config,
                                                         scheme):
        system = SecureEpdSystem(tiny_config, scheme=scheme)
        system.fill_worst_case(seed=1)
        report = system.crash(seed=2)
        validate_horus_report(report)   # raises on any divergence
        cost = horus_drain_cost(report.flushed_blocks
                                + report.metadata_blocks,
                                double_level_mac=scheme == "horus-dlm")
        assert report.total_memory_requests == cost.total_memory_requests

    @pytest.mark.parametrize("scheme", ["base-lu", "base-eu"])
    def test_simulated_baselines_satisfy_invariants(self, tiny_config,
                                                    scheme):
        system = SecureEpdSystem(tiny_config, scheme=scheme)
        system.fill_worst_case(seed=1)
        report = system.crash(seed=2)
        validate_baseline_report(report)

    def test_validation_rejects_doctored_horus_report(self, tiny_config):
        system = SecureEpdSystem(tiny_config, scheme="horus-slm")
        system.fill_worst_case(seed=1)
        report = system.crash(seed=2)
        from repro.stats.events import WriteKind
        report.stats.record_write(WriteKind.CHV_DATA, 1)  # corrupt the count
        with pytest.raises(AssertionError):
            validate_horus_report(report)
