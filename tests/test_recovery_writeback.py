"""Horus recovery option 2 (Section IV-C3): write recovered blocks back
through the main security metadata instead of refilling the LLC."""

import pytest

from repro.common.errors import ConfigError
from repro.core.system import SecureEpdSystem
from repro.workloads.generators import kvstore_trace, replay


@pytest.mark.parametrize("scheme", ["horus-slm", "horus-dlm"])
class TestWritebackRecovery:
    def test_data_lands_in_memory_not_the_llc(self, tiny_config, scheme):
        system = SecureEpdSystem(tiny_config, scheme=scheme,
                                 recovery_mode="writeback")
        system.fill_worst_case(seed=1)
        addresses = [address for address, _, _
                     in list(system.hierarchy.llc.lines())[:32]]
        system.crash(seed=2)
        system.recover()
        assert len(system.hierarchy.llc) == 0
        for address in addresses:
            assert system.nvm.backend.is_written(address)

    def test_recovered_data_readable_through_secure_path(self, tiny_config,
                                                         scheme):
        system = SecureEpdSystem(tiny_config, scheme=scheme,
                                 recovery_mode="writeback")
        trace = kvstore_trace(200, footprint_blocks=64, seed=41)
        expected = replay(system, trace)
        system.crash(seed=3)
        system.recover()
        for address, data in expected.items():
            assert system.read(address) == data

    def test_writeback_recovery_costs_more_than_refill(self, tiny_config,
                                                       scheme):
        """Option 2 replays every block through the secure write path, so it
        must issue strictly more operations than option 1."""
        def recover_with(mode):
            system = SecureEpdSystem(tiny_config, scheme=scheme,
                                     recovery_mode=mode)
            system.fill_worst_case(seed=1)
            system.crash(seed=2)
            return system.recover()

        refill = recover_with("refill")
        writeback = recover_with("writeback")
        assert writeback.stats.total_memory_requests > \
            refill.stats.total_memory_requests
        assert writeback.blocks_restored == refill.blocks_restored

    def test_survives_repeat_cycles(self, tiny_config, scheme):
        system = SecureEpdSystem(tiny_config, scheme=scheme,
                                 recovery_mode="writeback")
        system.write(0, b"\x61" * 64)
        system.crash(seed=2)
        system.recover()
        system.write(64, b"\x62" * 64)
        system.crash(seed=3)
        system.recover()
        assert system.read(0) == b"\x61" * 64
        assert system.read(64) == b"\x62" * 64


class TestModeValidation:
    def test_unknown_mode_rejected(self, tiny_config):
        with pytest.raises(ConfigError):
            SecureEpdSystem(tiny_config, scheme="horus-slm",
                            recovery_mode="teleport")
