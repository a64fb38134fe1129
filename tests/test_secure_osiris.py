"""Osiris-style stop-loss counter persistence and post-crash reconstruction."""

import pytest

from repro.attacks.adversary import Adversary
from repro.common.errors import ConfigError, RecoveryError
from repro.core.system import SecureEpdSystem
from repro.crypto.counters import counter_for
from repro.secure.audit import audit_memory
from repro.secure.osiris import OsirisLazyScheme, OsirisRecovery
from tests.test_secure_controller import payload


def make_osiris_system(tiny_config, stop_loss=8):
    return SecureEpdSystem(tiny_config, scheme="base-lu",
                           osiris_stop_loss=stop_loss)


class TestStopLossWriteThrough:
    def test_scheme_name_and_validation(self):
        assert OsirisLazyScheme(4).name == "osiris"
        with pytest.raises(ConfigError):
            OsirisLazyScheme(0)

    def test_counters_persist_within_stop_loss(self, tiny_config):
        system = make_osiris_system(tiny_config, stop_loss=4)
        controller = system.controller
        for i in range(10):
            controller.write(0, payload(i))
        cb_address = controller.layout.counter_block_address(0)
        assert controller.nvm.backend.is_written(cb_address)
        persisted = int.from_bytes(controller.nvm.peek(cb_address), "little")
        live = controller.get_counter(0)
        staleness = counter_for(live, 0) - counter_for(persisted, 0)
        assert 0 <= staleness < 4

    def test_no_shadow_dump_at_drain(self, tiny_config):
        from repro.stats.events import WriteKind
        system = make_osiris_system(tiny_config)
        system.fill_worst_case(seed=1)
        report = system.crash(seed=2)
        assert report.stats.writes[WriteKind.SHADOW] == 0

    def test_drain_engine_still_reports_base_lu(self, tiny_config):
        system = make_osiris_system(tiny_config)
        assert system.drain_engine.name == "base-lu"

    def test_only_valid_on_base_lu(self, tiny_config):
        with pytest.raises(ConfigError):
            SecureEpdSystem(tiny_config, scheme="horus-slm",
                            osiris_stop_loss=4)


class TestOsirisRecovery:
    def test_full_crash_recover_cycle(self, tiny_config):
        system = make_osiris_system(tiny_config)
        for i in range(24):
            system.controller.write(i * 4096, payload(i))
        system.crash(seed=2)
        recovery = system.recover()
        assert recovery is not None
        assert recovery.blocks_restored > 0
        for i in range(24):
            assert system.controller.read(i * 4096) == payload(i)

    def test_recovered_memory_audits_clean(self, tiny_config):
        system = make_osiris_system(tiny_config)
        for i in range(16):
            system.controller.write(i * 4096, payload(i))
        system.crash(seed=2)
        system.recover()
        assert audit_memory(system.controller).clean

    def test_trials_bounded_by_stop_loss(self, tiny_config):
        system = make_osiris_system(tiny_config, stop_loss=4)
        for i in range(8):
            system.controller.write(i * 4096, payload(i))
        system.crash(seed=2)
        recovery = OsirisRecovery(system.controller, stop_loss=4)
        report = recovery.recover()
        assert report.counters_recovered >= 8
        assert report.trials <= report.counters_recovered * 5

    def test_hot_line_staleness_is_recovered(self, tiny_config):
        """Many rewrites of one line leave the NVM counter maximally stale;
        the trial must land on the exact live value."""
        system = make_osiris_system(tiny_config, stop_loss=8)
        for i in range(30):
            system.controller.write(0, payload(i))
        system.crash(seed=2)
        system.recover()
        assert system.controller.read(0) == payload(29)

    def test_rebuild_produces_verifiable_tree(self, tiny_config):
        """After reconstruction, cold reads must verify through the rebuilt
        tree and the refreshed root register."""
        system = make_osiris_system(tiny_config)
        for i in range(12):
            system.controller.write(i * 4096, payload(i))
        system.crash(seed=2)
        system.recover()
        system.controller.drop_volatile_state()   # force cold verification
        for i in range(12):
            assert system.controller.read(i * 4096) == payload(i)

    def test_tampered_data_defeats_reconstruction(self, tiny_config):
        """No candidate verifies a tampered block: recovery must refuse
        rather than accept a forged counter."""
        system = make_osiris_system(tiny_config)
        system.controller.write(0, payload(1))
        system.crash(seed=2)
        Adversary(system.nvm).tamper(0)
        with pytest.raises(RecoveryError):
            system.recover()

    def test_survives_minor_counter_overflow(self, tiny_config):
        """The forced persist at page re-encryption keeps recovery sound
        across a minor-counter wrap."""
        system = make_osiris_system(tiny_config, stop_loss=8)
        controller = system.controller
        controller.write(64, payload(1))          # neighbour in the page
        for i in range(130):                      # wrap slot 0's minor
            controller.write(0, payload(i))
        system.crash(seed=2)
        system.recover()
        assert controller.read(0) == payload(129)
        assert controller.read(64) == payload(1)
