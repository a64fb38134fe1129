"""The SecureEpdSystem facade."""

import pytest

from repro.attacks.adversary import Adversary
from repro.common.errors import ConfigError, DrainStateError, IntegrityError
from repro.core.system import SCHEMES, SecureEpdSystem


class TestConstruction:
    def test_all_five_schemes_construct(self, tiny_config):
        for scheme in SCHEMES:
            system = SecureEpdSystem(tiny_config, scheme=scheme)
            assert system.scheme == scheme

    def test_unknown_scheme_rejected(self, tiny_config):
        with pytest.raises(ConfigError):
            SecureEpdSystem(tiny_config, scheme="horus")

    def test_nosec_has_no_controller(self, tiny_config):
        system = SecureEpdSystem(tiny_config, scheme="nosec")
        assert system.controller is None
        assert system.drain_counter is None

    def test_runtime_scheme_selection(self, tiny_config):
        assert SecureEpdSystem(tiny_config, "base-lu").controller.scheme.name \
            == "lazy"
        assert SecureEpdSystem(tiny_config, "base-eu").controller.scheme.name \
            == "eager"
        # Horus runs recovery-oblivious lazy at run time (Section IV-B).
        assert SecureEpdSystem(tiny_config, "horus-slm").controller.scheme.name \
            == "lazy"

    def test_default_config_is_paper(self):
        system = SecureEpdSystem(scheme="nosec")
        assert system.config.total_cache_lines == 295936


class TestRuntimeInterface:
    @pytest.mark.parametrize("scheme", ["nosec", "base-lu", "horus-slm"])
    def test_write_read_roundtrip(self, tiny_config, scheme):
        system = SecureEpdSystem(tiny_config, scheme=scheme)
        system.write(0, b"\x11" * 64)
        system.write(4096, b"\x22" * 64)
        assert system.read(0) == b"\x11" * 64
        assert system.read(4096) == b"\x22" * 64

    def test_rejects_non_data_addresses(self, tiny_config):
        system = SecureEpdSystem(tiny_config, scheme="horus-slm")
        with pytest.raises(Exception):
            system.write(system.layout.counters.base, bytes(64))

    def test_writes_survive_in_cache_without_memory_traffic(self,
                                                            tiny_config):
        """The EPD premise: persistence = cache residency; once a line is
        resident, writes issue no NVM requests (no flush/fence needed)."""
        system = SecureEpdSystem(tiny_config, scheme="horus-slm")
        system.write(0, b"\x33" * 64)   # write-allocate fetch happens here
        before = system.stats.total_memory_requests
        for _ in range(100):
            system.write(0, b"\x34" * 64)
        assert system.stats.total_memory_requests == before


class TestCrashRecoverLifecycle:
    def test_recover_before_crash_raises(self, tiny_config):
        system = SecureEpdSystem(tiny_config, scheme="horus-slm")
        with pytest.raises(DrainStateError):
            system.recover()

    def test_nosec_and_eu_recover_return_none(self, tiny_config):
        for scheme in ("nosec", "base-eu"):
            system = SecureEpdSystem(tiny_config, scheme=scheme)
            system.fill_worst_case(seed=1)
            system.crash(seed=2)
            assert system.recover() is None

    def test_reports_are_recorded(self, tiny_config):
        system = SecureEpdSystem(tiny_config, scheme="horus-dlm")
        system.fill_worst_case(seed=1)
        report = system.crash(seed=2)
        assert system.last_drain is report
        recovery = system.recover()
        assert system.last_recovery is recovery

    def test_runtime_crash_recover_runtime_cycle(self, tiny_config):
        """Full life cycle: run, crash, recover, keep running."""
        system = SecureEpdSystem(tiny_config, scheme="horus-slm")
        system.write(0, b"\x44" * 64)
        system.write(4096, b"\x55" * 64)
        system.crash(seed=2)
        system.recover()
        assert system.read(0) == b"\x44" * 64
        assert system.read(4096) == b"\x55" * 64
        system.write(8192, b"\x66" * 64)
        assert system.read(8192) == b"\x66" * 64

    def test_two_full_cycles(self, tiny_config):
        system = SecureEpdSystem(tiny_config, scheme="horus-dlm")
        system.write(0, b"\x01" * 64)
        system.crash(seed=2)
        system.recover()
        system.write(64, b"\x02" * 64)
        system.crash(seed=3)
        system.recover()
        assert system.read(0) == b"\x01" * 64
        assert system.read(64) == b"\x02" * 64

    @pytest.mark.parametrize(
        "scheme", ["base-lu", "base-eu", "horus-slm", "horus-dlm"])
    def test_line_tampered_while_down_never_reads_back_clean(self,
                                                             tiny_config,
                                                             scheme):
        """Every MAC check runs on real bytes: a line tampered in NVM
        between crash and recovery fails the Horus vault check during
        recovery, or the baselines' next read of it."""
        system = SecureEpdSystem(tiny_config, scheme=scheme)
        system.write(0, b"\x5a" * 64)
        system.crash(seed=2)
        drained_to = (system.drain_engine._chv.data_address(0)
                      if scheme.startswith("horus") else 0)
        Adversary(system.nvm).tamper(drained_to)
        with pytest.raises(IntegrityError):
            system.recover()
            system.read(0)


class TestBaseLuRecovery:
    def test_base_lu_shadow_recovery_report(self, tiny_config):
        system = SecureEpdSystem(tiny_config, scheme="base-lu")
        system.fill_worst_case(seed=1)
        system.crash(seed=2)
        recovery = system.recover()
        assert recovery is not None
        assert recovery.blocks_restored > 0
        assert recovery.seconds > 0
