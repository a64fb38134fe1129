"""Edge cases and failure paths across the stack."""

import pytest

from repro.common.errors import AddressError, ConfigError, RecoveryError
from repro.core.chv import ChvLayout
from repro.core.system import SCHEMES, SecureEpdSystem
from repro.epd.adr import AdrSecureSystem
from repro.epd.bbb import BbbSecureSystem
from repro.mem.regions import MemoryLayout, Region

#: Every system with a run-time ``write``: the five paper schemes, ADR and
#: BBB.
WRITERS = {
    **{scheme: (lambda config, scheme=scheme:
                SecureEpdSystem(config, scheme=scheme)) for scheme in SCHEMES},
    "adr": AdrSecureSystem,
    "bbb": BbbSecureSystem,
}


class TestEmptyDrains:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_draining_an_empty_hierarchy(self, tiny_config, scheme):
        system = SecureEpdSystem(tiny_config, scheme=scheme)
        report = system.crash(seed=1)
        assert report.flushed_blocks == 0
        assert report.total_writes == 0
        assert report.seconds == 0.0

    def test_horus_recover_after_empty_drain_raises(self, tiny_config):
        system = SecureEpdSystem(tiny_config, scheme="horus-slm")
        system.crash(seed=1)
        with pytest.raises(RecoveryError):
            system.recover()

    def test_two_crashes_without_recovery(self, tiny_config):
        """A second outage before recovery: the second (empty) episode
        replaces the first — consistent with eDC semantics."""
        system = SecureEpdSystem(tiny_config, scheme="horus-slm")
        system.write(0, b"\x01" * 64)
        system.crash(seed=1)
        second = system.crash(seed=2)
        assert second.flushed_blocks == 0
        assert system.drain_counter.ephemeral == 0


class TestChvOverflow:
    def test_vault_capacity_is_enforced(self, tiny_config):
        system = SecureEpdSystem(tiny_config, scheme="horus-slm")
        layout = MemoryLayout(tiny_config)
        # Shrink the engine's vault to 64 positions and overfeed it.
        system.drain_engine._chv = ChvLayout(layout.chv, capacity=64)
        system.hierarchy.restore_dirty([i * 4096 for i in range(65)],
                                       [bytes(64)] * 65)
        with pytest.raises(ConfigError):
            system.crash(seed=1)


class TestRegionEdges:
    def test_region_block_bounds(self):
        region = Region("r", 0, 128)
        assert region.block_at(0) == 0
        assert region.block_at(1) == 64
        with pytest.raises(AddressError):
            region.block_at(2)

    def test_empty_region_contains_nothing(self):
        region = Region("empty", 1024, 0)
        assert not region.contains(1024)

    def test_layout_total_size_bounds_every_region(self, tiny_config):
        layout = MemoryLayout(tiny_config)
        for region in layout.regions:
            assert region.end <= layout.total_size


class TestSystemMisuse:
    def test_write_outside_data_region(self, tiny_config):
        system = SecureEpdSystem(tiny_config, scheme="horus-slm")
        with pytest.raises(AddressError):
            system.write(system.layout.counters.base, bytes(64))

    @pytest.mark.parametrize("payload", [b"short", bytes(65), None],
                             ids=["short", "long", "none"])
    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_write_rejects_a_payload_that_is_not_one_line(
            self, small_config, name, payload):
        """The bad call raises, before any state changes — not a later
        crash() far from it."""
        system = WRITERS[name](small_config)
        system.write(0x20000, b"\x01" * 64)
        hierarchy = system.hierarchy

        def state():
            return ([list(level.lines()) for level in hierarchy.levels],
                    [(level.hits, level.misses)
                     for level in hierarchy.levels],
                    dict(hierarchy.access_counts),
                    system.stats.snapshot())

        before = state()
        with pytest.raises(ValueError, match="64 B"):
            system.write(0x20040, payload)
        with pytest.raises(ValueError, match="64 B"):
            system.write(0x20000, payload)
        assert state() == before

    def test_unaligned_runtime_address(self, tiny_config):
        system = SecureEpdSystem(tiny_config, scheme="nosec")
        with pytest.raises(AddressError):
            system.read(7)

    def test_fill_after_runtime_writes_resets_cleanly(self, tiny_config):
        system = SecureEpdSystem(tiny_config, scheme="horus-slm")
        system.write(0, b"\x09" * 64)
        filled = system.fill_worst_case(seed=1)
        assert filled == tiny_config.total_cache_lines
        report = system.crash(seed=2)
        assert report.flushed_blocks == filled


class TestDrainReportDerived:
    def test_milliseconds_property(self, tiny_config):
        system = SecureEpdSystem(tiny_config, scheme="nosec")
        system.fill_worst_case(seed=1)
        report = system.crash(seed=2)
        assert report.milliseconds == pytest.approx(report.seconds * 1e3)
        assert report.total_memory_requests == \
            report.total_reads + report.total_writes


class TestDeterminism:
    @pytest.mark.parametrize("scheme", ["base-lu", "horus-dlm"])
    def test_identical_seeds_identical_reports(self, tiny_config, scheme):
        def run():
            system = SecureEpdSystem(tiny_config, scheme=scheme)
            system.fill_worst_case(seed=5)
            report = system.crash(seed=6)
            return (report.total_memory_requests, report.total_macs,
                    report.cycles)

        assert run() == run()

    def test_different_fill_seeds_change_baseline_order_not_totals(
            self, tiny_config):
        """Shuffling the worst-case fill moves addresses around but every
        line still owns a private counter page, so the baseline totals stay
        within a narrow band."""
        def requests(seed):
            system = SecureEpdSystem(tiny_config, scheme="base-lu")
            system.fill_worst_case(seed=seed)
            return system.crash(seed=9).total_memory_requests

        a, b = requests(1), requests(2)
        assert abs(a - b) / a < 0.05
