"""Unit-conversion helpers."""

import pytest

from repro.common import units


class TestBinarySizes:
    def test_kib(self):
        assert units.kib(1) == 1024
        assert units.kib(64) == 65536

    def test_mib(self):
        assert units.mib(1) == 1024 ** 2
        assert units.mib(2) == 2 * 1024 ** 2

    def test_gib(self):
        assert units.gib(32) == 32 * 1024 ** 3

    def test_fractional_sizes_truncate_to_int(self):
        assert units.kib(1.5) == 1536
        assert isinstance(units.kib(1.5), int)


class TestCycleConversions:
    def test_ns_to_cycles_at_4ghz(self):
        # Table I: 150 ns read = 600 cycles, 500 ns write = 2000 cycles.
        assert units.ns_to_cycles(150) == 600
        assert units.ns_to_cycles(500) == 2000

    def test_ns_to_cycles_other_frequency(self):
        assert units.ns_to_cycles(100, frequency_hz=1_000_000_000) == 100

    def test_cycles_to_seconds_roundtrip(self):
        cycles = units.ns_to_cycles(500)
        assert units.cycles_to_seconds(cycles) == pytest.approx(500e-9)


class TestFormatBytes:
    @pytest.mark.parametrize("value,expected", [
        (64, "64B"),
        (1024, "1KiB"),
        (65536, "64KiB"),
        (2 * 1024 ** 2, "2MiB"),
        (32 * 1024 ** 3, "32GiB"),
    ])
    def test_exact_units(self, value, expected):
        assert units.format_bytes(value) == expected

    def test_non_multiple_falls_back_to_bytes(self):
        assert units.format_bytes(100) == "100B"
