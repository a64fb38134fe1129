"""The additive timing model against Table I parameters."""

import pytest

from repro.common.config import SystemConfig
from repro.stats.counters import SimStats
from repro.stats.events import AesKind, MacKind, ReadKind, WriteKind
from repro.stats.timing import TimingModel


@pytest.fixture(scope="module")
def model() -> TimingModel:
    return TimingModel(SystemConfig.paper())


class TestLatencyParameters:
    def test_table1_latencies(self, model):
        assert model.read_cycles == 600     # 150 ns @ 4 GHz
        assert model.write_cycles == 2000   # 500 ns @ 4 GHz
        assert model.mac_cycles == 160
        assert model.aes_cycles == 40


class TestCycleAccounting:
    def test_single_write(self, model):
        stats = SimStats()
        stats.record_write(WriteKind.DATA)
        assert model.cycles(stats) == 2000

    def test_mixed_operations(self, model):
        stats = SimStats()
        stats.record_read(ReadKind.COUNTER, 2)    # 1200
        stats.record_write(WriteKind.DATA, 3)     # 6000
        stats.record_mac(MacKind.VERIFY, 4)       # 640
        stats.record_aes(AesKind.ENCRYPT, 5)      # 200
        assert model.cycles(stats) == 8040

    def test_breakdown_components_sum_to_total(self, model):
        stats = SimStats()
        stats.record_read(ReadKind.DATA, 7)
        stats.record_write(WriteKind.CHV_DATA, 11)
        stats.record_mac(MacKind.CHV_DATA, 13)
        stats.record_aes(AesKind.DECRYPT, 17)
        bd = model.breakdown(stats)
        assert bd.total_cycles == model.cycles(stats)
        assert bd.memory_cycles == bd.read_cycles + bd.write_cycles
        assert bd.crypto_cycles == bd.mac_cycles + bd.aes_cycles

    def test_seconds_at_4ghz(self, model):
        stats = SimStats()
        stats.record_write(WriteKind.DATA, 4_000_000)  # 8e9 cycles
        assert model.seconds(stats) == pytest.approx(2.0)


class TestNonSecureDrainCalibration:
    def test_paper_nosec_drain_time(self):
        """295,936 serialized writes at 500 ns = 148 ms: the denominator of
        every Fig. 11 normalization."""
        config = SystemConfig.paper()
        stats = SimStats()
        stats.record_write(WriteKind.DATA, config.total_cache_lines)
        assert TimingModel(config).seconds(stats) == pytest.approx(
            0.1480, abs=1e-3)
