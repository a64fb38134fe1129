"""NVM wear tracking."""

import pytest

from repro.mem.nvm import NvmDevice
from repro.mem.regions import MemoryLayout
from repro.mem.wear import WearTracker
from repro.stats.events import WriteKind


@pytest.fixture
def tracked(tiny_config):
    layout = MemoryLayout(tiny_config)
    nvm = NvmDevice(layout.total_size)
    nvm.wear = WearTracker(layout)
    return nvm, layout


class TestWearTracker:
    def test_counts_repeated_writes_per_block(self, tracked):
        nvm, _ = tracked
        for _ in range(5):
            nvm.write(0, bytes(64), WriteKind.DATA)
        nvm.write(64, bytes(64), WriteKind.DATA)
        data = nvm.wear.wear_of("data")
        assert data.blocks_written == 2
        assert data.max_writes_per_block == 5
        assert nvm.wear.total_writes == 6

    def test_unaccounted_pokes_do_not_wear(self, tracked):
        nvm, _ = tracked
        nvm.poke(0, bytes(64))
        assert nvm.wear.total_writes == 0

    def test_region_wear_classifies_addresses(self, tracked):
        nvm, layout = tracked
        nvm.write(0, bytes(64), WriteKind.DATA)
        nvm.write(layout.counters.base, bytes(64), WriteKind.COUNTER)
        nvm.write(layout.chv.base, bytes(64), WriteKind.CHV_DATA)
        wear = {w.region: w for w in nvm.wear.region_wear()}
        assert wear["data"].total_writes == 1
        assert wear["counters"].total_writes == 1
        assert wear["chv"].total_writes == 1
        assert wear["tree"].total_writes == 0

    def test_region_wear_statistics(self, tracked):
        nvm, _ = tracked
        for _ in range(4):
            nvm.write(0, bytes(64), WriteKind.DATA)
        nvm.write(64, bytes(64), WriteKind.DATA)
        data = nvm.wear.wear_of("data")
        assert data.blocks_written == 2
        assert data.total_writes == 5
        assert data.max_writes_per_block == 4
        assert data.mean_writes_per_block == pytest.approx(2.5)

    def test_wear_of_unknown_region(self, tracked):
        nvm, _ = tracked
        with pytest.raises(KeyError):
            nvm.wear.wear_of("bogus")

    def test_untracked_device_has_no_overhead_path(self, tiny_config):
        layout = MemoryLayout(tiny_config)
        nvm = NvmDevice(layout.total_size)
        nvm.write(0, bytes(64), WriteKind.DATA)   # wear is None: no error
        assert nvm.wear is None


class TestWearExperimentShape:
    def test_wear_ablation_passes(self):
        from repro.experiments.suite import DrainSuite
        from repro.experiments.wear import run
        result = run(DrainSuite(scale=256))
        assert result.all_checks_pass, [c for c in result.checks
                                        if not c.passed]


class TestWearUnderBatchedEpisodes:
    """Wear rides the grouped paths: an ``ablation-wear``-shaped run (fill,
    crash, recover, repeated) gives the batched and scalar systems the same
    wear counts and NVM image."""

    ROUNDS = 2

    def _episodes(self, scheme: str, batched: bool):
        from repro.common.config import SystemConfig
        from repro.core.system import SecureEpdSystem
        system = SecureEpdSystem(SystemConfig.scaled(128), scheme=scheme,
                                 batched=batched)
        system.nvm.wear = WearTracker(system.layout)
        for episode in range(self.ROUNDS):
            system.fill_worst_case(seed=episode)
            system.crash(seed=100 + episode)
            system.recover()
        return system

    @pytest.mark.parametrize("scheme", ["base-lu", "horus-slm"])
    def test_batched_wear_equals_scalar(self, scheme):
        batched = self._episodes(scheme, batched=True)
        scalar = self._episodes(scheme, batched=False)
        assert batched.nvm.wear.total_writes > 0
        assert batched.nvm.wear.region_wear() == scalar.nvm.wear.region_wear()
        assert batched.nvm.wear._writes == scalar.nvm.wear._writes
        assert batched.nvm.wear.total_writes == scalar.nvm.wear.total_writes
        assert batched.nvm.backend.image() == scalar.nvm.backend.image()
        assert batched.stats.snapshot() == scalar.stats.snapshot()
