"""Cross-shard drain policies: scheduling algebra and policy invariance.

Policies place already-measured per-shard episodes on a timeline; they must
never change *what* a shard drains.  The scheduling extremes are exact:
simultaneous is (wall = max, peak = sum), staggered is (wall = sum,
peak = max), and the budgeted greedy interpolates between them without ever
crossing its watt cap.
"""

import pytest

from repro.common.errors import ConfigError
from repro.sharding.drain import (
    DRAIN_POLICIES,
    BudgetedDrain,
    SimultaneousDrain,
    StaggeredDrain,
    make_drain_policy,
)
from repro.sharding.system import ShardedSecureSystem

EPISODES = [(2.0, 8.0), (1.0, 6.0), (4.0, 4.0)]
POWERS = [4.0, 6.0, 1.0]


class TestScheduleExtremes:
    def test_simultaneous_wall_max_peak_sum(self):
        schedule = SimultaneousDrain().schedule_measured(EPISODES)
        assert schedule.wall_seconds == 4.0
        assert schedule.peak_power_w == pytest.approx(sum(POWERS))
        assert all(slot.start_s == 0.0 for slot in schedule.slots)
        assert schedule.energy_j == pytest.approx(18.0)

    def test_staggered_wall_sum_peak_max(self):
        schedule = StaggeredDrain().schedule_measured(EPISODES)
        assert schedule.wall_seconds == pytest.approx(7.0)
        assert schedule.peak_power_w == pytest.approx(max(POWERS))
        starts = [slot.start_s for slot in schedule.slots]
        assert starts == [0.0, 2.0, 3.0]

    def test_slot_powers_are_energy_over_time(self):
        schedule = SimultaneousDrain().schedule_measured(EPISODES)
        assert [slot.power_w for slot in schedule.slots] == \
            pytest.approx(POWERS)

    def test_zero_length_episodes_draw_nothing(self):
        schedule = SimultaneousDrain().schedule_measured(
            [(0.0, 0.0), (2.0, 4.0)])
        assert schedule.wall_seconds == 2.0
        assert schedule.peak_power_w == pytest.approx(2.0)
        assert schedule.slots[0].power_w == 0.0


class TestBudgetedInterpolation:
    def test_generous_budget_degenerates_to_simultaneous(self):
        generous = BudgetedDrain(sum(POWERS)).schedule_measured(EPISODES)
        simultaneous = SimultaneousDrain().schedule_measured(EPISODES)
        assert [slot.start_s for slot in generous.slots] == \
            [slot.start_s for slot in simultaneous.slots]
        assert generous.wall_seconds == simultaneous.wall_seconds

    def test_tight_budget_degenerates_to_staggered(self):
        episodes = [(1.0, 5.0)] * 3
        tight = BudgetedDrain(5.0).schedule_measured(episodes)
        staggered = StaggeredDrain().schedule_measured(episodes)
        assert [slot.start_s for slot in tight.slots] == \
            [slot.start_s for slot in staggered.slots]
        assert tight.wall_seconds == pytest.approx(3.0)

    def test_intermediate_budget_interpolates_and_respects_cap(self):
        budget = 7.0
        schedule = BudgetedDrain(budget).schedule_measured(EPISODES)
        simultaneous = SimultaneousDrain().schedule_measured(EPISODES)
        staggered = StaggeredDrain().schedule_measured(EPISODES)
        assert simultaneous.wall_seconds <= schedule.wall_seconds \
            <= staggered.wall_seconds
        assert schedule.peak_power_w <= budget * (1 + 1e-9)
        assert schedule.energy_j == pytest.approx(simultaneous.energy_j)

    def test_infeasible_single_shard_raises(self):
        with pytest.raises(ConfigError, match="no schedule exists"):
            BudgetedDrain(5.0).schedule_measured(EPISODES)


class TestValidation:
    def test_registry_names(self):
        assert DRAIN_POLICIES == ("simultaneous", "staggered", "budgeted")
        for name in ("simultaneous", "staggered"):
            assert make_drain_policy(name).name == name
        assert make_drain_policy("budgeted", 3.0).name == "budgeted"

    def test_policy_instances_pass_through(self):
        policy = StaggeredDrain()
        assert make_drain_policy(policy) is policy

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="unknown drain policy"):
            make_drain_policy("round-robin")

    def test_budgeted_requires_a_budget(self):
        with pytest.raises(ConfigError, match="power_budget_w"):
            make_drain_policy("budgeted")
        with pytest.raises(ConfigError, match="positive"):
            BudgetedDrain(0.0)

    def test_schedule_rejects_mismatched_lengths(self, tiny_config):
        fleet = ShardedSecureSystem(tiny_config, num_shards=2,
                                    scheme="base-eu")
        fleet.write(0, bytes(64))
        report = fleet.crash(seed=5)
        with pytest.raises(ConfigError, match="drain reports"):
            SimultaneousDrain().schedule(report.reports,
                                         report.energies[:1])


class TestPolicyInvariance:
    """Policies schedule; shards drain identically regardless."""

    def drained_fleet(self, config, policy, **kwargs):
        fleet = ShardedSecureSystem(config, num_shards=2,
                                    scheme="horus-dlm", drain_policy=policy,
                                    **kwargs)
        size = fleet.router.shard_data_size
        for i in range(6):
            fleet.write((i % 2) * size + i * 64, bytes([i + 1]) * 64)
        fleet.crash(seed=17)
        return fleet

    def test_per_shard_drain_observables_are_policy_invariant(
            self, tiny_config):
        """Same fleet, same traffic, different policy: every per-shard
        observable (image hash, stats, drained blocks) is identical."""
        simultaneous = self.drained_fleet(tiny_config, "simultaneous")
        staggered = self.drained_fleet(tiny_config, "staggered")
        budgeted = self.drained_fleet(tiny_config, "budgeted",
                                      power_budget_w=1e6)
        assert simultaneous.observables() == staggered.observables() == \
            budgeted.observables()
        walls = {fleet.last_drain.schedule.policy: fleet.last_drain
                 for fleet in (simultaneous, staggered, budgeted)}
        assert walls["staggered"].wall_seconds == pytest.approx(
            sum(r.seconds for r in walls["staggered"].reports))
        assert walls["simultaneous"].wall_seconds == pytest.approx(
            max(r.seconds for r in walls["simultaneous"].reports))

    @pytest.mark.parametrize("policy", ["simultaneous", "staggered"])
    def test_report_totals_fold_the_shards(self, tiny_config, policy):
        """Energy and requests are per-shard sums whatever the policy; the
        peak power is the schedule's (sum of shard powers when they
        overlap, the largest one when staggered)."""
        fleet = self.drained_fleet(tiny_config, policy)
        drain = fleet.last_drain
        assert fleet.num_shards == len(drain.reports) == 2
        assert drain.energy_j == drain.schedule.energy_j == pytest.approx(
            sum(energy.total_j for energy in drain.energies))
        powers = [slot.power_w for slot in drain.schedule.slots]
        expected_peak = sum(powers) if policy == "simultaneous" \
            else max(powers)
        assert drain.peak_power_w == pytest.approx(expected_peak)
        assert drain.total_memory_requests == sum(
            shard.last_drain.total_memory_requests for shard in fleet.shards)
        assert drain.total_memory_requests > 0

    def test_schedule_equals_schedule_measured(self, tiny_config):
        """The report-level wrapper and the bare-measurement core agree,
        so pooled runs (floats only) schedule exactly like in-process."""
        fleet = self.drained_fleet(tiny_config, "simultaneous")
        drain = fleet.last_drain
        for name in ("simultaneous", "staggered"):
            policy = make_drain_policy(name)
            assert policy.schedule(drain.reports, drain.energies) == \
                policy.schedule_measured(
                    [(r.seconds, e.total_j)
                     for r, e in zip(drain.reports, drain.energies)])
