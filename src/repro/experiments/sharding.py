"""Shard-count scaling: aggregate throughput and drain energy (beyond paper).

Partitioning the NVM across N independent controller shards buys run-time
parallelism (each shard replays only its routed part of the trace, so
fleet wall time is the slowest shard) at a drain-energy cost (every shard
drains its own metadata floor).  This ablation sweeps the fleet size
1 -> 16 over one fixed multi-tenant workload and reports both curves, plus
the cross-shard drain wall under each power policy:

* ``simultaneous`` wall is the slowest shard, ``staggered`` the sum, and a
  ``budgeted`` schedule under half the fleet's draw lands in between;
* aggregate throughput grows with the fleet (the routed parts shrink);
* routing is total: the per-shard op counts sum to the plan's op count.
"""

from repro.common.units import cycles_to_seconds
from repro.experiments.result import ExperimentResult, ShapeCheck
from repro.experiments.suite import DRAIN_SEED, FILL_SEED, DrainSuite
from repro.sharding.drain import make_drain_policy, shard_power_w
from repro.sharding.pool import make_keyring, make_plan, ShardRunSpec
from repro.sharding.system import ShardedSecureSystem
from repro.stats.runtime import RuntimePerfModel
from repro.workloads.tenantmix import TenantMixer

SHARD_COUNTS = (1, 2, 4, 8, 16)
SHARD_SCHEME = "horus-dlm"
SHARD_TENANTS = 32
SHARD_OPS = 4096


def _fleet_episode(suite: DrainSuite, num_shards: int) -> dict[str, float]:
    """Replay + coordinated drain for one fleet size; measured curves."""
    config = suite.config()
    model = RuntimePerfModel(config)
    plan = make_plan(config, num_shards, SHARD_TENANTS, SHARD_OPS,
                     master_seed=FILL_SEED)
    spec = ShardRunSpec(config=config, num_shards=num_shards,
                        scheme=SHARD_SCHEME, plan=plan,
                        drain_seed=DRAIN_SEED)
    system = ShardedSecureSystem(config, num_shards=num_shards,
                                 scheme=SHARD_SCHEME,
                                 keyring=make_keyring(spec))
    parts = system.router.split(TenantMixer(plan).mix())

    # Replay each shard's part at its base offset and attribute run-time
    # cycles per shard; the fleet's wall clock is its slowest shard (shards
    # share nothing).
    shard_seconds = []
    for extent, shard_system, part in zip(system.router.extents,
                                          system.shards, parts):
        if not part:
            shard_seconds.append(0.0)
            continue
        breakdown = model.replay(shard_system, part, base=extent.base)
        shard_seconds.append(cycles_to_seconds(breakdown.total_cycles,
                                               config.frequency_hz))
    replay_wall = max(shard_seconds)

    # One coordinated drain; the policies only re-schedule the measured
    # episodes, so all three walls derive from the same reports.
    drain = system.crash(seed=DRAIN_SEED)
    powers = [shard_power_w(report, energy)
              for report, energy in zip(drain.reports, drain.energies)]
    budget_w = max(max(powers), sum(powers) / 2.0)
    staggered = make_drain_policy("staggered") \
        .schedule(drain.reports, drain.energies)
    budgeted = make_drain_policy("budgeted", budget_w) \
        .schedule(drain.reports, drain.energies)
    routed_ops = sum(len(part) for part in parts)
    return {
        "routed_ops": float(routed_ops),
        "replay_wall_s": replay_wall,
        "ops_per_s": SHARD_OPS / replay_wall if replay_wall else 0.0,
        "energy_j": drain.energy_j,
        "wall_simultaneous_s": drain.wall_seconds,
        "wall_staggered_s": staggered.wall_seconds,
        "wall_budgeted_s": budgeted.wall_seconds,
        "peak_simultaneous_w": drain.peak_power_w,
        "peak_budgeted_w": budgeted.peak_power_w,
        "budget_w": budget_w,
        "max_shard_drain_s": max(r.seconds for r in drain.reports),
        "sum_shard_drain_s": sum(r.seconds for r in drain.reports),
    }


def run(suite: DrainSuite) -> ExperimentResult:
    curves = {n: _fleet_episode(suite, n) for n in SHARD_COUNTS}

    rows = []
    for n in SHARD_COUNTS:
        c = curves[n]
        rows.append([
            n, int(c["routed_ops"]),
            c["replay_wall_s"] * 1e3, c["ops_per_s"] / 1e3,
            c["energy_j"],
            c["wall_simultaneous_s"] * 1e3,
            c["wall_budgeted_s"] * 1e3,
            c["wall_staggered_s"] * 1e3,
            c["peak_simultaneous_w"],
        ])

    first = curves[SHARD_COUNTS[0]]
    last = curves[SHARD_COUNTS[-1]]
    rel = 1e-9
    checks = [
        ShapeCheck(
            "routing is total: every fleet size replays exactly the "
            "plan's op count",
            all(curves[n]["routed_ops"] == SHARD_OPS for n in SHARD_COUNTS),
            f"{int(first['routed_ops'])} ops at every fleet size"),
        ShapeCheck(
            "aggregate throughput scales with the fleet (16 shards beat "
            "one shard by >2x)",
            last["ops_per_s"] > 2.0 * first["ops_per_s"],
            f"{first['ops_per_s'] / 1e3:.1f} -> "
            f"{last['ops_per_s'] / 1e3:.1f} kops/s"),
        ShapeCheck(
            "drain energy grows with the fleet (each shard pays its own "
            "metadata floor)",
            last["energy_j"] > first["energy_j"],
            f"{first['energy_j']:.3f} J -> {last['energy_j']:.3f} J"),
        ShapeCheck(
            "simultaneous wall is the slowest shard; staggered wall is "
            "the sum",
            all(abs(curves[n]["wall_simultaneous_s"]
                    - curves[n]["max_shard_drain_s"])
                <= rel + rel * curves[n]["max_shard_drain_s"]
                and abs(curves[n]["wall_staggered_s"]
                        - curves[n]["sum_shard_drain_s"])
                <= rel + rel * curves[n]["sum_shard_drain_s"]
                for n in SHARD_COUNTS),
            f"at 16 shards: {last['wall_simultaneous_s'] * 1e3:.2f} ms vs "
            f"{last['wall_staggered_s'] * 1e3:.2f} ms"),
        ShapeCheck(
            "the budgeted wall interpolates between the extremes and "
            "respects its watt cap",
            all(curves[n]["wall_simultaneous_s"] - rel
                <= curves[n]["wall_budgeted_s"]
                <= curves[n]["wall_staggered_s"] + rel
                and curves[n]["peak_budgeted_w"]
                <= curves[n]["budget_w"] * (1.0 + rel)
                for n in SHARD_COUNTS),
            f"at 16 shards: {last['wall_budgeted_s'] * 1e3:.2f} ms under "
            f"{last['budget_w']:.1f} W"),
    ]
    return ExperimentResult(
        experiment_id="ablation-shards",
        title=f"Fleet scaling 1 -> {SHARD_COUNTS[-1]} shards "
              f"({SHARD_SCHEME}, {SHARD_TENANTS} tenants)",
        headers=["shards", "ops", "replay ms", "kops/s", "drain J",
                 "wall sim ms", "wall budg ms", "wall stag ms", "peak W"],
        rows=rows,
        paper_expectation="(beyond paper, Section VI direction) sharding "
                          "buys run-time parallelism and pays a per-shard "
                          "drain-energy floor; power policies trade wall "
                          "time against peak draw",
        checks=checks,
    )
