"""Process-pool fan-out of shard episodes.

Shards share nothing, so a sharded episode parallelizes perfectly: each
worker rebuilds its shard's world from a picklable :class:`ShardRunSpec`
(config + tenant-mix plan + seeds — never serialized op streams), replays
its part of the routed mix at the shard's base offset through a solo
controller keyed exactly like the sharded system's shard, drains, and
returns the shard's observables.

Because workers regenerate traces deterministically from the spec, the
pooled result is byte-identical to the in-process
:class:`~repro.sharding.system.ShardedSecureSystem` run over the same spec
(:func:`run_inprocess` is the comparison twin the tests use).
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.common.rng import spread_seed
from repro.core.system import SecureEpdSystem
from repro.energy.model import EnergyModel
from repro.mem.regions import MemoryLayout
from repro.sharding.keys import TenantKeyring
from repro.sharding.router import ShardRouter
from repro.sharding.system import (
    ShardedSecureSystem,
    ShardObservables,
    count_writes,
    observe,
    shard_key_schedules,
)
from repro.workloads.replay import DEFAULT_EPOCH_OPS, replay
from repro.workloads.tenantmix import TenantMixer, TenantMixPlan


@dataclass(frozen=True)
class ShardRunSpec:
    """Everything a worker needs to reproduce one shard's episode."""

    config: SystemConfig
    num_shards: int
    scheme: str
    plan: TenantMixPlan
    drain_seed: int | None = None
    drain_policy: str = "simultaneous"
    power_budget_w: float | None = None
    epoch_ops: int = DEFAULT_EPOCH_OPS
    batched: bool = True
    tenant_keys: bool = True


@dataclass(frozen=True)
class ShardRunResult:
    """One shard's episode outcome, as returned from a worker."""

    observables: ShardObservables
    drain_seconds: float
    drain_energy_j: float
    drain_writes: int
    drain_reads: int


def make_plan(config: SystemConfig, num_shards: int, num_tenants: int,
              total_ops: int, master_seed: int | None = None,
              footprint_blocks: int = 64,
              **overrides: object) -> TenantMixPlan:
    """A mix plan sized to the fleet's aggregate data space."""
    data_size = MemoryLayout(config).data.size * num_shards
    return TenantMixPlan(
        num_tenants=num_tenants, total_ops=total_ops, data_size=data_size,
        footprint_blocks=footprint_blocks, master_seed=master_seed,
        **overrides)  # type: ignore[arg-type]


def make_keyring(spec: ShardRunSpec) -> TenantKeyring | None:
    """The spec's global tenant keyring (``None`` when keys are off)."""
    if not spec.tenant_keys or spec.scheme == "nosec":
        return None
    return TenantKeyring(spec.plan.extents())


def run_shard(spec: ShardRunSpec, shard: int) -> ShardRunResult:
    """One shard's full episode, rebuilt from scratch (pool worker body).

    Regenerates the global mix, splits it, and replays this shard's part at
    the shard's base offset through a solo system keyed with the same
    clipped keyring view the sharded facade would install — the two paths
    are operation-for-operation identical.
    """
    router = ShardRouter(spec.config, spec.num_shards)
    if spec.plan.data_size != router.total_data_size:
        raise ConfigError(
            f"plan spans {spec.plan.data_size} B but the fleet's data "
            f"space is {router.total_data_size} B")
    if not 0 <= shard < spec.num_shards:
        raise ConfigError(
            f"shard {shard} outside fleet of {spec.num_shards}")
    schedules = shard_key_schedules(router, make_keyring(spec), spec.scheme)
    system = SecureEpdSystem(spec.config, scheme=spec.scheme,
                             batched=spec.batched,
                             key_schedule=schedules[shard])
    part = router.split(TenantMixer(spec.plan).mix())[shard]
    if part:
        replay(system, part, epoch_ops=spec.epoch_ops, batched=spec.batched,
               base=router.extents[shard].base)
    report = system.crash(seed=spread_seed(spec.drain_seed, "shard", shard))
    energy = EnergyModel().breakdown(report)
    return ShardRunResult(
        observables=observe(system, shard=shard, ops=len(part),
                            writes=count_writes(part)),
        drain_seconds=report.seconds,
        drain_energy_j=energy.total_j,
        drain_writes=report.total_writes,
        drain_reads=report.total_reads,
    )


def run_pooled(spec: ShardRunSpec,
               jobs: int | None = None) -> tuple[ShardRunResult, ...]:
    """Fan the spec's shards out across worker processes.

    ``jobs=1`` (or a single-shard fleet) runs inline — the same code path
    minus the pool, which keeps pool-vs-inline trivially comparable.
    """
    if jobs is not None and jobs < 1:
        raise ConfigError(f"jobs must be positive, got {jobs}")
    shards = range(spec.num_shards)
    if jobs == 1 or spec.num_shards == 1:
        return tuple(run_shard(spec, shard) for shard in shards)
    workers = min(jobs or spec.num_shards, spec.num_shards)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return tuple(pool.map(run_shard, [spec] * spec.num_shards, shards))


def run_inprocess(spec: ShardRunSpec) -> tuple[ShardObservables, ...]:
    """The in-process twin: one ShardedSecureSystem over the same spec."""
    system = ShardedSecureSystem(
        spec.config, num_shards=spec.num_shards, scheme=spec.scheme,
        keyring=make_keyring(spec), drain_policy=spec.drain_policy,
        power_budget_w=spec.power_budget_w, batched=spec.batched)
    system.replay(TenantMixer(spec.plan).mix(), epoch_ops=spec.epoch_ops,
                  batched=spec.batched)
    system.crash(seed=spec.drain_seed)
    return system.observables()
