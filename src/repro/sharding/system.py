"""The sharded secure-memory facade.

:class:`ShardedSecureSystem` is N independent
:class:`~repro.core.system.SecureEpdSystem` DIMMs behind one
:class:`~repro.sharding.router.ShardRouter`: run-time traffic is routed by
address range, crashes drain every shard under a pluggable cross-shard power
policy, and recovery restores each shard from its own persistent state.
Shards share *nothing* — no caches, no metadata, no keys beyond the derived
per-tenant schedule — which is what makes the equivalence oracle exact: the
sharded run and N solo runs over the router's per-shard parts, each replayed
at its shard's base offset, execute the same per-controller operation
streams.

:func:`observe` is the common observables probe (NVM image hash, stats,
persistent TCB registers) shared by the sharded system, the solo twins, and
the process-pool workers, so differential comparisons are always
field-by-field over the same dataclass.
"""

import hashlib
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.common.rng import spread_seed
from repro.core.recovery import RecoveryReport
from repro.core.system import SecureEpdSystem
from repro.energy.model import EnergyBreakdown, EnergyModel
from repro.epd.drain import DrainReport
from repro.sharding.drain import DrainPolicy, DrainSchedule, make_drain_policy
from repro.sharding.keys import TenantKeyring, TenantKeySchedule
from repro.sharding.router import ShardRouter
from repro.workloads.replay import DEFAULT_EPOCH_OPS, replay
from repro.workloads.trace import MemoryOp, OpKind


@dataclass(frozen=True)
class ShardObservables:
    """Everything a differential comparison checks about one shard.

    Byte-for-byte identity of two runs means equality of this dataclass:
    the persisted NVM image (hashed), every stats counter, and the
    persistent TCB registers (tree root MAC, cache-tree root, DC/eDC).
    """

    shard: int
    scheme: str
    ops: int
    op_reads: int
    op_writes: int
    nvm_sha256: str
    stats: dict[str, object] = field(compare=True)
    root_mac: str | None = None
    cache_tree_root: str | None = None
    drain_count: int | None = None
    drain_ephemeral: int | None = None
    flushed_blocks: int | None = None
    metadata_blocks: int | None = None

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form (golden fixtures)."""
        return asdict(self)


def nvm_image_sha256(system: SecureEpdSystem) -> str:
    """Hash of the persisted NVM image, in the golden-fixture convention
    (sorted blocks, 8-byte little-endian address prefix per block)."""
    digest = hashlib.sha256()
    image = system.nvm.backend.image()
    for address in sorted(image):
        digest.update(address.to_bytes(8, "little"))
        digest.update(image[address])
    return digest.hexdigest()


def count_writes(trace: "Sequence[MemoryOp]") -> int:
    """How many of a trace's ops are writes."""
    write = OpKind.WRITE
    return sum(1 for op in trace if op.kind is write)


def observe(system: SecureEpdSystem, shard: int = 0, *, ops: int = 0,
            writes: int = 0) -> ShardObservables:
    """Snapshot one system's observables (sharded, solo, or pooled run).

    ``ops`` and ``writes`` count the run-time traffic routed to the system.
    """
    controller = system.controller
    counter = system.drain_counter
    drain = system.last_drain
    return ShardObservables(
        shard=shard,
        scheme=system.scheme,
        ops=ops,
        op_reads=ops - writes,
        op_writes=writes,
        nvm_sha256=nvm_image_sha256(system),
        stats=system.stats.snapshot(),
        root_mac=controller.root_mac.hex() if controller is not None
        else None,
        cache_tree_root=(controller.cache_tree_root.hex()
                         if controller is not None
                         and controller.cache_tree_root is not None
                         else None),
        drain_count=counter.value if counter is not None else None,
        drain_ephemeral=counter.ephemeral if counter is not None else None,
        flushed_blocks=drain.flushed_blocks if drain is not None else None,
        metadata_blocks=drain.metadata_blocks if drain is not None else None,
    )


@dataclass(frozen=True)
class ShardedDrainReport:
    """One coordinated cross-shard drain: per-shard episodes + schedule."""

    reports: tuple[DrainReport, ...]
    energies: tuple[EnergyBreakdown, ...]
    schedule: DrainSchedule

    @property
    def wall_seconds(self) -> float:
        return self.schedule.wall_seconds

    @property
    def energy_j(self) -> float:
        return self.schedule.energy_j

    @property
    def peak_power_w(self) -> float:
        return self.schedule.peak_power_w

    @property
    def total_memory_requests(self) -> int:
        return sum(report.total_memory_requests for report in self.reports)


def shard_key_schedules(router: ShardRouter,
                        keyring: TenantKeyring | None,
                        scheme: str) -> "list[TenantKeySchedule | None]":
    """Per-shard key schedules: the global keyring clipped to each shard's
    window.  ``None`` entries (no keyring, or nosec) select the master-keyed
    engines — shared so solo twins and pool workers key shards identically.
    """
    if keyring is None or scheme == "nosec":
        return [None] * router.num_shards
    return [TenantKeySchedule(keyring.shard_view(extent.base, extent.size))
            for extent in router.extents]


class ShardedSecureSystem:
    """N independent secure DIMM shards behind one routed address space."""

    def __init__(self, config: SystemConfig | None = None,
                 num_shards: int = 4, scheme: str = "horus-dlm",
                 keyring: TenantKeyring | None = None,
                 drain_policy: "str | DrainPolicy" = "simultaneous",
                 power_budget_w: float | None = None,
                 recovery_mode: str = "refill", inclusive: bool = True,
                 rotate_vault: bool = False,
                 batched: bool = True):
        self.config = config if config is not None else SystemConfig.paper()
        self.scheme = scheme
        self.router = ShardRouter(self.config, num_shards)
        self.keyring = keyring
        self.policy = make_drain_policy(drain_policy, power_budget_w)
        schedules = shard_key_schedules(self.router, keyring, scheme)
        self.shards = tuple(
            SecureEpdSystem(self.config, scheme=scheme,
                            recovery_mode=recovery_mode, inclusive=inclusive,
                            rotate_vault=rotate_vault, batched=batched,
                            key_schedule=schedule)
            for schedule in schedules)
        self.last_drain: ShardedDrainReport | None = None
        # Routed run-time traffic per shard, for observables().
        self._ops = [0] * num_shards
        self._writes = [0] * num_shards

    @property
    def num_shards(self) -> int:
        return self.router.num_shards

    # -- run-time traffic ---------------------------------------------------

    def write(self, address: int, data: bytes) -> None:
        """Routed run-time store of one 64 B line."""
        shard, local = self.router.route(address)
        self.shards[shard].write(local, data)
        self._ops[shard] += 1
        self._writes[shard] += 1

    def read(self, address: int) -> bytes:
        """Routed run-time load of one 64 B line."""
        shard, local = self.router.route(address)
        data: bytes = self.shards[shard].read(local)
        self._ops[shard] += 1
        return data

    def replay(self, trace: "list[MemoryOp]", *,
               epoch_ops: int = DEFAULT_EPOCH_OPS,
               batched: bool | None = None) -> dict[int, bytes]:
        """Route a global trace and replay each shard's part of it.

        :meth:`ShardRouter.split` partitions the caller's ops in place, and
        each shard replays its part at its extent's base, so the ops are
        issued at shard-local addresses.  Returns the expected final
        content per *global* written address, mirroring
        :func:`repro.workloads.replay.replay`: each shard's map is already
        keyed by the trace's own addresses.  Per-shard replay is
        epoch-batched exactly as a solo run over the same part would be,
        which is what the differential oracle asserts.
        """
        parts = self.router.split(trace)
        expected: dict[int, bytes] = {}
        for extent, system, part in zip(self.router.extents, self.shards,
                                        parts):
            if not part:
                continue
            expected.update(replay(system, part, epoch_ops=epoch_ops,
                                   batched=batched, base=extent.base))
            self._ops[extent.shard] += len(part)
            self._writes[extent.shard] += count_writes(part)
        return expected

    # -- crash / drain / recovery ------------------------------------------

    def crash(self, seed: int | None = None,
              cut_after_writes: int | None = None) -> ShardedDrainReport:
        """Coordinated power-outage drain across the fleet.

        Each shard drains under its own spread seed (shards must not share
        randomized drain order streams).  ``cut_after_writes`` models the
        hold-up source dying after that many *fleet-total* persisted writes
        mid-stagger; it requires the staggered policy, where the write
        streams are sequenced and a global write budget is well-defined.
        """
        if cut_after_writes is not None and self.policy.name != "staggered":
            raise ConfigError(
                "cut_after_writes models a mid-stagger power cut; it "
                f"requires the staggered policy, not {self.policy.name!r}")
        reports = []
        energies = []
        model = EnergyModel()
        remaining = cut_after_writes
        for shard, system in enumerate(self.shards):
            if remaining is not None:
                system.nvm.write_budget = remaining
            report = system.crash(seed=spread_seed(seed, "shard", shard))
            if remaining is not None:
                plan = system.nvm.restore_power()
                seen = plan.writes_seen if plan is not None else 0
                remaining = max(0, remaining - seen)
            reports.append(report)
            energies.append(model.breakdown(report))
        schedule = self.policy.schedule(reports, energies)
        self.last_drain = ShardedDrainReport(
            reports=tuple(reports), energies=tuple(energies),
            schedule=schedule)
        return self.last_drain

    def recover(self) -> "tuple[RecoveryReport | None, ...]":
        """Power restoration: every shard restores independently."""
        return tuple(system.recover() for system in self.shards)

    # -- observables --------------------------------------------------------

    def observables(self) -> tuple[ShardObservables, ...]:
        """Per-shard observable snapshots (op counts from routed traffic)."""
        return tuple(
            observe(system, shard=shard, ops=self._ops[shard],
                    writes=self._writes[shard])
            for shard, system in enumerate(self.shards))
