"""Deterministic multi-tenant workload mixing.

A :class:`TenantMixer` turns "thousands of users hitting the fleet" into a
single routed op stream: each tenant owns a contiguous extent of the
aggregate data space and runs its own seeded YCSB mix over its own
footprint; tenant *popularity* is Zipf-skewed (a few hot tenants dominate,
a long tail trickles), and the per-tenant streams are interleaved by a
seeded shuffle into one arrival-ordered trace.

Everything derives from ``(master_seed, label)`` via
:func:`~repro.common.rng.spread_seed` — never ``master_seed + i``, whose
collisions make adjacent tenants replay each other's traffic (tenant ``i``
under master ``s`` is the same stream as tenant ``i+1`` under ``s-1``).
Two guarantees the property suite leans on:

- *Stream determinism*: :meth:`TenantMixer.tenant_trace` for tenant ``t``
  equals the tenant-``t`` subsequence of :meth:`TenantMixer.mix` — the
  interleave permutes across tenants, never within one.
- *Containment*: every generated address stays inside its tenant's extent,
  so routing a mixed trace can never leak one tenant's ops into another's
  address range.
"""

from collections import Counter
from dataclasses import dataclass

from repro.common.constants import CACHE_LINE_SIZE
from repro.common.errors import ConfigError
from repro.common.rng import make_rng, spread_seed
from repro.sharding.keys import TenantExtent
from repro.workloads.trace import MemoryOp
from repro.workloads.ycsb import ycsb_trace
from repro.workloads.zipf import ZipfSampler

DEFAULT_TENANT_THETA = 0.6
"""Tenant-popularity skew: hot tenants dominate, but the tail stays live."""

DEFAULT_WORKLOADS = ("a", "b", "c", "f")
"""Per-tenant YCSB mixes drawn per tenant (update-heavy through read-only)."""


@dataclass(frozen=True)
class TenantMixPlan:
    """A fully-seeded description of one multi-tenant workload.

    Frozen and picklable: shipping the plan to a pool worker reproduces the
    exact same global trace, which is how shard workers regenerate their
    parts of it instead of serializing op streams.
    """

    num_tenants: int
    total_ops: int
    data_size: int
    footprint_blocks: int = 64
    master_seed: int | None = None
    tenant_theta: float = DEFAULT_TENANT_THETA
    key_theta: float = 0.99
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS

    def __post_init__(self) -> None:
        if self.num_tenants < 1:
            raise ConfigError(
                f"need at least one tenant, got {self.num_tenants}")
        if self.total_ops < 0:
            raise ConfigError("op count cannot be negative")
        if self.footprint_blocks < 1:
            raise ConfigError("tenant footprint must be at least one line")
        if not self.workloads:
            raise ConfigError("need at least one YCSB workload letter")
        for letter in self.workloads:
            if letter not in "abcdef" or len(letter) != 1:
                raise ConfigError(f"unknown YCSB workload {letter!r}")
        if self.tenant_stride < self.footprint_bytes:
            raise ConfigError(
                f"{self.num_tenants} tenants x {self.footprint_bytes} B "
                f"do not fit in {self.data_size} B of data space")

    @property
    def footprint_bytes(self) -> int:
        return self.footprint_blocks * CACHE_LINE_SIZE

    @property
    def tenant_stride(self) -> int:
        """Byte distance between tenant bases: tenants are spread evenly
        over the whole data space (so a sharded fleet sees traffic on every
        shard), not packed from zero."""
        return (self.data_size // self.num_tenants
                // CACHE_LINE_SIZE * CACHE_LINE_SIZE)

    def tenant_base(self, tenant_id: int) -> int:
        """Byte base of one tenant's extent."""
        if not 0 <= tenant_id < self.num_tenants:
            raise ConfigError(
                f"tenant {tenant_id} outside 0..{self.num_tenants - 1}")
        return tenant_id * self.tenant_stride

    def extents(self) -> tuple[TenantExtent, ...]:
        """The tenant extents a keyring needs (global coordinates)."""
        return tuple(
            TenantExtent(tenant, self.tenant_base(tenant),
                         self.footprint_bytes)
            for tenant in range(self.num_tenants))

    def tenant_of(self, address: int) -> int:
        """The tenant owning a global data address (-1 if unowned)."""
        if address < 0:
            return -1
        tenant = address // self.tenant_stride
        if tenant < self.num_tenants \
                and address - self.tenant_base(tenant) < self.footprint_bytes:
            return tenant
        return -1


class TenantMixer:
    """Generate and interleave the plan's per-tenant streams."""

    def __init__(self, plan: TenantMixPlan) -> None:
        self.plan = plan
        popularity = ZipfSampler(
            plan.num_tenants, plan.tenant_theta,
            seed=spread_seed(plan.master_seed, "popularity"))
        demand = Counter(popularity.sample_many(plan.total_ops))
        self.tenant_ops = tuple(
            demand.get(tenant, 0) for tenant in range(plan.num_tenants))
        chooser = make_rng(spread_seed(plan.master_seed, "workloads"))
        self.tenant_workloads = tuple(
            chooser.choice(plan.workloads)
            for _ in range(plan.num_tenants))

    def tenant_seed(self, tenant_id: int) -> int:
        """The spread per-tenant stream seed (collision-free by hashing)."""
        return spread_seed(self.plan.master_seed, "tenant", tenant_id)

    def tenant_trace(self, tenant_id: int,
                     num_ops: int | None = None) -> list[MemoryOp]:
        """One tenant's standalone YCSB stream over its own extent."""
        plan = self.plan
        ops = self.tenant_ops[tenant_id] if num_ops is None else num_ops
        if ops == 0:
            return []
        return ycsb_trace(self.tenant_workloads[tenant_id], ops,
                          plan.footprint_blocks,
                          base=plan.tenant_base(tenant_id),
                          theta=plan.key_theta,
                          seed=self.tenant_seed(tenant_id))

    def arrival_order(self) -> list[int]:
        """The interleave: which tenant issues each global op slot."""
        labels = [tenant
                  for tenant, count in enumerate(self.tenant_ops)
                  for _ in range(count)]
        make_rng(spread_seed(self.plan.master_seed, "interleave")) \
            .shuffle(labels)
        return labels

    def mix(self) -> list[MemoryOp]:
        """The single interleaved global trace (``total_ops`` ops).

        Per-tenant op order is preserved — the shuffle permutes *across*
        tenants only — so each tenant's subsequence of the mix equals its
        standalone :meth:`tenant_trace`.
        """
        streams = [iter(self.tenant_trace(tenant))
                   for tenant in range(self.plan.num_tenants)]
        return [next(streams[tenant]) for tenant in self.arrival_order()]
