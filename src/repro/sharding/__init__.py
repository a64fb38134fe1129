"""Sharded multi-tenant secure memory (the scale-out layer).

One :class:`~repro.core.system.SecureEpdSystem` is one DIMM behind one
controller.  This package composes N of them into a single address space:

- :mod:`repro.sharding.router` — per-DIMM address-range routing between the
  aggregate data space and (shard, local address) pairs.
- :mod:`repro.sharding.keys` — per-tenant key domains layered on the
  engines' :class:`~repro.crypto.primitives.MacDomain` separation, so one
  tenant's MACs can never verify under another tenant's keys.
- :mod:`repro.sharding.system` — :class:`ShardedSecureSystem`, the facade
  routing traffic, crashes, and recovery across the shard fleet.
- :mod:`repro.sharding.drain` — cross-shard drain scheduling under
  pluggable power-budget policies (simultaneous / staggered / budgeted).
- :mod:`repro.sharding.pool` — process-pool fan-out of shard episodes.

The correctness contract mirrors the batch/arena oracles: an N-shard run
over a routed trace is byte-identical, per shard, to N independent
single-controller runs over the router's per-shard parts, each replayed at
its shard's base offset.
"""

from repro.sharding.drain import (
    DRAIN_POLICIES,
    BudgetedDrain,
    DrainPolicy,
    DrainSchedule,
    SimultaneousDrain,
    StaggeredDrain,
    make_drain_policy,
)
from repro.sharding.keys import (
    TenantExtent,
    TenantKeyedAes,
    TenantKeyedMac,
    TenantKeyring,
    TenantKeySchedule,
    derive_tenant_key,
)
from repro.sharding.router import ShardExtent, ShardRouter
from repro.sharding.system import (
    ShardedDrainReport,
    ShardedSecureSystem,
    ShardObservables,
    observe,
)

__all__ = [
    "DRAIN_POLICIES",
    "BudgetedDrain",
    "DrainPolicy",
    "DrainSchedule",
    "ShardExtent",
    "ShardObservables",
    "ShardRouter",
    "ShardedDrainReport",
    "ShardedSecureSystem",
    "SimultaneousDrain",
    "StaggeredDrain",
    "TenantExtent",
    "TenantKeySchedule",
    "TenantKeyedAes",
    "TenantKeyedMac",
    "TenantKeyring",
    "derive_tenant_key",
    "make_drain_policy",
    "observe",
]
