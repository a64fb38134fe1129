"""Run-time performance model.

The drain studies use only the memory/crypto latencies; run-time replay also
exercises Table I's cache access latencies (L1 2 cycles, L2 20, LLC 32).
:class:`RuntimePerfModel` turns a replayed workload — the hierarchy's
access-level counts plus the secure controller's operation delta — into
total cycles and cycles/op, enabling the classic secure-memory run-time
overhead comparison (and the check that Horus adds *nothing* at run time,
its premise in Section IV-B).
"""

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

from repro.common.config import SystemConfig
from repro.stats.counters import SimStats
from repro.stats.timing import TimingModel


@dataclass(frozen=True)
class RuntimeBreakdown:
    """Cycles attributed to cache access vs memory vs crypto."""

    cache_cycles: int
    memory_cycles: int
    crypto_cycles: int
    accesses: int

    @property
    def total_cycles(self) -> int:
        return self.cache_cycles + self.memory_cycles + self.crypto_cycles

    @property
    def cycles_per_access(self) -> float:
        return self.total_cycles / self.accesses if self.accesses else 0.0


class RuntimePerfModel:
    """Maps (cache access counts, controller op delta) to run-time cycles."""

    def __init__(self, config: SystemConfig) -> None:
        self._config = config
        self._timing = TimingModel(config)
        # A hit at level N traversed every level above it first.
        l1 = config.l1.latency_cycles
        l2 = l1 + config.l2.latency_cycles
        llc = l2 + config.llc.latency_cycles
        self._access_cost = {"l1": l1, "l2": l2, "llc": llc, "miss": llc}

    def breakdown(self, access_counts: Counter[str],
                  stats_delta: SimStats) -> RuntimeBreakdown:
        cache_cycles = sum(self._access_cost[level] * count
                           for level, count in access_counts.items())
        timing = self._timing.breakdown(stats_delta)
        return RuntimeBreakdown(
            cache_cycles=cache_cycles,
            memory_cycles=timing.memory_cycles,
            crypto_cycles=timing.crypto_cycles,
            accesses=sum(access_counts.values()),
        )

    def replay(self, system: Any, trace: Iterable[Any], *,
               base: int = 0) -> RuntimeBreakdown:
        """Replay a workload trace on a system and measure it.

        ``system`` is anything with ``read``/``write``/``stats`` and a
        ``hierarchy`` (a :class:`~repro.core.system.SecureEpdSystem`).
        Full systems replay epoch-batched (observably identical to the
        scalar loop); bare test doubles fall back to per-op calls inside
        :func:`repro.workloads.replay.replay`.  ``base`` is passed through:
        each op is issued at ``address - base``.
        """
        from repro.workloads.replay import replay as replay_trace

        before = system.stats.copy()
        system.hierarchy.access_counts.clear()
        replay_trace(system, list(trace), base=base)
        return self.breakdown(system.hierarchy.access_counts,
                              system.stats.diff(before))
