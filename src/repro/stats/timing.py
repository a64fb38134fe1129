"""Additive timing model.

The paper's evaluation quantities (drain time, recovery time, hold-up budget)
are all serialized-operation latencies: the drain path is a single stream of
dependent memory requests and crypto operations, so total time is the sum of
per-operation latencies.  Inverting the paper's own Table II/III confirms this
model reproduces its numbers (see DESIGN.md).

:class:`TimingModel` converts a :class:`~repro.stats.counters.SimStats` into
cycles and seconds using the Table I parameters carried by the system config.
"""

from dataclasses import dataclass

from repro.common.config import SystemConfig
from repro.common.units import ns_to_cycles
from repro.stats.counters import SimStats


@dataclass(frozen=True)
class TimingBreakdown:
    """Cycles attributed to each operation class."""

    read_cycles: int
    write_cycles: int
    mac_cycles: int
    aes_cycles: int

    @property
    def total_cycles(self) -> int:
        return (self.read_cycles + self.write_cycles
                + self.mac_cycles + self.aes_cycles)

    @property
    def memory_cycles(self) -> int:
        return self.read_cycles + self.write_cycles

    @property
    def crypto_cycles(self) -> int:
        return self.mac_cycles + self.aes_cycles


class TimingModel:
    """Maps operation counts to time under the Table I latency parameters."""

    def __init__(self, config: SystemConfig) -> None:
        self._config = config
        self.read_cycles = ns_to_cycles(
            config.memory.read_latency_ns, config.frequency_hz)
        self.write_cycles = ns_to_cycles(
            config.memory.write_latency_ns, config.frequency_hz)
        self.mac_cycles = config.security.hash_latency_cycles
        self.aes_cycles = config.security.aes_latency_cycles

    @property
    def config(self) -> SystemConfig:
        return self._config

    def breakdown(self, stats: SimStats) -> TimingBreakdown:
        """Attribute cycles to each operation class of ``stats``."""
        return TimingBreakdown(
            read_cycles=stats.total_reads * self.read_cycles,
            write_cycles=stats.total_writes * self.write_cycles,
            mac_cycles=stats.total_macs * self.mac_cycles,
            aes_cycles=stats.total_aes * self.aes_cycles,
        )

    def cycles(self, stats: SimStats) -> int:
        """Total serialized cycles implied by ``stats``."""
        return self.breakdown(stats).total_cycles

    def seconds(self, stats: SimStats) -> float:
        """Total serialized wall-clock time implied by ``stats``."""
        return self.cycles(stats) / self._config.frequency_hz
