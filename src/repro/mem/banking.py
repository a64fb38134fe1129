"""Banked-memory queueing model.

The paper's drain-time results (and our additive model) assume requests
serialize at the memory controller — the conservative bound a hold-up budget
should be sized for.  Real NVM DIMMs expose channel/bank parallelism; this
model replays a captured request trace against a configurable bank geometry
to ask: *how much of each scheme's drain time does parallel memory recover?*

Model: requests issue in trace order, one per command-bus slot; a request
occupies its bank for the device read/write latency; the episode ends when
the last bank drains (makespan).  Dependencies between requests (e.g. a
verification read feeding a tree update) are not modelled, so the result is
an optimistic bound — the additive model is the pessimistic one; reality
lives between them, and both bounds preserve the scheme ordering.
"""

from dataclasses import dataclass

from repro.common.config import SystemConfig
from repro.common.constants import CACHE_LINE_SIZE
from repro.common.errors import ConfigError


@dataclass(frozen=True)
class BankGeometry:
    """Channel/bank organization of the NVM subsystem."""

    channels: int = 1
    banks_per_channel: int = 8
    command_slot_ns: float = 2.5
    """Minimum spacing between request issues (command-bus bandwidth)."""

    def __post_init__(self) -> None:
        if self.channels <= 0 or self.banks_per_channel <= 0:
            raise ConfigError("bank geometry must be positive")
        if self.command_slot_ns < 0:
            raise ConfigError("command slot cannot be negative")

    @property
    def total_banks(self) -> int:
        return self.channels * self.banks_per_channel

    def bank_of(self, address: int) -> int:
        """Block-interleaved mapping: consecutive blocks hit distinct banks."""
        return (address // CACHE_LINE_SIZE) % self.total_banks


@dataclass(frozen=True)
class MakespanResult:
    """Outcome of replaying one trace against one geometry."""

    requests: int
    makespan_ns: float
    busiest_bank_requests: int


def replay_makespan(trace: list[tuple[int, bool]], config: SystemConfig,
                    geometry: BankGeometry) -> MakespanResult:
    """Replay ``trace`` (from :attr:`NvmDevice.trace`) against ``geometry``."""
    read_ns = config.memory.read_latency_ns
    write_ns = config.memory.write_latency_ns
    bank_free = [0.0] * geometry.total_banks
    bank_load = [0] * geometry.total_banks
    issue_time = 0.0
    makespan = 0.0
    for address, is_write in trace:
        bank = geometry.bank_of(address)
        start = max(issue_time, bank_free[bank])
        done = start + (write_ns if is_write else read_ns)
        bank_free[bank] = done
        bank_load[bank] += 1
        makespan = max(makespan, done)
        issue_time += geometry.command_slot_ns
    return MakespanResult(
        requests=len(trace),
        makespan_ns=makespan,
        busiest_bank_requests=max(bank_load, default=0),
    )


def parallel_speedup(trace: list[tuple[int, bool]], config: SystemConfig,
                     geometry: BankGeometry) -> float:
    """Serialized time / banked makespan for the same trace."""
    if not trace:
        return 1.0
    serialized = sum(
        config.memory.write_latency_ns if is_write
        else config.memory.read_latency_ns
        for _, is_write in trace)
    result = replay_makespan(trace, config, geometry)
    return serialized / result.makespan_ns
