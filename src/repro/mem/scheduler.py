"""Memory-controller scheduling over a banked device.

:mod:`repro.mem.banking` replays traces in order; real controllers hold a
window of pending requests and reorder them (FR-FCFS: first-ready,
first-come-first-served) to hide bank conflicts.  This module simulates that
window so experiments can ask how much scheduling — as opposed to raw bank
count — recovers for each drain scheme.

The model: requests enter a fixed-depth window in trace order; each issue
occupies the command bus for one slot and the target bank for the device
latency; FCFS always issues the oldest request, FR-FCFS the request with
the earliest possible start time (ties to the oldest, so no starvation).
"""

from collections import deque
from dataclasses import dataclass

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.mem.banking import BankGeometry

DEFAULT_WINDOW = 32


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling one trace."""

    policy: str
    requests: int
    makespan_ns: float
    reordered: int
    """Issues that were not the oldest pending request (FR-FCFS work)."""


def schedule_trace(trace: list[tuple[int, bool]], config: SystemConfig,
                   geometry: BankGeometry, policy: str = "frfcfs",
                   window: int = DEFAULT_WINDOW) -> ScheduleResult:
    """Simulate the controller over ``trace``; returns the makespan."""
    if policy not in ("fcfs", "frfcfs"):
        raise ConfigError(f"unknown policy {policy!r}")
    if window <= 0:
        raise ConfigError("window must be positive")

    read_ns = config.memory.read_latency_ns
    write_ns = config.memory.write_latency_ns
    bank_free = [0.0] * geometry.total_banks
    pending: deque[tuple[int, bool]] = deque()
    feed = iter(trace)
    bus_free = 0.0
    makespan = 0.0
    reordered = 0

    def refill() -> None:
        while len(pending) < window:
            try:
                pending.append(next(feed))
            except StopIteration:
                return

    bank_of = geometry.bank_of
    refill()
    while pending:
        choice = 0
        if policy == "frfcfs":
            # Earliest start, ties to the oldest: scan oldest first, keep
            # a strictly earlier start, and stop at the first request whose
            # bank is free by the time the bus is — nothing starts sooner.
            best = 0.0
            for index, (address, _) in enumerate(pending):
                ready = bank_free[bank_of(address)]
                if ready <= bus_free:
                    choice = index
                    break
                if not index or ready < best:
                    best = ready
                    choice = index
        if choice:
            reordered += 1
        address, is_write = pending[choice]
        del pending[choice]
        bank = geometry.bank_of(address)
        start = max(bus_free, bank_free[bank])
        done = start + (write_ns if is_write else read_ns)
        bank_free[bank] = done
        bus_free = start + geometry.command_slot_ns
        makespan = max(makespan, done)
        refill()

    return ScheduleResult(
        policy=policy,
        requests=len(trace),
        makespan_ns=makespan,
        reordered=reordered,
    )


def scheduling_gain(trace: list[tuple[int, bool]], config: SystemConfig,
                    geometry: BankGeometry,
                    window: int = DEFAULT_WINDOW) -> float:
    """FCFS makespan / FR-FCFS makespan for the same trace (>= 1)."""
    if not trace:
        return 1.0
    fcfs = schedule_trace(trace, config, geometry, "fcfs", window)
    frfcfs = schedule_trace(trace, config, geometry, "frfcfs", window)
    return fcfs.makespan_ns / frfcfs.makespan_ns
