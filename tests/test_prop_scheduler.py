"""Property-based tests: banked replay and FR-FCFS scheduling bounds."""

from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import SystemConfig
from tests.conftest import examples
from repro.mem.banking import BankGeometry, replay_makespan
from repro.mem.scheduler import schedule_trace

CONFIG = SystemConfig.scaled(512)

traces = st.lists(
    st.tuples(st.integers(0, 127).map(lambda i: i * 64), st.booleans()),
    min_size=1, max_size=120)
geometries = st.builds(
    BankGeometry,
    channels=st.integers(1, 4),
    banks_per_channel=st.sampled_from([1, 2, 4, 8]),
    command_slot_ns=st.sampled_from([0.0, 2.5, 10.0]))


def _latency(is_write: bool) -> float:
    return (CONFIG.memory.write_latency_ns if is_write
            else CONFIG.memory.read_latency_ns)


def _lower_bound(trace, geometry) -> float:
    """No schedule can beat the busiest bank or the command bus."""
    per_bank: dict[int, float] = {}
    for address, is_write in trace:
        bank = geometry.bank_of(address)
        per_bank[bank] = per_bank.get(bank, 0.0) + _latency(is_write)
    bus = (len(trace) - 1) * geometry.command_slot_ns + min(
        _latency(w) for _, w in trace)
    return max(max(per_bank.values()), bus)


class TestSchedulingBounds:
    @given(trace=traces, geometry=geometries)
    @settings(max_examples=examples(80))
    def test_replay_respects_the_lower_bound(self, trace, geometry):
        result = replay_makespan(trace, CONFIG, geometry)
        assert result.makespan_ns >= _lower_bound(trace, geometry) - 1e-6

    @given(trace=traces, geometry=geometries)
    @settings(max_examples=examples(80))
    def test_replay_respects_the_serial_upper_bound(self, trace, geometry):
        serial = sum(_latency(w) for _, w in trace) \
            + len(trace) * geometry.command_slot_ns
        result = replay_makespan(trace, CONFIG, geometry)
        assert result.makespan_ns <= serial + 1e-6

    @given(trace=traces, geometry=geometries,
           window=st.sampled_from([1, 4, 32]))
    @settings(max_examples=examples(60), derandomize=True)
    def test_frfcfs_never_loses_to_fcfs(self, trace, geometry, window):
        fcfs = schedule_trace(trace, CONFIG, geometry, "fcfs", window)
        frfcfs = schedule_trace(trace, CONFIG, geometry, "frfcfs", window)
        assert frfcfs.makespan_ns <= fcfs.makespan_ns + 1e-6

    @given(trace=traces, geometry=geometries)
    @settings(max_examples=examples(60))
    def test_scheduler_also_respects_the_lower_bound(self, trace, geometry):
        result = schedule_trace(trace, CONFIG, geometry, "frfcfs")
        assert result.makespan_ns >= _lower_bound(trace, geometry) - 1e-6

    @given(trace=traces)
    @settings(max_examples=examples(40))
    def test_single_bank_equals_serialized_time(self, trace):
        geometry = BankGeometry(1, 1, command_slot_ns=0)
        serial = sum(_latency(w) for _, w in trace)
        result = replay_makespan(trace, CONFIG, geometry)
        assert result.makespan_ns == serial


def _reference_schedule(trace, geometry, policy, window):
    """The FR-FCFS pick as a ``min`` over the whole window — the plain
    statement of "earliest start, ties to the oldest" the scanning pick in
    :func:`schedule_trace` must reproduce exactly."""
    bank_free = [0.0] * geometry.total_banks
    pending = list(trace[:window])
    feed = iter(trace[window:])
    bus_free = makespan = 0.0
    reordered = 0
    while pending:
        if policy == "fcfs":
            choice = 0
        else:
            choice = min(
                range(len(pending)),
                key=lambda i: (max(bus_free,
                                   bank_free[geometry.bank_of(pending[i][0])]),
                               i))
        if choice:
            reordered += 1
        address, is_write = pending.pop(choice)
        bank = geometry.bank_of(address)
        start = max(bus_free, bank_free[bank])
        done = start + _latency(is_write)
        bank_free[bank] = done
        bus_free = start + geometry.command_slot_ns
        makespan = max(makespan, done)
        pending.extend(islice(feed, window - len(pending)))
    return makespan, reordered


class TestSchedulerMatchesReference:
    @given(trace=traces, geometry=geometries,
           window=st.sampled_from([1, 4, 32]),
           policy=st.sampled_from(["fcfs", "frfcfs"]))
    @settings(max_examples=examples(80), derandomize=True)
    def test_pick_is_bit_identical_to_min_over_the_window(
            self, trace, geometry, window, policy):
        result = schedule_trace(trace, CONFIG, geometry, policy, window)
        makespan, reordered = _reference_schedule(trace, geometry, policy,
                                                  window)
        assert result.makespan_ns == makespan  # exact float bits
        assert result.reordered == reordered
