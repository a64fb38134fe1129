"""Workload trace generators."""

import pytest

from repro.common.errors import AlignmentError, ConfigError
from repro.core.system import SecureEpdSystem
from repro.workloads.generators import (
    analytics_scan_trace,
    graph_walk_trace,
    kvstore_trace,
    replay,
    transactional_trace,
)
from repro.workloads.replay import replay as epoch_replay
from repro.workloads.trace import MemoryOp, OpKind, summarize


class TestTraceRecords:
    def test_rejects_unaligned_address(self):
        with pytest.raises(AlignmentError):
            MemoryOp(OpKind.READ, 100)

    @pytest.mark.parametrize("payload", [b"short", None],
                             ids=["short", "none"])
    def test_rejects_partial_write_payload(self, payload):
        """A write carries one real line: the batched replay installs trace
        payloads straight into the cache lanes, so a short or missing
        payload must fail here, not inside a later writeback or drain."""
        with pytest.raises(AlignmentError):
            MemoryOp(OpKind.WRITE, 0, payload)

    def test_summary(self):
        trace = [MemoryOp(OpKind.READ, 0),
                 MemoryOp(OpKind.WRITE, 0, bytes(64)),
                 MemoryOp(OpKind.WRITE, 64, bytes(64))]
        summary = summarize(trace)
        assert summary.num_ops == 3
        assert summary.num_reads == 1
        assert summary.num_writes == 2
        assert summary.footprint_blocks == 2
        assert summary.write_fraction == pytest.approx(2 / 3)

    def test_empty_trace_summary(self):
        assert summarize([]).write_fraction == 0.0


class TestGenerators:
    def test_kvstore_shape(self):
        trace = kvstore_trace(1000, footprint_blocks=64,
                              write_fraction=0.5, seed=1)
        summary = summarize(trace)
        assert summary.num_ops == 1000
        assert 0.4 < summary.write_fraction < 0.6
        assert summary.footprint_blocks <= 64

    def test_kvstore_deterministic_per_seed(self):
        assert kvstore_trace(50, 8, seed=3) == kvstore_trace(50, 8, seed=3)
        assert kvstore_trace(50, 8, seed=3) != kvstore_trace(50, 8, seed=4)

    def test_analytics_scan_is_sequential(self):
        trace = analytics_scan_trace(2, footprint_blocks=16, seed=1)
        reads = [op.address for op in trace if op.kind is OpKind.READ]
        assert reads == [i * 64 for i in range(16)] * 2

    def test_analytics_scan_updates(self):
        trace = analytics_scan_trace(1, 16, update_every=4, seed=1)
        assert summarize(trace).num_writes == 4

    def test_graph_walk_stays_in_footprint(self):
        trace = graph_walk_trace(500, footprint_blocks=32, seed=1)
        assert all(op.address < 32 * 64 for op in trace)

    def test_graph_walk_rejects_bad_locality(self):
        with pytest.raises(ConfigError):
            graph_walk_trace(10, 8, locality=1.5)

    def test_transactional_reads_precede_writes(self):
        trace = transactional_trace(3, 64, txn_size=4, seed=1)
        assert len(trace) == 3 * 8
        for txn in range(3):
            ops = trace[txn * 8:(txn + 1) * 8]
            assert all(op.kind is OpKind.READ for op in ops[:4])
            assert all(op.kind is OpKind.WRITE for op in ops[4:])

    def test_generators_reject_bad_parameters(self):
        with pytest.raises(ConfigError):
            kvstore_trace(10, 0)
        with pytest.raises(ConfigError):
            transactional_trace(1, 8, txn_size=0)

    def test_base_offset(self):
        trace = kvstore_trace(20, 8, base=1 << 20, seed=1)
        assert all(op.address >= 1 << 20 for op in trace)


class TestReplay:
    def test_replay_returns_write_oracle(self, tiny_config):
        system = SecureEpdSystem(tiny_config, scheme="horus-slm")
        trace = kvstore_trace(200, footprint_blocks=32, seed=5)
        expected = replay(system, trace)
        for address, data in expected.items():
            assert system.read(address) == data

    @pytest.mark.parametrize("system_batched,argument,fused", [
        (True, None, True),
        (False, None, False),
        (True, False, False),
        (False, True, True),
    ])
    def test_epoch_replay_path_selection(self, tiny_config, system_batched,
                                         argument, fused):
        """``batched=None`` means the system's own setting; an explicit
        value overrides it.  Either path yields the same contents."""
        system = SecureEpdSystem(tiny_config, scheme="horus-dlm",
                                 batched=system_batched)
        epochs = []
        real = system.hierarchy.replay_epoch

        def counted(ops):
            epochs.append(len(ops))
            return real(ops)

        system.hierarchy.replay_epoch = counted
        trace = kvstore_trace(300, footprint_blocks=48, seed=7)
        expected = epoch_replay(system, trace, epoch_ops=128,
                                batched=argument)
        assert bool(epochs) is fused
        assert expected == replay(SecureEpdSystem(tiny_config,
                                                  scheme="horus-dlm"),
                                  trace)
        for address, data in expected.items():
            assert system.read(address) == data
