"""Drain engines: non-secure reference and the secure baselines."""

import traceback

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import IntegrityError
from repro.core.system import SecureEpdSystem
from repro.epd.power import EADR_MIN_HOLDUP_MS, holdup_budget
from repro.stats.events import MacKind, ReadKind, WriteKind
from tests.conftest import controller_state


@pytest.fixture(scope="module")
def reports(tiny_config):
    out = {}
    for scheme in ("nosec", "base-lu", "base-eu"):
        system = SecureEpdSystem(tiny_config, scheme=scheme)
        system.fill_worst_case(seed=1)
        out[scheme] = system.crash(seed=2)
    return out


class TestNonSecureDrain:
    def test_one_write_per_flushed_line(self, reports, tiny_config):
        report = reports["nosec"]
        assert report.flushed_blocks == tiny_config.total_cache_lines
        assert report.total_writes == report.flushed_blocks
        assert report.total_reads == 0
        assert report.total_macs == 0

    def test_all_writes_are_plain_data(self, reports):
        stats = reports["nosec"].stats
        assert stats.writes[WriteKind.DATA] == stats.total_writes

    def test_drain_time_is_serialized_writes(self, reports, tiny_config):
        report = reports["nosec"]
        assert report.cycles == report.flushed_blocks * 2000

    def test_crash_empties_the_hierarchy(self, tiny_config):
        system = SecureEpdSystem(tiny_config, scheme="nosec")
        system.fill_worst_case(seed=1)
        system.crash(seed=2)
        assert len(system.hierarchy) == 0


class TestBaselineSecureDrain:
    def test_flushes_every_line_in_place(self, reports, tiny_config):
        for scheme in ("base-lu", "base-eu"):
            report = reports[scheme]
            assert report.flushed_blocks == tiny_config.total_cache_lines
            assert report.stats.writes[WriteKind.DATA] == report.flushed_blocks

    def test_secure_drain_explodes_memory_requests(self, reports):
        """The paper's motivating observation (Fig. 6)."""
        nosec = reports["nosec"].total_memory_requests
        assert reports["base-lu"].total_memory_requests > 4 * nosec
        assert reports["base-eu"].total_memory_requests > 4 * nosec

    def test_lazy_needs_more_requests_than_eager(self, reports):
        assert reports["base-lu"].total_memory_requests > \
            reports["base-eu"].total_memory_requests

    def test_eager_needs_more_macs_than_lazy(self, reports):
        assert reports["base-eu"].total_macs > reports["base-lu"].total_macs

    def test_metadata_fetches_dominate_reads(self, reports):
        stats = reports["base-lu"].stats
        metadata_reads = (stats.reads[ReadKind.COUNTER]
                          + stats.reads[ReadKind.TREE_NODE]
                          + stats.reads[ReadKind.MAC])
        assert metadata_reads == stats.total_reads

    def test_lazy_flushes_shadow_eager_flushes_home(self, reports):
        assert reports["base-lu"].stats.writes[WriteKind.SHADOW] > 0
        assert reports["base-eu"].stats.writes[WriteKind.SHADOW] == 0
        assert reports["base-eu"].stats.macs[MacKind.CACHE_TREE] == 0

    def test_every_flushed_ciphertext_lands_in_memory(self, tiny_config):
        system = SecureEpdSystem(tiny_config, scheme="base-lu")
        system.fill_worst_case(seed=1)
        addresses = [address for address, _, _ in system.hierarchy.llc.lines()]
        system.crash(seed=2)
        for address in addresses:
            assert system.nvm.backend.is_written(address)


class TestDrainReportAndHoldup:
    def test_report_seconds_match_cycles(self, reports, tiny_config):
        report = reports["base-lu"]
        assert report.seconds == pytest.approx(
            report.cycles / tiny_config.frequency_hz)

    def test_holdup_budget_normalization(self, reports):
        budget = holdup_budget(reports["base-lu"], reports["nosec"])
        assert budget.relative_to_nosec == pytest.approx(
            reports["base-lu"].seconds / reports["nosec"].seconds)
        assert budget.memory_operations == \
            reports["base-lu"].total_memory_requests

    def test_holdup_without_reference(self, reports):
        budget = holdup_budget(reports["nosec"])
        assert budget.relative_to_nosec is None
        assert budget.scheme == "nosec"

    def test_eadr_minimum_flag(self, reports):
        budget = holdup_budget(reports["nosec"])
        assert budget.meets_eadr_minimum == \
            (budget.holdup_ms <= EADR_MIN_HOLDUP_MS)


class TestBatchedDrainFailureParity:
    """Garbage in a counter block or tree node stops a batched Base-LU/EU
    drain in exactly the state the per-line ``write`` loop leaves."""

    CONFIG = SystemConfig.scaled(64)
    """4,624 flushed lines: the batched drain spans two 4096-op chunks."""

    GARBAGE = b"\xa5" * 64

    def _metadata_above(self, system: SecureEpdSystem, address: int,
                        level: int) -> int:
        """Counter block (level 0) or level-``level`` tree node covering
        the data block at ``address``."""
        layout = system.layout
        counter_block = layout.counter_block_address(address)
        if level == 0:
            return counter_block
        index = layout.counter_block_index(counter_block)
        return layout.tree_node_address(
            level, index // self.CONFIG.security.tree_arity ** level)

    @staticmethod
    def _guard_rerun(controller) -> list[str]:
        """Let ``run_ops`` run only as the scalar re-run of a rolled-back
        batched call, and record the error each batched segment raised."""
        batched_errors: list[str] = []
        rewound: list[bool] = []
        run_segment = controller._run_segment
        checkpoint = controller._checkpoint
        run_ops = controller.run_ops

        def watched_segment(*args):
            try:
                return run_segment(*args)
            except IntegrityError as exc:
                batched_errors.append(str(exc))
                raise

        def watched_checkpoint():
            rewind = checkpoint()

            def watched_rewind():
                rewound.append(True)
                rewind()

            return watched_rewind

        def rerun(ops):
            if not rewound:
                raise AssertionError("batched drain fell back to run_ops")
            return run_ops(ops)

        controller._run_segment = watched_segment
        controller._checkpoint = watched_checkpoint
        controller.run_ops = rerun
        return batched_errors

    def _failed_drain(self, scheme: str, batched: bool, position: int,
                      level: int, warm: bool = False) -> dict:
        system = SecureEpdSystem(self.CONFIG, scheme=scheme,
                                 batched=batched)
        system.fill_worst_case(seed=5)
        drain_seed = 9
        if warm:
            # A recovered Base-LU holds restored dirty counters whose tree
            # parents are not cached: the first fetch of such a parent
            # comes from a victim writeback, not from a counter fetch.
            system.crash(seed=drain_seed)
            system.recover()
            system.fill_worst_case(seed=6)
            drain_seed = 10
        order = [address
                 for address, _ in system.hierarchy.drain_lines(drain_seed)]
        assert len(order) > 4096
        if batched:
            batched_errors = self._guard_rerun(system.controller)
        system.nvm.backend.corrupt_block(
            self._metadata_above(system, order[position], level),
            self.GARBAGE)
        with pytest.raises(IntegrityError) as failure:
            system.crash(seed=drain_seed)
        if batched:
            # The batched segment itself reached the tampered block: it
            # raised the error the scalar re-run then raised.
            assert batched_errors == [str(failure.value)]
        observed = controller_state(system.controller)
        observed["exception"] = str(failure.value)
        observed["failed in a writeback"] = any(
            frame.name == "drain_victims"
            for frame in traceback.extract_tb(failure.value.__traceback__))
        return observed

    @pytest.mark.parametrize("scheme", ["base-lu", "base-eu"])
    @pytest.mark.parametrize("level", [0, 1, 2, 3],
                             ids=["counter", "tree-l1", "tree-l2", "tree-l3"])
    @pytest.mark.parametrize("position", [0, 1000, 4500])
    def test_tampered_metadata_fails_like_the_write_loop(self, scheme, level,
                                                         position):
        batched = self._failed_drain(scheme, True, position, level)
        scalar = self._failed_drain(scheme, False, position, level)
        for name in scalar:
            assert batched[name] == scalar[name], name

    @pytest.mark.parametrize("position", [2800, 3100])
    def test_failed_victim_writeback_matches_the_write_loop(self, position):
        """The tamper is first seen by a lazy victim writeback: scalar issue
        had already stored the failing write's data MAC, so its MAC victim
        must be parked (or written) exactly where the loop leaves it."""
        batched = self._failed_drain("base-lu", True, position, 1, warm=True)
        scalar = self._failed_drain("base-lu", False, position, 1, warm=True)
        assert scalar["failed in a writeback"]
        for name in scalar:
            assert batched[name] == scalar[name], name
