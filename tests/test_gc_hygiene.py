"""Garbage-collector hygiene of the simulator's bulk phases.

Fill, crash, recover, epoch replay and the shard router's trace split run
with CPython's cyclic collector paused (:mod:`repro.common.gcpause`).  That
pause is free only because those paths create no reference cycles:
reference counting alone frees everything a dropped system held.  These
tests pin that assumption — a cycle added to a bulk path later fails here,
instead of silently growing peak memory until the next full collection —
along with the helper's own state handling, the slotted ``MemoryOp`` the
split routes, and the collector time ``--profile`` reports.  Detected
failures count too: a batched recovery that raises, a batched drain chunk
that rolls back and re-runs on the scalar path, and a campaign cell whose
drain catches the attack all free everything once dropped.
"""

import copy
import dataclasses
import gc
import pickle

import pytest

from repro.attacks.adversary import Adversary
from repro.campaigns import (
    CAMPAIGN_LINES,
    DEFAULT_SCENARIOS,
    DETECTED,
    MID_DRAIN,
)
from repro.campaigns.engine import _run_attack_episode
from repro.common.config import SystemConfig
from repro.common.errors import AddressError, AlignmentError, IntegrityError
from repro.common.gcpause import collector_paused
from repro.core.system import SCHEMES, SecureEpdSystem
from repro.epd.adr import AdrSecureSystem
from repro.epd.bbb import BbbSecureSystem
from repro.epd.dolos import DolosAdrSystem
from repro.experiments.profile import RunProfile, capture_phases
from repro.experiments.runner import run_experiments_profiled
from repro.mem.regions import MemoryLayout
from repro.sharding.keys import TenantKeyring
from repro.sharding.router import ShardRouter
from repro.sharding.system import ShardedSecureSystem
from repro.workloads.replay import replay
from repro.workloads.tenantmix import TenantMixer, TenantMixPlan
from repro.workloads.trace import MemoryOp, OpKind
from repro.workloads.ycsb import ycsb_trace

SCALE = 128
REPLAY_OPS = 2000
SHARDS = 4


@pytest.fixture
def collector_enabled():
    """Run the test with the collector on, whatever the session state,
    and leave it as it was found."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


@pytest.fixture
def collector_disabled():
    """Run the test with the collector off and cleared of prior garbage,
    so ``gc.collect()`` afterwards counts only what the test left."""
    was_enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    yield
    if was_enabled:
        gc.enable()


class TestCollectorPaused:
    def test_reenables_after_normal_exit(self, collector_enabled):
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_reenables_after_exception(self, collector_enabled):
        with pytest.raises(RuntimeError):
            with collector_paused():
                raise RuntimeError("bulk phase failed")
        assert gc.isenabled()

    def test_leaves_a_disabled_collector_disabled(self, collector_disabled):
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_nests(self, collector_enabled):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            # The inner exit must not re-enable under the outer pause.
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_bulk_entry_points_pause_the_collector(self, collector_enabled,
                                                   monkeypatch):
        """Each of the five entry points runs its body with the collector
        off, and hands it back on afterwards — after an error too."""
        seen: list[bool] = []

        def spy(owner, name):
            original = getattr(owner, name)

            def observed(*args, **kwargs):
                seen.append(gc.isenabled())
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, observed)

        config = SystemConfig.scaled(512)
        system = SecureEpdSystem(config, scheme="horus-dlm")
        spy(system.hierarchy, "fill_worst_case")
        spy(system.drain_engine, "drain")
        spy(system.recovery_engine, "recover")
        system.fill_worst_case(seed=1)
        system.crash(seed=2)
        system.recover()
        fresh = SecureEpdSystem(config, scheme="horus-dlm")
        spy(fresh.hierarchy, "replay_epoch")
        replay(fresh, [MemoryOp(OpKind.READ, 0)])
        router = ShardRouter(config, 2)
        spy(router, "require_global_address")
        with pytest.raises(AddressError):
            router.split([MemoryOp(OpKind.READ, router.total_data_size)])
        assert seen == [False] * 5
        assert gc.isenabled()


def _small_trace(config: SystemConfig) -> list[MemoryOp]:
    return ycsb_trace("a", num_ops=REPLAY_OPS,
                      footprint_blocks=config.llc.num_lines * 2, seed=7)


class TestNoCyclicGarbage:
    """A whole episode on a dropped system leaves nothing for the cyclic
    collector: every object it allocated is freed by reference counting."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_episode_leaves_no_cycles(self, scheme, collector_disabled):
        config = SystemConfig.scaled(SCALE)
        trace = _small_trace(config)
        gc.collect()
        system = SecureEpdSystem(config, scheme=scheme)
        system.fill_worst_case(seed=1)
        replay(system, trace)
        system.crash(seed=2)
        system.recover()
        del system
        assert gc.collect() == 0

    @pytest.mark.parametrize("system_class", [
        AdrSecureSystem, BbbSecureSystem, DolosAdrSystem],
        ids=["adr", "bbb", "dolos"])
    def test_persistence_domain_systems_leave_no_cycles(
            self, system_class, collector_disabled):
        """The ADR, BBB and Dolos systems hand their hierarchy the
        controller's own methods, never a method of the system itself."""
        config = SystemConfig.scaled(SCALE)
        trace = _small_trace(config)
        gc.collect()
        system = system_class(config)
        persist = getattr(system, "persist", None)
        for op in trace:
            if op.kind is OpKind.WRITE:
                system.write(op.address, op.data)
                if persist is not None:
                    persist(op.address)
            else:
                system.read(op.address)
        system.crash()
        if isinstance(system, DolosAdrSystem):
            system.recover()
        del system, persist
        assert gc.collect() == 0

    def test_sharded_fleet_leaves_no_cycles(self, collector_disabled):
        config = SystemConfig.scaled(SCALE)
        plan = TenantMixPlan(
            num_tenants=8, total_ops=REPLAY_OPS,
            data_size=MemoryLayout(config).data.size * SHARDS,
            master_seed=5)
        keyring = TenantKeyring(plan.extents())
        mix = TenantMixer(plan).mix()
        gc.collect()
        fleet = ShardedSecureSystem(config, num_shards=SHARDS,
                                    scheme="horus-dlm", keyring=keyring)
        fleet.replay(mix)
        fleet.crash(seed=3)
        fleet.recover()
        del fleet
        assert gc.collect() == 0

    def test_detected_batched_recovery_leaves_no_cycles(
            self, collector_disabled):
        """A tampered vault raises from the batched recovery; neither the
        error nor the frames its traceback held outlive the system."""
        config = SystemConfig.scaled(SCALE)
        system = SecureEpdSystem(config, scheme="horus-dlm")
        assert system.recovery_engine.batched
        system.fill_worst_case(seed=1)
        system.crash(seed=2)
        system.nvm.restore_power()
        Adversary(system.nvm).tamper(
            system.drain_engine._chv.data_address(3))
        gc.collect()
        with pytest.raises(IntegrityError):
            system.recover()
        del system
        assert gc.collect() == 0

    def test_detected_batched_drain_leaves_no_cycles(
            self, collector_disabled):
        """A tampered counter block fails a batched Base-LU drain chunk,
        which rolls back and re-runs on the scalar path: the checkpoint,
        the journal and both errors are freed with the system."""
        config = SystemConfig.scaled(SCALE)
        system = SecureEpdSystem(config, scheme="base-lu")
        assert system.controller.batched
        system.fill_worst_case(seed=1)
        address = next(iter(system.hierarchy.drain_lines(2)))[0]
        Adversary(system.nvm).tamper(
            system.layout.counter_block_address(address))
        gc.collect()
        with pytest.raises(IntegrityError,
                           match="counter block MAC mismatch"):
            system.crash(seed=2)
        del system
        assert gc.collect() == 0

    def test_drain_detected_attack_cell_leaves_no_cycles(
            self, collector_disabled):
        """A mid-drain attack caught by the drain itself ends the cell
        early; the fault plan whose attack closure holds the system must
        not stay attached to it."""
        config = SystemConfig.scaled(64)
        scenario = next(s for s in DEFAULT_SCENARIOS
                        if s.name == "tamper-counter")
        gc.collect()
        outcome, detail = _run_attack_episode(
            config, "base-lu", False, scenario, MID_DRAIN, CAMPAIGN_LINES)
        assert (outcome, detail.partition(":")[0]) == (DETECTED, "drain")
        assert gc.collect() == 0


class TestSlottedMemoryOp:
    OPS = (MemoryOp(OpKind.READ, 64),
           MemoryOp(OpKind.WRITE, 128, bytes(range(64))))

    def test_has_no_instance_dict(self):
        for op in self.OPS:
            assert not hasattr(op, "__dict__")

    def test_stays_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.OPS[0].address = 0  # type: ignore[misc]

    def test_survives_pickle_and_deepcopy(self):
        for op in self.OPS:
            assert pickle.loads(pickle.dumps(op)) == op
            assert copy.deepcopy(op) == op

    def test_replace_revalidates(self):
        op = self.OPS[1]
        assert dataclasses.replace(op, address=192) \
            == MemoryOp(OpKind.WRITE, 192, op.data)
        with pytest.raises(AlignmentError):
            dataclasses.replace(op, address=65)

    def test_split_output_is_the_input_ops(self):
        """The split allocates no ops: each part holds the caller's slotted
        ops themselves, so routing adds no tracked objects per op."""
        config = SystemConfig.scaled(512)
        router = ShardRouter(config, SHARDS)
        size = router.shard_data_size
        payload = bytes(64)
        trace = [MemoryOp(OpKind.WRITE if shard % 2 else OpKind.READ,
                          shard * size + offset,
                          payload if shard % 2 else None)
                 for offset in (0, 64, size - 64)
                 for shard in range(SHARDS)]
        parts = router.split(trace)
        expected = [[op for op in trace if op.address // size == shard]
                    for shard in range(SHARDS)]
        assert [[id(op) for op in part] for part in parts] == \
            [[id(op) for op in part] for part in expected]
        assert not any(hasattr(op, "__dict__") for part in parts
                       for op in part)


class TestProfiledCollectorTime:
    def test_serial_profile_carries_collector_record(self):
        before = list(gc.callbacks)
        _, profile = run_experiments_profiled(["fig16"], scale=SCALE,
                                              jobs=1)
        records = [r for r in profile.records if r.name == "gc:collector"]
        assert records
        assert all(r.kind == "phase" and r.seconds >= 0 and r.started >= 0
                   for r in records)
        assert gc.callbacks == before

    def test_capture_removes_its_callback(self):
        before = list(gc.callbacks)
        profile = RunProfile()
        with capture_phases(profile, run_start=0.0):
            assert len(gc.callbacks) == len(before) + 1
            gc.collect()
        assert gc.callbacks == before
        (record,) = [r for r in profile.records if r.name == "gc:collector"]
        assert record.kind == "phase" and record.seconds > 0

    def test_capture_removes_its_callback_on_error(self):
        before = list(gc.callbacks)
        with pytest.raises(RuntimeError):
            with capture_phases(RunProfile(), run_start=0.0):
                raise RuntimeError("experiment failed")
        assert gc.callbacks == before
