"""End-to-end benchmark of the Horus simulator, with per-layer traces.

Four workloads, each a run people make with this simulator (the README
beside this file says why each is in the set):

* ``ycsb-a`` -- epoch-batched replay of a 100k-op YCSB-A trace on a
  horus-dlm system at ``SystemConfig.scaled(128)``;
* ``paper-episode`` -- fill -> crash -> recover of a horus-dlm system at
  the paper's Table I scale (295,936 lines);
* ``fleet-4`` -- a 4-shard, 32-tenant horus-dlm fleet replaying a 200k-op
  tenant mix, then crash -> recover;
* ``runner-s64`` -- all 22 experiments of the runner at scale 64, serial,
  without the result cache.

Usage, from the repository root::

    python3 bench_e2e/e2e.py                              # all four
    python3 bench_e2e/e2e.py --trace --output out         # + per-layer tables
    python3 bench_e2e/e2e.py --workload ycsb-a --seed 3 --seconds 12 --trace 0

Without ``--workload`` every workload runs in a fresh spawned process, one
after another.  With ``--workload`` the run stays in this process: set-up (a
fresh import of the simulator plus the workload's inputs) is repeated at
least ``SETUP_REPEATS`` times and for at least ``SETUP_SECONDS``, then
closed-loop passes on freshly built systems run for ``--seconds``.
Calibrations run after every timed region of a pass and, from a timer,
inside it, so each region is normalized by the host speed measured while
it ran (see ``HostSampler``).  Every pass's simulated outputs are hashed;
all passes must agree, and at the pinned seed they must match
``e2e_expected.json``.  ``--trace 1`` spends half the time on untraced
passes and half on traced ones, and reports per-layer self times from the
spans (see ``e2e_spans``).

A single-workload run ends its standard output with one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics, or with ``--trace 1`` the per-layer ones.  The exit
status is 0 when every pass produced the expected outputs, 1 when any pass
failed, and 2 (with nothing on standard output) when the simulator sources
are missing.
"""

import argparse
import gc
import hashlib
import importlib
import json
import multiprocessing
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from collections.abc import Callable, Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from e2e_spans import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "e2e_expected.json"

# The simulator and the legacy bench module are imported from this
# checkout's sources, never from an installed copy.
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

DEFAULT_SEED = 87
DEFAULT_SECONDS = 12
SETUP_REPEATS = 3
SETUP_SECONDS = 1.5
"""Set-up runs at least ``SETUP_REPEATS`` times and until this many
seconds have gone by; ``setup_s`` is the median of the repetitions."""
CALIBRATION_INTERVAL = 0.5
"""Seconds between the calibrations taken inside a timed region."""
SCHEME = "horus-dlm"
ROOT_SPAN = "pass"
"""Name of the span around each timed region of a traced pass."""

YCSB_OPS = 100_000
"""Trace length of ``ycsb-a``; at the default seed its trace is exactly
``benchmarks.bench_runner.replay_trace``."""
REPLAY_SCALE = 128
FLEET_OPS = 200_000
FLEET_TENANTS = 32
FLEET_SHARDS = 4
RUNNER_SCALE = 64

EXPERIMENT_IDS = (
    "headline", "fig6", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
    "table2", "table3", "ablation-locality", "ablation-metadata-cache",
    "ablation-coalescing", "ablation-adr-vs-epd", "ablation-wear",
    "ablation-parallelism", "ablation-runtime", "ablation-availability",
    "ablation-scheduler", "ablation-faults", "ablation-campaigns",
    "ablation-shards",
)
"""The runner's experiments, pinned so the workload cannot drift."""

PHASES = ("fill", "drain", "replay", "cache", "mem", "resolve")
"""Prefixes of the runner's own ``capture_phases`` records."""

READ_KINDS = ("data", "counter", "tree_node", "mac", "chv", "shadow")
WRITE_KINDS = ("data", "data_mac", "counter", "tree_node", "shadow",
               "chv_data", "chv_address", "chv_mac", "chv_metadata")
MAC_KINDS = ("data_protect", "tree_update", "verify", "cache_tree",
             "chv_data", "chv_level2")
AES_KINDS = ("encrypt", "decrypt")

_CONTROLLER = "repro.secure.controller:SecureMemoryController"
_NVM = "repro.mem.nvm:NvmDevice"
FLEET_REPLAY = "repro.sharding.system:ShardedSecureSystem.replay"
REPLAY_FUNCTION = "repro.workloads.replay:replay"

LAYER_SPANS: dict[str, tuple[str, ...]] = {
    "cache.replay_epoch_s":
        ("repro.cache.hierarchy:CacheHierarchy.replay_epoch",),
    "cache.resolve_pending_s":
        ("repro.cache.hierarchy:CacheHierarchy.resolve_pending",),
    "cache.fill_worst_case_s":
        ("repro.cache.hierarchy:CacheHierarchy.fill_worst_case",),
    "cache.restore_dirty_s":
        ("repro.cache.hierarchy:CacheHierarchy.restore_dirty",),
    "secure.run_ops_batch_self_s": (f"{_CONTROLLER}.run_ops_batch",),
    "secure.drain_victims_s": (f"{_CONTROLLER}.drain_victims",),
    "secure.write_s": (f"{_CONTROLLER}.write",),
    "secure.read_s": (f"{_CONTROLLER}.read",),
    "metadata.tree_s": (f"{_CONTROLLER}.get_tree_node",
                        f"{_CONTROLLER}.propagate_to_root"),
    "crypto.aes_batch_s": (
        "repro.crypto.engine:AesEngine.encrypt_batch",
        "repro.crypto.engine:AesEngine.decrypt_batch",
        "repro.sharding.keys:TenantKeyedAes.encrypt_batch",
        "repro.sharding.keys:TenantKeyedAes.decrypt_batch"),
    "crypto.mac_batch_s": (
        "repro.crypto.engine:MacEngine.block_mac_batch",
        "repro.crypto.engine:MacEngine.digest_mac_batch",
        "repro.sharding.keys:TenantKeyedMac.block_mac_batch"),
    "mem.arena_s": (f"{_NVM}.write_arena", f"{_NVM}.read_arena"),
    "mem.batch_s": (f"{_NVM}.read_batch", f"{_NVM}.write_batch",
                    f"{_NVM}.account_reads"),
    "mem.scalar_io_s": (f"{_NVM}.read", f"{_NVM}.write"),
    "core.drain_self_s": ("repro.core.horus:HorusDrainEngine.drain",),
    "core.recover_self_s": ("repro.core.recovery:HorusRecovery.recover",),
    "epd.baseline_drain_self_s":
        ("repro.epd.baseline:BaselineSecureDrain.drain",),
    "sharding.split_s": ("repro.sharding.router:ShardRouter.split",),
    "sharding.coord_s": (FLEET_REPLAY,),
    "sharding.crash_s": ("repro.sharding.system:ShardedSecureSystem.crash",),
    "sharding.recover_s":
        ("repro.sharding.system:ShardedSecureSystem.recover",),
    "workloads.replay_self_s": (REPLAY_FUNCTION,),
}
"""Self-time metrics and the callables whose spans they sum.  Together
with ``experiments.self_s`` and ``trace.unattributed_s`` they partition a
traced pass's wall time."""

REPORTED: dict[str, str] = {
    "wall_s": "s",
    "wall_norm": "1",
    "sim_ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
"""Every end-to-end metric, as the tables print them."""

END_TO_END: dict[str, str] = {
    name: REPORTED[name] for name in ("wall_norm", "setup_s", "peak_rss_mb")}
"""The gated end-to-end metrics: BENCHMARK.json and the JSON result line.
Raw host seconds are printed but not gated, because on a shared VM the
host's speed can swing twofold within minutes; ``wall_norm`` divides that
out with calibrations taken around and inside each timed region."""

PER_LAYER: dict[str, str] = {
    **{metric: "s" for metric in LAYER_SPANS},
    "experiments.self_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "1",
    "sharding.shard_replay_s": "s",
    "sharding.efficiency": "1",
    "sharding.imbalance": "1",
    "sharding.ops_imbalance": "1",
    **{f"experiments.{name}_s": "s" for name in EXPERIMENT_IDS},
    **{f"experiments.phase.{name}_s": "s" for name in PHASES},
    "cache.ns_per_access": "ns",
    "crypto.ns_per_mac": "ns",
    "mem.ns_per_request": "ns",
    "cache.l1_frac": "1",
    "cache.l2_frac": "1",
    "cache.llc_frac": "1",
    "cache.miss_frac": "1",
    "metadata.counter_cache_hit_frac": "1",
    "metadata.mac_cache_hit_frac": "1",
    "metadata.tree_cache_hit_frac": "1",
    "mem.requests_per_op": "1",
    **{f"mem.reads.{kind}": "count" for kind in READ_KINDS},
    **{f"mem.writes.{kind}": "count" for kind in WRITE_KINDS},
    **{f"crypto.macs.{kind}": "count" for kind in MAC_KINDS},
    **{f"crypto.aes.{kind}": "count" for kind in AES_KINDS},
    "sim.drain_s": "s",
    "sim.drain_energy_j": "J",
    "sim.recovery_s": "s",
}


class PassFailure(Exception):
    """A pass produced outputs that fail a shape or closed-form check."""


def _digest(outputs: Any) -> str:
    return hashlib.sha256(
        json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _bench_runner() -> Any:
    return importlib.import_module("benchmarks.bench_runner")


# -- one pass -----------------------------------------------------------------

class HostSampler:
    """How fast the host runs simulator-like Python right now, from runs
    of ``calibration_workload``: one after each timed region, and one every
    ``CALIBRATION_INTERVAL`` seconds inside it, from a SIGALRM timer.

    On a shared VM the host can slow down twofold for seconds at a time,
    so calibrations taken only at the ends of a four-second region miss
    most of what the region ran through.
    """

    def __init__(self) -> None:
        self._workload = _bench_runner().calibration_workload
        self._inside: list[float] = []
        self.latest = self.calibrate()

    def calibrate(self) -> float:
        """Seconds of one ``calibration_workload`` run."""
        began = time.perf_counter()
        self._workload()
        return time.perf_counter() - began

    def _on_alarm(self, signum: int, frame: Any) -> None:
        self._inside.append(self.calibrate())

    @contextmanager
    def sampling(self) -> Iterator[list[float]]:
        """Calibrate from the timer while the block runs; the yielded list
        collects those calibrations."""
        self._inside = inside = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL,
                         CALIBRATION_INTERVAL)
        try:
            yield inside
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def close_region(self, inside: list[float]) -> float:
        """The calibration across a region that has just ended: the mean
        of the one before it, the ones inside it, and one taken now."""
        after = self.calibrate()
        mean = statistics.mean([self.latest, *inside, after])
        self.latest = after
        return mean


class Stopwatch:
    """Sums the timed regions of one pass; under tracing each region is
    also a root span.  With a ``sampler``, ``normalized`` sums each
    region's seconds over the host's calibration across that region."""

    def __init__(self, recorder: SpanRecorder | None = None,
                 sampler: HostSampler | None = None):
        self.seconds = 0.0
        self.normalized = 0.0
        self._recorder = recorder
        self._sampler = sampler

    @contextmanager
    def timing(self) -> Iterator[None]:
        span = (self._recorder.span(ROOT_SPAN) if self._recorder is not None
                else nullcontext())
        sampler = self._sampler
        sampling = (sampler.sampling() if sampler is not None
                    else nullcontext([]))
        with sampling as inside:
            start = time.perf_counter()
            with span:
                yield
            # The timer's calibrations are not the simulator's time.
            seconds = time.perf_counter() - start - sum(inside)
        self.seconds += seconds
        if sampler is not None:
            self.normalized += seconds / sampler.close_region(inside)


@dataclass
class PassResult:
    """What one pass produced, apart from its wall time."""

    digest: str
    units: int
    counts: dict[str, float]
    phases: dict[str, float] = field(default_factory=dict)


def count_metrics(systems: list[Any], units: int,
                  sim: tuple[float, float, float] = (0.0, 0.0, 0.0)) \
        -> dict[str, float]:
    """The exact simulated counts of a pass's systems (per-layer metrics
    that must repeat exactly), plus the modelled drain and recovery."""
    from repro.stats.counters import SimStats

    stats = SimStats.aggregate(system.stats for system in systems)
    snapshot = stats.snapshot()
    access: Counter[str] = Counter()
    meta = {name: [0, 0] for name in ("counter", "mac", "tree")}
    for system in systems:
        access.update(system.hierarchy.access_counts)
        controller = system.controller
        if controller is not None:
            for name in meta:
                cache = getattr(controller, f"{name}_cache")
                meta[name][0] += cache.hits
                meta[name][1] += cache.misses
    accesses = sum(access.values())
    counts: dict[str, float] = {
        f"cache.{level}_frac": _ratio(access[level], accesses)
        for level in ("l1", "l2", "llc", "miss")}
    for name, (hits, misses) in meta.items():
        counts[f"metadata.{name}_cache_hit_frac"] = _ratio(hits, hits + misses)
    counts["mem.requests_per_op"] = _ratio(stats.total_memory_requests, units)
    for prefix, key, kinds in (("mem.reads", "reads", READ_KINDS),
                               ("mem.writes", "writes", WRITE_KINDS),
                               ("crypto.macs", "macs", MAC_KINDS),
                               ("crypto.aes", "aes", AES_KINDS)):
        for kind in kinds:
            counts[f"{prefix}.{kind}"] = snapshot[key].get(kind, 0)
    counts["sim.drain_s"], counts["sim.drain_energy_j"], \
        counts["sim.recovery_s"] = sim
    # Denominators of the host-time-per-event metrics.
    counts["accesses"] = accesses
    counts["macs"] = stats.total_macs
    counts["requests"] = stats.total_memory_requests
    return counts


def _replay_outputs(system: Any, num_ops: int) -> dict[str, Any]:
    """Check a replayed system against the closed-form replay invariants
    and return its observables."""
    from repro.core.analytic import validate_replay_counts
    from repro.sharding.system import nvm_image_sha256

    access = dict(system.hierarchy.access_counts)
    snapshot = system.stats.snapshot()
    validate_replay_counts(system.scheme, num_ops, access, snapshot)
    return {"nvm": nvm_image_sha256(system), "stats": snapshot,
            "access": access}


class Workload:
    """One benchmark workload: :meth:`prepare` builds the inputs from the
    seed, :meth:`run_pass` runs one pass on freshly built systems and
    times only the simulated work."""

    name = ""
    warmup = 0
    min_passes = 1
    modules: tuple[str, ...] = ()
    """Simulator modules imported as part of set-up."""

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def run_pass(self, watch: Stopwatch) -> PassResult:
        raise NotImplementedError


class YcsbA(Workload):
    name = "ycsb-a"
    warmup = 1
    min_passes = 5
    modules = ("repro.core.system", "repro.core.analytic",
               "repro.sharding.system", "repro.workloads.replay",
               "repro.workloads.ycsb")

    def __init__(self, num_ops: int = YCSB_OPS):
        self.num_ops = num_ops

    def prepare(self, seed: int) -> None:
        from repro.common.config import SystemConfig
        from repro.workloads.ycsb import ycsb_trace

        self.config = SystemConfig.scaled(REPLAY_SCALE)
        # Working set twice the LLC, as in bench_runner.replay_trace.
        self.trace = ycsb_trace(
            "a", num_ops=self.num_ops,
            footprint_blocks=self.config.llc.num_lines * 2, seed=seed)

    def run_pass(self, watch: Stopwatch) -> PassResult:
        from repro.core.system import SecureEpdSystem
        from repro.workloads import replay as replay_module

        with watch.timing():
            system = SecureEpdSystem(self.config, scheme=SCHEME)
            replay_module.replay(system, self.trace)
        units = len(self.trace)
        return PassResult(_digest(_replay_outputs(system, units)), units,
                          count_metrics([system], units))


class PaperEpisode(Workload):
    name = "paper-episode"
    min_passes = 3
    modules = ("repro.core.system", "repro.core.analytic",
               "repro.energy.model", "repro.sharding.system")

    def prepare(self, seed: int) -> None:
        from repro.common.config import SystemConfig
        from repro.common.rng import spread_seed

        self.config = SystemConfig.paper()
        self.fill_seed = spread_seed(seed, "fill")
        self.crash_seed = spread_seed(seed, "crash")

    def run_pass(self, watch: Stopwatch) -> PassResult:
        from repro.core.analytic import validate_horus_report
        from repro.core.system import SecureEpdSystem
        from repro.energy.model import EnergyModel
        from repro.sharding.system import nvm_image_sha256

        with watch.timing():
            system = SecureEpdSystem(self.config, scheme=SCHEME)
            filled = system.fill_worst_case(seed=self.fill_seed)
            drain = system.crash(seed=self.crash_seed)
            recovery = system.recover()
        validate_horus_report(drain)
        vaulted = drain.flushed_blocks + drain.metadata_blocks
        if recovery is None or recovery.blocks_restored != vaulted \
                or drain.flushed_blocks != filled:
            raise PassFailure(
                f"filled {filled}, vaulted {vaulted}, restored "
                f"{recovery.blocks_restored if recovery else None}")
        outputs = {"nvm": nvm_image_sha256(system),
                   "stats": system.stats.snapshot(),
                   "drain": [drain.cycles, drain.seconds],
                   "recovery": [recovery.cycles, recovery.seconds]}
        units = vaulted + recovery.blocks_restored
        sim = (drain.seconds, EnergyModel().breakdown(drain).total_j,
               recovery.seconds)
        return PassResult(_digest(outputs), units,
                          count_metrics([system], units, sim))


class Fleet(Workload):
    name = "fleet-4"
    warmup = 1
    min_passes = 5
    modules = ("repro.core.analytic", "repro.mem.regions",
               "repro.sharding.keys", "repro.sharding.system",
               "repro.workloads.replay", "repro.workloads.tenantmix")

    def __init__(self, num_ops: int = FLEET_OPS,
                 tenants: int = FLEET_TENANTS):
        self.num_ops = num_ops
        self.tenants = tenants

    def prepare(self, seed: int) -> None:
        from repro.common.config import SystemConfig
        from repro.common.rng import spread_seed
        from repro.mem.regions import MemoryLayout
        from repro.sharding.keys import TenantKeyring
        from repro.workloads.tenantmix import TenantMixer, TenantMixPlan

        self.config = SystemConfig.scaled(REPLAY_SCALE)
        plan = TenantMixPlan(
            num_tenants=self.tenants, total_ops=self.num_ops,
            data_size=MemoryLayout(self.config).data.size * FLEET_SHARDS,
            master_seed=spread_seed(seed, "fleet"))
        self.keyring = TenantKeyring(plan.extents())
        mixer = TenantMixer(plan)
        # Tenant t runs YCSB workloads[t % 4] (a, b, c, f) whatever the
        # seed.  Drawn by the seed, the hot tenants' letters put the read
        # share anywhere from 64% to 82%, and the fleet's time and memory
        # move with it; fixed, it stays at 73%.
        mixer.tenant_workloads = tuple(
            plan.workloads[tenant % len(plan.workloads)]
            for tenant in range(plan.num_tenants))
        self.mix = mixer.mix()
        self.crash_seed = spread_seed(seed, "crash")

    def run_pass(self, watch: Stopwatch) -> PassResult:
        from repro.core.analytic import validate_horus_report
        from repro.sharding.system import ShardedSecureSystem

        with watch.timing():
            fleet = ShardedSecureSystem(
                self.config, num_shards=FLEET_SHARDS, scheme=SCHEME,
                keyring=self.keyring)
            fleet.replay(self.mix)
        # The replay invariants hold only before the drain adds its own
        # traffic, so they are checked here, off the clock.
        replayed = fleet.observables()
        for shard, observed in zip(fleet.shards, replayed):
            _replay_outputs(shard, observed.ops)
        with watch.timing():
            drain = fleet.crash(seed=self.crash_seed)
            recoveries = fleet.recover()
        for report in drain.reports:
            validate_horus_report(report)
        if any(recovery is None for recovery in recoveries):
            raise PassFailure("a shard restored nothing")
        final = fleet.observables()
        outputs = {
            "shards": [observed.as_dict() for observed in final],
            "drain": [[r.cycles, r.seconds] for r in drain.reports],
            "schedule": [drain.wall_seconds, drain.energy_j],
            "recovery": [[r.cycles, r.seconds] for r in recoveries]}
        units = len(self.mix)
        shard_ops = [observed.ops for observed in final]
        sim = (drain.wall_seconds, drain.energy_j,
               max(r.seconds for r in recoveries))
        counts = count_metrics(list(fleet.shards), units, sim)
        counts["sharding.ops_imbalance"] = (
            max(shard_ops) / statistics.mean(shard_ops))
        return PassResult(_digest(outputs), units, counts)


class Runner(Workload):
    name = "runner-s64"
    min_passes = 3
    modules = ("repro.experiments.runner",)

    def prepare(self, seed: int) -> None:
        """Nothing to build: the runner's episodes use its own fixed
        seeds, so ``seed`` selects nothing here."""

    def run_pass(self, watch: Stopwatch) -> PassResult:
        from repro.experiments.runner import run_experiments_profiled

        with watch.timing():
            results, profile = run_experiments_profiled(
                list(EXPERIMENT_IDS), scale=RUNNER_SCALE, jobs=1, cache=None)
        failed = [f"{result.experiment_id}: {check.claim}"
                  for result in results for check in result.checks
                  if not check.passed]
        if failed:
            raise PassFailure(f"shape checks failed: {failed}")
        phases = dict.fromkeys(PHASES, 0.0)
        for record in profile.records:
            prefix = record.name.partition(":")[0]
            if record.kind == "phase" and prefix in phases:
                phases[prefix] += record.seconds
        units = len(results)
        return PassResult(
            _digest("\n".join(result.to_text() for result in results)),
            units, count_metrics([], units), phases)


WORKLOADS: dict[str, Callable[[], Workload]] = {
    "ycsb-a": YcsbA,
    "paper-episode": PaperEpisode,
    "fleet-4": Fleet,
    "runner-s64": Runner,
}


# -- tracing ------------------------------------------------------------------

def span_targets() -> list[tuple[str, Any, str]]:
    """``(span name, owner, attribute)`` for every traced callable.

    Spans are named after the callable (``module:Class.method``).  A
    module function is patched in every simulator module that binds it.
    """
    targets: list[tuple[str, Any, str]] = []
    for paths in LAYER_SPANS.values():
        for path in paths:
            module_name, _, qualname = path.partition(":")
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                targets.append((path, getattr(module, owner_name), attr))
                continue
            function = getattr(module, attr)
            for name, bound in list(sys.modules.items()):
                if name.split(".")[0] != "repro" or bound is None:
                    continue
                targets.extend((path, bound, key)
                               for key, value in vars(bound).items()
                               if value is function)
    registry = importlib.import_module("repro.experiments.runner").EXPERIMENTS
    targets.extend((f"experiments.{name}", registry, name)
                   for name in EXPERIMENT_IDS if name in registry)
    return targets


def layer_metrics(recorder: SpanRecorder,
                  result: PassResult) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``trace.overhead_frac`` is
    filled in by the caller, which knows the untraced wall)."""
    totals = recorder.totals(ROOT_SPAN)
    metrics = {metric: totals.own(*paths)
               for metric, paths in LAYER_SPANS.items()}
    experiment_spans = [f"experiments.{name}" for name in EXPERIMENT_IDS]
    metrics["experiments.self_s"] = totals.own(*experiment_spans)
    metrics["trace.unattributed_s"] = totals.own(ROOT_SPAN)
    fleet_s = totals.total(FLEET_REPLAY)
    shard_s = recorder.child_durations(FLEET_REPLAY, REPLAY_FUNCTION)
    metrics["sharding.shard_replay_s"] = float(sum(shard_s))
    metrics["sharding.efficiency"] = _ratio(sum(shard_s), fleet_s)
    metrics["sharding.imbalance"] = (
        max(shard_s) / statistics.mean(shard_s) if shard_s else 0.0)
    metrics["sharding.ops_imbalance"] = result.counts.get(
        "sharding.ops_imbalance", 0.0)
    for name, span in zip(EXPERIMENT_IDS, experiment_spans):
        metrics[f"experiments.{name}_s"] = totals.total(span)
    for name in PHASES:
        metrics[f"experiments.phase.{name}_s"] = result.phases.get(name, 0.0)
    counts = result.counts
    metrics["cache.ns_per_access"] = 1e9 * _ratio(
        metrics["cache.replay_epoch_s"] + metrics["cache.resolve_pending_s"],
        counts["accesses"])
    metrics["crypto.ns_per_mac"] = 1e9 * _ratio(
        metrics["crypto.mac_batch_s"], counts["macs"])
    metrics["mem.ns_per_request"] = 1e9 * _ratio(
        metrics["mem.arena_s"] + metrics["mem.batch_s"]
        + metrics["mem.scalar_io_s"], counts["requests"])
    metrics.update((name, value) for name, value in counts.items()
                   if name in PER_LAYER)
    return metrics


# -- one workload -------------------------------------------------------------

def _purge_simulator() -> None:
    for name in [name for name in sys.modules
                 if name == "repro" or name.startswith("repro.")]:
        del sys.modules[name]


def _set_up(workload: Workload, seed: int) -> float:
    """One timed set-up: a fresh import of the simulator modules the
    workload uses, then its inputs.  Counting the import means work moved
    to import time shows in ``setup_s``."""
    _purge_simulator()
    gc.collect()
    start = time.perf_counter()
    for module in workload.modules:
        importlib.import_module(module)
    workload.prepare(seed)
    return time.perf_counter() - start


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


@dataclass
class Report:
    """Everything one workload run measured."""

    workload: str
    seed: int
    nproc: int
    expected: str | None = None
    setup_s: list[float] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    norms: list[float] = field(default_factory=list)
    traced: list[tuple[float, dict[str, float]]] = field(default_factory=list)
    units: int = 0
    attempted: int = 0
    failed: int = 0
    digest: str | None = None
    load: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    @property
    def contaminated(self) -> bool:
        """Whether something else loaded the machine during the run."""
        return max(self.load, default=0.0) > self.nproc

    def attempt(self, workload: Workload,
                watch: Stopwatch) -> PassResult | None:
        """Run one pass on ``watch`` and check it; ``None`` when it
        failed."""
        gc.collect()
        self.attempted += 1
        try:
            result = workload.run_pass(watch)
        except Exception as exc:  # a failing pass is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.fail(f"{type(exc).__name__}: {exc}")
            return None
        reference = self.expected or self.digest
        if reference is not None and result.digest != reference:
            self.fail(f"digest {result.digest} != {reference}")
            return None
        self.digest = result.digest
        self.units = result.units
        return result

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"pass {self.attempted} failed: {message}", file=sys.stderr)

    def end_to_end(self) -> dict[str, float]:
        if not self.walls:
            return {}
        wall = statistics.median(self.walls)
        return {
            "wall_s": wall,
            "wall_norm": statistics.median(self.norms),
            "sim_ops_per_s": self.units / wall,
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def per_layer(self) -> dict[str, float]:
        """The traced pass with the median wall, plus the overhead."""
        if not self.traced or not self.walls:
            return {}
        ranked = sorted(self.traced, key=lambda pair: pair[0])
        _, metrics = ranked[(len(ranked) - 1) // 2]
        traced_wall = statistics.median(pair[0] for pair in self.traced)
        return {**metrics, "trace.overhead_frac":
                traced_wall / statistics.median(self.walls) - 1.0}


def measure(workload: Workload, seed: int, seconds: float,
            trace: bool = False, expected: str | None = None,
            spans_path: str | None = None) -> Report:
    """Set up ``workload`` and run its passes for ``seconds``.

    With ``trace`` the first half of the time goes to untraced passes and
    the second half to traced ones; ``spans_path`` receives the spans of
    the last traced pass.
    """
    report = Report(workload.name, seed,
                    nproc=len(os.sched_getaffinity(0)), expected=expected)
    report.load.append(os.getloadavg()[0])
    began = time.perf_counter()
    while len(report.setup_s) < SETUP_REPEATS \
            or time.perf_counter() - began < SETUP_SECONDS:
        report.setup_s.append(_set_up(workload, seed))

    sampler = HostSampler()
    for _ in range(workload.warmup):
        report.attempt(workload, Stopwatch(sampler=sampler))
    start = time.perf_counter()
    untraced_seconds = seconds / 2 if trace else seconds
    min_passes = 1 if trace else workload.min_passes
    passes = 0
    while passes < min_passes \
            or time.perf_counter() - start < untraced_seconds:
        passes += 1
        watch = Stopwatch(sampler=sampler)
        if report.attempt(workload, watch) is not None:
            report.walls.append(watch.seconds)
            report.norms.append(watch.normalized)

    if trace:
        recorder = SpanRecorder()
        with recorder.installed(span_targets()):
            passes = 0
            while passes < 1 or time.perf_counter() - start < seconds:
                passes += 1
                recorder.clear()
                watch = Stopwatch(recorder)
                result = report.attempt(workload, watch)
                if result is not None:
                    report.traced.append(
                        (watch.seconds, layer_metrics(recorder, result)))
        if spans_path is not None:
            recorder.write_jsonl(spans_path)

    report.peak_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    report.load.append(os.getloadavg()[0])
    return report


def render(report: Report, trace: bool) -> str:
    """Human-readable tables: end-to-end medians with quartiles and n,
    and with ``trace`` the per-layer metrics."""
    status = "CONTAMINATED" if report.contaminated else "clean"
    loads = " -> ".join(f"{load:.2f}" for load in report.load)
    fail_frac = _ratio(report.failed, report.attempted)
    lines = [
        f"== {report.workload}  seed {report.seed}  "
        f"attempted {report.attempted}  failed {report.failed}",
        f"   load {loads} on nproc {report.nproc}: {status}",
        f"   digest {report.digest} "
        + ("(pinned)" if report.expected else "(passes agree)"),
        f"   {'metric':<15} {'unit':<5} {'median':>14} {'q1':>14} "
        f"{'q3':>14} {'n':>4}",
    ]
    samples = {
        "wall_s": report.walls,
        "wall_norm": report.norms,
        "sim_ops_per_s": [report.units / wall for wall in report.walls],
        "setup_s": report.setup_s,
        "peak_rss_mb": [report.peak_rss_mb],
    }
    medians = report.end_to_end()
    for metric, unit in REPORTED.items():
        if metric not in medians:
            continue
        values = samples[metric]
        q1, q3 = _quartiles(values)
        lines.append(f"   {metric:<15} {unit:<5} {medians[metric]:>14.6g} "
                     f"{q1:>14.6g} {q3:>14.6g} {len(values):>4}")
    lines.append(f"   {'fail_frac':<15} {'1':<5} {fail_frac:>14.6g} "
                 f"{'':>14} {'':>14} {report.attempted:>4}")
    if trace:
        layers = report.per_layer()
        lines.append(f"   per-layer ({len(report.traced)} traced passes; "
                     "the median-wall pass):")
        for metric, unit in PER_LAYER.items():
            if metric in layers:
                lines.append(f"   {metric:<40} {unit:<5} "
                             f"{layers[metric]:>14.6g}")
    return "\n".join(lines)


def result_line(report: Report, trace: bool) -> dict[str, Any]:
    """The last line of output, as the benchmark's callers parse it."""
    values = report.per_layer() if trace else report.end_to_end()
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": report.failed == 0 and bool(values),
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }


def _expected_digest(name: str, seed: int) -> str | None:
    """The pinned digest of ``name``, if ``seed`` is the pinned seed."""
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        pinned = json.load(handle)
    return pinned["digests"].get(name) if seed == pinned["seed"] else None


def measure_named(name: str, seed: int, seconds: float, trace: bool,
                  output: str | None) -> Report:
    """:func:`measure` on a registered workload, against its pinned
    digest; with ``output`` and ``trace`` the spans land there."""
    spans_path = None
    if output is not None and trace:
        os.makedirs(output, exist_ok=True)
        spans_path = os.path.join(output, f"spans-{name}.jsonl")
    return measure(WORKLOADS[name](), seed, seconds, trace=trace,
                   expected=_expected_digest(name, seed),
                   spans_path=spans_path)


def run_one(name: str, seed: int, seconds: float, trace: bool,
            output: str | None) -> int:
    """Measure one workload in this process and print its result."""
    report = measure_named(name, seed, seconds, trace, output)
    line = result_line(report, trace)
    print(render(report, trace))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


# -- all workloads ------------------------------------------------------------

def _commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_all(seed: int, seconds: float, trace: bool, output: str | None,
            trajectory: str | None) -> int:
    """Every workload in its own fresh (spawned) process, one after
    another, then a summary of the untraced medians."""
    nproc = len(os.sched_getaffinity(0))
    spawn = multiprocessing.get_context("spawn")
    reports: dict[str, Report] = {}
    status = 0
    for name in WORKLOADS:
        for traced in ((False, True) if trace else (False,)):
            with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
                report = pool.submit(measure_named, name, seed, seconds,
                                     traced, output).result()
            print(render(report, traced), flush=True)
            if not result_line(report, traced)["correct"]:
                status = 1
            if not traced:
                reports[name] = report

    contaminated = any(report.contaminated for report in reports.values())
    print(f"\n== summary  seed {seed}  seconds {seconds}  nproc {nproc}  "
          f"{'CONTAMINATED' if contaminated else 'clean'}")
    print(f"   {'workload':<15}" + "".join(
        f"{metric:>15}" for metric in REPORTED) + f"{'fail_frac':>11}")
    medians = {name: report.end_to_end() for name, report in reports.items()}
    for name, report in reports.items():
        print(f"   {name:<15}" + "".join(
            f"{medians[name].get(metric, float('nan')):>15.6g}"
            for metric in REPORTED)
            + f"{_ratio(report.failed, report.attempted):>11.3g}")
    record = {"commit": _commit(), "seed": seed, "seconds": seconds,
              "nproc": nproc,
              "max_load": max(max(r.load) for r in reports.values()),
              "contaminated": contaminated, "workloads": medians}
    if output is not None:
        os.makedirs(output, exist_ok=True)
        with open(os.path.join(output, "results.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
    if trajectory is not None:
        with open(trajectory, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return status


def _sources_present() -> bool:
    return ((ROOT / "src" / "repro" / "__init__.py").is_file()
            and (ROOT / "benchmarks" / "bench_runner.py").is_file())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the Horus simulator.")
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="measure one workload in this process "
                             "(default: all, one process each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: per-layer metrics from traced passes")
    parser.add_argument("--output", metavar="DIR",
                        help="write results.json and spans-*.jsonl there")
    parser.add_argument("--trajectory", metavar="FILE",
                        help="append this run's medians as one JSON line "
                             "(all-workload runs only)")
    args = parser.parse_args(argv)
    if not _sources_present():
        print(f"simulator sources not found under {ROOT}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace),
                       args.output, args.trajectory)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                   args.output)


if __name__ == "__main__":
    sys.exit(main())
