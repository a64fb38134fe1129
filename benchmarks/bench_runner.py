"""Benchmark runner for the perf-regression gate.

Times a pinned subset of simulator hot paths and emits a machine-readable
``BENCH_pr.json``.  Because CI machines differ wildly in absolute speed, two
kinds of metric are recorded:

* ``ratio`` metrics (batched-vs-scalar speedups) — dimensionless, directly
  comparable across machines;
* ``time`` metrics — wall seconds *normalized by a calibration workload*
  (a fixed loop over the same BLAKE2b/int primitives the simulator leans
  on), so "this machine is 2x slower overall" cancels out and only real
  regressions in the simulator remain.

Usage::

    PYTHONPATH=src python benchmarks/bench_runner.py --output BENCH_pr.json
    PYTHONPATH=src python benchmarks/bench_compare.py \
        benchmarks/BENCH_baseline.json BENCH_pr.json

The committed ``benchmarks/BENCH_baseline.json`` is regenerated with
``--output benchmarks/BENCH_baseline.json`` whenever an intentional
performance change lands (note it in the PR).
"""

import argparse
import hashlib
import json
import platform
import random
import sys
import time

from repro.common.config import SystemConfig
from repro.core.system import SecureEpdSystem

DRAIN_SCALE = 128
"""The LLC-scale configuration every drain metric is pinned to."""

SWEEP_SCALE = 64
"""Scale of the fig14 LLC sweep timing (cache disabled)."""

REPEATS = 5
"""Best-of-N for the millisecond-scale measurements (the seconds-long
fig14 sweep uses best-of-2)."""

REPLAY_OPS = 100_000
"""Trace length of the replay-throughput workload (YCSB-A)."""

REPLAY_ROUNDS = 3
"""Interleaved scalar/batched rounds for the replay metric: each round
times both sides back to back, so background load lands on both and the
min/min ratio stays honest."""

CACHE_MODEL_OPS = 32_768
"""Ops per synthetic mix of the cache-model metric (8 default epochs)."""

CACHE_MODEL_MIXES = ("thrash", "all-hit", "zipf")
"""The synthetic access mixes the cache-model metric cycles through:
an LLC-thrashing sequential sweep (every steady-state access misses and
evicts), an L1-resident round-robin (every access hits), and a skewed
zipf-like draw (the YCSB-shaped middle ground)."""

SHARD_COUNT = 4
"""Fleet size of the sharded-replay metric."""

SHARD_OPS = 20_000
"""Trace length of the sharded multi-tenant replay workload."""

SHARD_TENANTS = 32
"""Tenant count of the sharded replay's mix plan."""


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def calibration_workload() -> None:
    """A fixed pure-Python loop over the simulator's hot primitives.

    Roughly one drain episode's worth of keyed-hash forks, integer XORs,
    and bytes assembly — its wall time tracks how fast this machine runs
    the simulator's kind of Python, which is exactly the factor to divide
    out of the ``time`` metrics.
    """
    base = hashlib.blake2b(key=b"bench-calibration-key", digest_size=8)
    accumulator = 0
    chunks = []
    payload = bytes(range(64))
    for i in range(50_000):
        fork = base.copy()
        fork.update(i.to_bytes(8, "little") + i.to_bytes(16, "little"))
        digest = fork.digest()
        accumulator ^= int.from_bytes(digest, "little")
        if i % 64 == 0:
            chunks.append(payload)
    blob = b"".join(chunks)
    accumulator ^= int.from_bytes(blob[:8], "little")


def _drain_wall(scheme: str, batched: bool,
                config: SystemConfig) -> tuple[float, int]:
    """Best-of-N wall seconds of the drain itself (fill excluded)."""
    best = float("inf")
    blocks = 0
    for _ in range(REPEATS):
        system = SecureEpdSystem(config, scheme=scheme, batched=batched)
        system.fill_worst_case(seed=1)
        start = time.perf_counter()
        report = system.crash(seed=2)
        best = min(best, time.perf_counter() - start)
        blocks = report.flushed_blocks + report.metadata_blocks
    return best, blocks


def _recovery_wall(scheme: str, batched: bool,
                   config: SystemConfig) -> float:
    def once():
        system = SecureEpdSystem(config, scheme=scheme, batched=batched)
        system.fill_worst_case(seed=1)
        system.crash(seed=2)
        start = time.perf_counter()
        system.recover()
        return time.perf_counter() - start

    return min(once() for _ in range(REPEATS))


def replay_trace(config: SystemConfig) -> list:
    """The pinned replay workload: a 100k-op YCSB-A trace whose working
    set is twice the LLC's capacity (every round misses substantially)."""
    from repro.workloads.ycsb import ycsb_trace
    return ycsb_trace("a", num_ops=REPLAY_OPS,
                      footprint_blocks=config.llc.num_lines * 2, seed=87)


def cache_model_ops(kind: str, config: SystemConfig,
                    num_ops: int = CACHE_MODEL_OPS,
                    seed: int = 5) -> list:
    """One synthetic op mix for the pure cache-model benchmark.

    Already in :meth:`~repro.cache.hierarchy.CacheHierarchy.replay_epoch`'s
    wire form — ``("w", address, payload)`` / ``("r", address, None)``
    tuples, block-aligned, 50/50 read/write — so timing it exercises the
    fused cache pass alone, with no trace objects and no memory side.
    """
    line_size = config.l1.line_size
    if kind == "thrash":
        footprint = config.llc.num_lines * 2
        addresses = [i % footprint * line_size for i in range(num_ops)]
    elif kind == "all-hit":
        footprint = max(config.l1.num_lines // 2, 1)
        addresses = [i % footprint * line_size for i in range(num_ops)]
    elif kind == "zipf":
        footprint = config.llc.num_lines * 4
        draw = random.Random(seed).random
        addresses = [int(footprint * draw() ** 4) * line_size
                     for _ in range(num_ops)]
    else:
        raise ValueError(f"unknown cache-model mix {kind!r}")
    payload = bytes(line_size)
    flip = random.Random(seed + 1).random
    return [("w", address, payload) if flip() < 0.5
            else ("r", address, None)
            for address in addresses]


def replay_cache_model(config: SystemConfig, ops: list):
    """Run ``ops`` through a bare hierarchy's fused epoch pass.

    Markers are resolved with zero blocks in place of fetched data, so the
    hierarchy stays well-formed across epochs while no NVM, crypto, or
    controller work dilutes the measurement.
    """
    from repro.cache.hierarchy import CacheHierarchy
    from repro.workloads.replay import DEFAULT_EPOCH_OPS

    hierarchy = CacheHierarchy(config)
    fill = bytes(config.l1.line_size)
    for start in range(0, len(ops), DEFAULT_EPOCH_OPS):
        _, fills = hierarchy.replay_epoch(
            ops[start:start + DEFAULT_EPOCH_OPS])
        hierarchy.resolve_pending(fills, [fill] * len(fills))
    return hierarchy


def _cache_model_wall(config: SystemConfig) -> float:
    mixes = [cache_model_ops(kind, config) for kind in CACHE_MODEL_MIXES]

    def once():
        for ops in mixes:
            replay_cache_model(config, ops)

    return _best_of(once)


def _replay_walls(scheme: str, config: SystemConfig) -> tuple[float, float]:
    """(scalar, batched) best wall seconds over interleaved rounds."""
    from repro.workloads.replay import replay

    trace = replay_trace(config)
    best = {False: float("inf"), True: float("inf")}
    for _ in range(REPLAY_ROUNDS):
        for batched in (False, True):
            system = SecureEpdSystem(config, scheme=scheme, batched=batched)
            start = time.perf_counter()
            replay(system, trace, batched=batched)
            best[batched] = min(best[batched],
                                time.perf_counter() - start)
    return best[False], best[True]


def _fill_walls(scheme: str, config: SystemConfig) -> tuple[float, float]:
    """(scalar, batched) best wall seconds of fill_worst_case."""
    best = {False: float("inf"), True: float("inf")}
    for _ in range(REPEATS):
        for batched in (False, True):
            system = SecureEpdSystem(config, scheme=scheme, batched=batched)
            start = time.perf_counter()
            system.fill_worst_case(seed=1)
            best[batched] = min(best[batched],
                                time.perf_counter() - start)
    return best[False], best[True]


def _paper_fill_walls(scheme: str) -> tuple[float, float, int]:
    """(scalar, batched, lines) wall seconds of ``fill_worst_case`` at the
    paper's full Table I geometry (295,936 LLC lines).

    Seconds-long per round, so two interleaved rounds bound the runtime
    while keeping the min/min ratio honest against background load.
    """
    config = SystemConfig.paper()
    best = {False: float("inf"), True: float("inf")}
    lines = 0
    for _ in range(2):
        for batched in (False, True):
            system = SecureEpdSystem(config, scheme=scheme, batched=batched)
            start = time.perf_counter()
            lines = system.fill_worst_case(seed=1)
            best[batched] = min(best[batched],
                                time.perf_counter() - start)
    return best[False], best[True], lines


def _shard_walls(config: SystemConfig) -> tuple[float, float]:
    """(solo, sharded) best wall seconds of one multi-tenant fleet replay.

    Both sides run the identical per-controller work — the solo side
    replays each shard's routed part, at the shard's base offset, on
    standalone systems keyed the same way — so solo/sharded isolates the
    router + facade overhead as a machine-independent ratio (1.0 = free
    routing; a drop means the routed path got slower).  Rounds interleave
    the two sides like the replay metric does.
    """
    from repro.core.system import SecureEpdSystem as Solo
    from repro.sharding.keys import TenantKeyring
    from repro.sharding.router import ShardRouter
    from repro.sharding.system import ShardedSecureSystem, shard_key_schedules
    from repro.workloads.replay import replay
    from repro.workloads.tenantmix import TenantMixer, TenantMixPlan
    from repro.mem.regions import MemoryLayout

    router = ShardRouter(config, SHARD_COUNT)
    plan = TenantMixPlan(
        num_tenants=SHARD_TENANTS, total_ops=SHARD_OPS,
        data_size=MemoryLayout(config).data.size * SHARD_COUNT,
        master_seed=87)
    keyring = TenantKeyring(plan.extents())
    mix = TenantMixer(plan).mix()
    parts = router.split(mix)
    schedules = shard_key_schedules(router, keyring, "horus-dlm")

    best = {"solo": float("inf"), "sharded": float("inf")}
    for _ in range(REPLAY_ROUNDS):
        solos = [Solo(config, scheme="horus-dlm", key_schedule=schedule)
                 for schedule in schedules]
        start = time.perf_counter()
        for system, part, extent in zip(solos, parts, router.extents):
            if part:
                replay(system, part, base=extent.base)
        best["solo"] = min(best["solo"], time.perf_counter() - start)

        fleet = ShardedSecureSystem(config, num_shards=SHARD_COUNT,
                                    scheme="horus-dlm", keyring=keyring)
        start = time.perf_counter()
        fleet.replay(mix)
        best["sharded"] = min(best["sharded"],
                              time.perf_counter() - start)
    return best["solo"], best["sharded"]


def _fig14_wall() -> float:
    from repro.experiments.fig14_15_llc_sweep import run_fig14
    from repro.experiments.suite import DrainSuite

    def once():
        run_fig14(DrainSuite(scale=SWEEP_SCALE, cache=None))

    # Seconds-long, so two rounds keep the total runtime reasonable while
    # shielding the gate from a one-off scheduler hiccup.
    return _best_of(once, repeats=2)


def run_benchmarks() -> dict:
    calibration = _best_of(calibration_workload)
    config = SystemConfig.scaled(DRAIN_SCALE)

    metrics: dict[str, dict] = {}

    for scheme in ("horus-slm", "horus-dlm", "nosec"):
        batched_s, blocks = _drain_wall(scheme, True, config)
        scalar_s, _ = _drain_wall(scheme, False, config)
        metrics[f"drain:{scheme}:batched"] = {
            "kind": "time", "seconds": batched_s,
            "normalized": batched_s / calibration,
            "blocks_per_second": blocks / batched_s,
        }
        metrics[f"drain:{scheme}:speedup"] = {
            "kind": "ratio", "value": scalar_s / batched_s,
        }

    scalar_replay, batched_replay = _replay_walls("horus-dlm", config)
    metrics["replay:horus-dlm:batched"] = {
        "kind": "time", "seconds": batched_replay,
        "normalized": batched_replay / calibration,
        "ops_per_second": REPLAY_OPS / batched_replay,
    }
    metrics["replay:horus-dlm:speedup"] = {
        "kind": "ratio", "value": scalar_replay / batched_replay,
    }

    cache_model_s = _cache_model_wall(config)
    metrics["replay:cache-model:mixed"] = {
        "kind": "time", "seconds": cache_model_s,
        "normalized": cache_model_s / calibration,
        "ops_per_second":
            CACHE_MODEL_OPS * len(CACHE_MODEL_MIXES) / cache_model_s,
    }

    scalar_fill, batched_fill = _fill_walls("horus-dlm", config)
    metrics["fill:horus-dlm:batched"] = {
        "kind": "time", "seconds": batched_fill,
        "normalized": batched_fill / calibration,
    }
    metrics["fill:horus-dlm:speedup"] = {
        "kind": "ratio", "value": scalar_fill / batched_fill,
    }

    paper_scalar, paper_batched, paper_lines = _paper_fill_walls("horus-dlm")
    metrics["fill:horus-dlm:paper-batched"] = {
        "kind": "time", "seconds": paper_batched,
        "normalized": paper_batched / calibration,
        "lines_per_second": paper_lines / paper_batched,
    }
    metrics["fill:horus-dlm:paper-speedup"] = {
        "kind": "ratio", "value": paper_scalar / paper_batched,
    }

    solo_shard, sharded = _shard_walls(config)
    metrics[f"shard:{SHARD_COUNT}:replay"] = {
        "kind": "time", "seconds": sharded,
        "normalized": sharded / calibration,
        "ops_per_second": SHARD_OPS / sharded,
    }
    metrics[f"shard:{SHARD_COUNT}:efficiency"] = {
        "kind": "ratio", "value": solo_shard / sharded,
    }

    recovery_s = _recovery_wall("horus-dlm", True, config)
    metrics["recovery:horus-dlm:batched"] = {
        "kind": "time", "seconds": recovery_s,
        "normalized": recovery_s / calibration,
    }

    fig14_s = _fig14_wall()
    metrics["fig14:sweep"] = {
        "kind": "time", "seconds": fig14_s,
        "normalized": fig14_s / calibration,
    }

    return {
        "meta": {
            "calibration_seconds": calibration,
            "drain_scale": DRAIN_SCALE,
            "sweep_scale": SWEEP_SCALE,
            "repeats": REPEATS,
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the pinned benchmark subset and emit JSON.")
    parser.add_argument("--output", default="BENCH_pr.json",
                        help="where to write the result (default: "
                             "BENCH_pr.json)")
    args = parser.parse_args(argv)

    payload = run_benchmarks()
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    calibration = payload["meta"]["calibration_seconds"]
    print(f"calibration: {calibration * 1e3:.1f} ms")
    for name, metric in sorted(payload["metrics"].items()):
        if metric["kind"] == "ratio":
            print(f"{name}: {metric['value']:.2f}x")
        else:
            print(f"{name}: {metric['seconds'] * 1e3:.1f} ms "
                  f"(normalized {metric['normalized']:.2f})")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
