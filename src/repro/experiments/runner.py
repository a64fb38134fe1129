"""Experiment runner: regenerate every table and figure of the evaluation.

Usage::

    python -m repro.experiments.runner                  # everything, scale 16
    python -m repro.experiments.runner --scale 1        # full paper scale
    python -m repro.experiments.runner fig6 fig11       # a subset
    python -m repro.experiments.runner --jobs 4         # parallel fan-out
    python -m repro.experiments.runner --profile        # timing + cache table

``--scale N`` shrinks the Table I configuration by N (power of two) while
preserving the worst-case behaviour; scale 1 is the paper's exact setup
(~296 k flushed blocks; the two baseline schemes take tens of seconds each in
pure Python).  Fig. 16 always evaluates at paper scale (analytic).

``--jobs N`` (default ``os.cpu_count()``) fans independent experiments — and
the independent ``(config, scheme, llc_size)`` drain episodes they share —
out across a :class:`~concurrent.futures.ProcessPoolExecutor`.  ``--jobs 1``
preserves the serial path exactly; both paths produce identical payloads
(every experiment is a pure function of fixed-seed episodes).

Results are cached persistently under ``results/.cache/`` keyed by
(config, scheme, seeds, code version) — see :mod:`repro.experiments.cache`.
``--no-cache`` disables the cache, ``--refresh`` recomputes and overwrites.
"""

import argparse
import os
import sys
import time
from collections.abc import Callable

from repro.experiments import ablations
from repro.experiments.adr_comparison import run as run_adr
from repro.experiments.campaigns import run as run_campaigns
from repro.experiments.faults import run as run_faults
from repro.experiments.availability import run as run_availability
from repro.experiments.parallelism import run as run_parallelism
from repro.experiments.runtime_overhead import run as run_runtime
from repro.experiments.scheduling import run as run_scheduling
from repro.experiments.sharding import run as run_sharding
from repro.experiments.wear import run as run_wear
from repro.experiments.fig06_motivation import run as run_fig6
from repro.experiments.headline import run as run_headline
from repro.experiments.fig11_drain_time import run as run_fig11
from repro.experiments.fig12_write_breakdown import run as run_fig12
from repro.experiments.fig13_mac_breakdown import run as run_fig13
from repro.experiments.fig14_15_llc_sweep import (
    LLC_SIZES,
    SWEEP_SCHEMES,
    run_fig14,
    run_fig15,
)
from repro.experiments.fig16_recovery_time import run as run_fig16
from repro.experiments.cache import ResultCache, experiment_key
from repro.experiments.profile import (
    RunProfile,
    TimingRecord,
    capture_phases,
)
from repro.experiments.result import ExperimentResult
from repro.experiments.suite import DRAIN_SEED, FILL_SEED, DrainSuite
from repro.experiments.table2_energy import run as run_table2
from repro.experiments.table3_battery import run as run_table3

EXPERIMENTS: dict[str, Callable[[DrainSuite], ExperimentResult]] = {
    "headline": run_headline,
    "fig6": run_fig6,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "fig14": run_fig14,
    "fig15": run_fig15,
    "fig16": run_fig16,
    "table2": run_table2,
    "table3": run_table3,
    "ablation-locality": ablations.run_locality,
    "ablation-metadata-cache": ablations.run_metadata_cache,
    "ablation-coalescing": ablations.run_coalescing,
    "ablation-adr-vs-epd": run_adr,
    "ablation-wear": run_wear,
    "ablation-parallelism": run_parallelism,
    "ablation-runtime": run_runtime,
    "ablation-availability": run_availability,
    "ablation-scheduler": run_scheduling,
    "ablation-faults": run_faults,
    "ablation-campaigns": run_campaigns,
    "ablation-shards": run_sharding,
}

_ALL_SCHEMES = ("nosec", "base-lu", "base-eu", "horus-slm", "horus-dlm")
_SECURE_SCHEMES = ("base-lu", "base-eu", "horus-slm", "horus-dlm")

#: Default-path drain episodes each experiment pulls from the shared suite,
#: as ``(scheme, llc_size_or_None)`` pairs — the parallel runner prewarms
#: the union of these across workers before fanning the experiments out.
EXPERIMENT_EPISODES: dict[str, tuple[tuple[str, int | None], ...]] = {
    "headline": tuple((s, None) for s in _ALL_SCHEMES),
    "fig6": tuple((s, None) for s in _ALL_SCHEMES),
    "fig11": tuple((s, None) for s in _ALL_SCHEMES),
    "fig12": tuple((s, None) for s in _ALL_SCHEMES),
    "fig13": tuple((s, None) for s in _ALL_SCHEMES),
    "fig14": tuple((s, llc) for llc in LLC_SIZES for s in SWEEP_SCHEMES),
    "fig15": tuple((s, llc) for llc in LLC_SIZES for s in SWEEP_SCHEMES),
    "fig16": (),
    "table2": tuple((s, None) for s in _ALL_SCHEMES),
    "table3": tuple((s, None) for s in _SECURE_SCHEMES),
    "ablation-locality": (),
    "ablation-metadata-cache": (("horus-slm", None),),
    "ablation-coalescing": (),
    "ablation-adr-vs-epd": (),
    "ablation-wear": (),
    "ablation-parallelism": (),
    "ablation-runtime": (),
    "ablation-availability": (),
    "ablation-scheduler": (),
    "ablation-faults": (),
    "ablation-campaigns": (),
    "ablation-shards": (),
}


def default_jobs() -> int:
    return os.cpu_count() or 1


# -- worker-process entry points (must be module-level for pickling) ----------

_WORKER_SUITE: DrainSuite | None = None
_WORKER_CACHE: ResultCache | None = None


def _worker_init(scale: int, cache_spec: dict | None,
                 prewarmed: dict) -> None:
    global _WORKER_SUITE, _WORKER_CACHE
    _WORKER_CACHE = ResultCache(**cache_spec) if cache_spec else None
    _WORKER_SUITE = DrainSuite(scale=scale, cache=_WORKER_CACHE)
    for (scheme, llc_size), report in prewarmed.items():
        _WORKER_SUITE.seed_report(scheme, llc_size, report)


def _worker_experiment(name: str):
    """Run one experiment in a worker; the parent already saw a cache miss."""
    start = time.perf_counter()
    result = EXPERIMENTS[name](_WORKER_SUITE)
    if _WORKER_CACHE is not None:
        _WORKER_CACHE.put(_experiment_cache_key(name, _WORKER_SUITE), result)
    seconds = time.perf_counter() - start
    counters = _WORKER_CACHE.counters() if _WORKER_CACHE else {}
    return name, result, seconds, str(os.getpid()), counters


def _episode_task(scale: int, scheme: str, llc_size: int | None,
                  cache_spec: dict | None):
    """Compute one default-path drain episode (parallel prewarm)."""
    cache = ResultCache(**cache_spec) if cache_spec else None
    suite = DrainSuite(scale=scale, cache=cache)
    start = time.perf_counter()
    report = suite.drain(scheme, llc_size=llc_size)
    seconds = time.perf_counter() - start
    counters = cache.counters() if cache else {}
    source = "cache" if counters.get("hits") else "computed"
    return scheme, llc_size, report, seconds, str(os.getpid()), counters, source


# -- orchestration ------------------------------------------------------------

def _episode_label(scheme: str, llc_size: int | None) -> str:
    if llc_size is None:
        return f"drain:{scheme}"
    return f"drain:{scheme}@{llc_size // (1 << 20)}MB"


def run_experiments_profiled(
        names: list[str], scale: int = 16, jobs: int = 1,
        cache: ResultCache | None = None,
) -> tuple[list[ExperimentResult], RunProfile]:
    """Run the named experiments; return results plus a :class:`RunProfile`.

    ``jobs=1`` is the serial reference path; ``jobs>1`` prewarms the shared
    drain episodes and then the experiments themselves across a process
    pool.  Both produce identical result payloads.
    """
    profile = RunProfile(jobs=jobs, scale=scale)
    run_start = time.perf_counter()
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}")

    if jobs <= 1:
        results = _run_serial(names, scale, cache, profile, run_start)
    else:
        results = _run_parallel(names, scale, jobs, cache, profile,
                                run_start)

    profile.wall_seconds = time.perf_counter() - run_start
    if cache is not None:
        profile.absorb_cache(cache.counters())
    return results, profile


def _experiment_cache_key(name: str, suite: DrainSuite) -> str:
    return experiment_key(name, suite.config(), suite.scale,
                          FILL_SEED, DRAIN_SEED)


def _run_serial(names, scale, cache, profile, run_start):
    suite = DrainSuite(scale=scale, cache=cache)
    results = []
    for name in names:
        started = time.perf_counter() - run_start
        cached = None
        if cache is not None:
            cached = cache.get(_experiment_cache_key(name, suite))
        if cached is not None:
            result, source = cached, "cache"
        else:
            # Fill/replay/drain sub-phases land on the same profile as
            # extra kind="phase" timeline rows.
            with capture_phases(profile, run_start):
                result, source = EXPERIMENTS[name](suite), "computed"
            if cache is not None:
                cache.put(_experiment_cache_key(name, suite), result)
        results.append(result)
        profile.add(TimingRecord(
            name=name, kind="experiment",
            seconds=time.perf_counter() - run_start - started,
            worker="main", source=source, started=started))
    return results


def _run_parallel(names, scale, jobs, cache, profile, run_start):
    from concurrent.futures import ProcessPoolExecutor, as_completed

    suite = DrainSuite(scale=scale, cache=cache)
    cache_spec = cache.spec() if cache is not None else None

    # Phase 0: serve whole experiments straight from the persistent cache.
    finished: dict[str, ExperimentResult] = {}
    scheduled: list[str] = []
    for name in names:
        if name in finished or name in scheduled:
            continue
        cached = None
        if cache is not None:
            cached = cache.get(_experiment_cache_key(name, suite))
        if cached is not None:
            finished[name] = cached
            profile.add(TimingRecord(
                name=name, kind="experiment", seconds=0.0, worker="main",
                source="cache", started=time.perf_counter() - run_start))
        else:
            scheduled.append(name)

    # Phase 1: prewarm the union of shared drain episodes across workers.
    needed: list[tuple[str, int | None]] = []
    for name in scheduled:
        for episode in EXPERIMENT_EPISODES.get(name, ()):
            if episode not in needed:
                needed.append(episode)
    prewarmed: dict[tuple[str, int | None], object] = {}
    to_compute: list[tuple[str, int | None]] = []
    for scheme, llc_size in needed:
        report = None
        if cache is not None:
            from repro.experiments.cache import episode_key
            report = cache.get(episode_key(
                suite.config(llc_size), scheme, "sparse",
                FILL_SEED, DRAIN_SEED))
        if report is not None:
            prewarmed[(scheme, llc_size)] = report
            profile.add(TimingRecord(
                name=_episode_label(scheme, llc_size), kind="episode",
                seconds=0.0, worker="main", source="cache",
                started=time.perf_counter() - run_start))
        else:
            to_compute.append((scheme, llc_size))

    if to_compute:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(_episode_task, scale, scheme, llc_size,
                            cache_spec): (scheme, llc_size)
                for scheme, llc_size in to_compute
            }
            for future in as_completed(futures):
                scheme, llc_size, report, seconds, worker, counters, \
                    source = future.result()
                prewarmed[(scheme, llc_size)] = report
                profile.absorb_cache(counters)
                profile.add(TimingRecord(
                    name=_episode_label(scheme, llc_size), kind="episode",
                    seconds=seconds, worker=worker, source=source,
                    started=time.perf_counter() - run_start - seconds))

    # Phase 2: fan the remaining experiments out over warm workers.
    if scheduled:
        with ProcessPoolExecutor(
                max_workers=jobs, initializer=_worker_init,
                initargs=(scale, cache_spec, prewarmed)) as pool:
            futures = [pool.submit(_worker_experiment, name)
                       for name in scheduled]
            for future in as_completed(futures):
                name, result, seconds, worker, counters = future.result()
                finished[name] = result
                profile.absorb_cache(counters)
                profile.add(TimingRecord(
                    name=name, kind="experiment", seconds=seconds,
                    worker=worker, source="computed",
                    started=time.perf_counter() - run_start - seconds))

    return [finished[name] for name in names]


def run_experiments(names: list[str], scale: int = 16, jobs: int = 1,
                    cache: ResultCache | None = None
                    ) -> list[ExperimentResult]:
    """Run the named experiments over one shared drain suite."""
    results, _ = run_experiments_profiled(
        names, scale=scale, jobs=jobs, cache=cache)
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the Horus paper's tables and figures.")
    parser.add_argument("experiments", nargs="*",
                        choices=[*EXPERIMENTS, []],
                        help="subset to run (default: all)")
    parser.add_argument("--scale", type=int, default=16,
                        help="config shrink factor, power of two "
                             "(1 = full paper scale; default 16)")
    parser.add_argument("--jobs", type=int, default=default_jobs(),
                        metavar="N",
                        help="worker processes (default: all cores; "
                             "1 = serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent result cache")
    parser.add_argument("--refresh", action="store_true",
                        help="recompute everything, overwriting the cache")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="cache location (default: results/.cache, or "
                             "$REPRO_CACHE_DIR)")
    parser.add_argument("--profile", action="store_true",
                        help="print per-experiment timing, worker ids, and "
                             "cache hit/miss counts")
    parser.add_argument("--oracle", action="store_true",
                        help="differential oracle: run every episode on both "
                             "the scalar and batched paths and fail on any "
                             "observable difference (sets REPRO_ORACLE=1; "
                             "combine with --refresh to re-verify cached "
                             "episodes)")
    parser.add_argument("--output", metavar="DIR",
                        help="also write results.json and results.md there")
    parser.add_argument("--chart", action="store_true",
                        help="render each experiment's last numeric column "
                             "as ASCII bars")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.oracle:
        # Set before any worker process spawns so the whole fan-out samples.
        os.environ.setdefault("REPRO_ORACLE", "1")

    names = args.experiments or list(EXPERIMENTS)
    cache = None
    if not args.no_cache:
        cache = ResultCache(root=args.cache_dir, refresh=args.refresh)
    results, profile = run_experiments_profiled(
        names, scale=args.scale, jobs=args.jobs, cache=cache)

    if args.output:
        from repro.experiments.export import write_results
        for path in write_results(results, args.output, args.scale,
                                  profile=profile):
            print(f"wrote {path}")

    failures = 0
    for result in results:
        print(result.to_text())
        if args.chart:
            from repro.stats.chart import chart_experiment
            print()
            print(chart_experiment(result))
        print()
        failures += sum(1 for check in result.checks if not check.passed)
    if args.profile:
        print(profile.render())
        print()
    total_checks = sum(len(result.checks) for result in results)
    print(f"shape checks: {total_checks - failures}/{total_checks} passed "
          f"(scale={args.scale})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
