"""The differential oracle: scalar vs batched execution, held equal.

The batched hot paths (:mod:`repro.crypto.batch`, the grouped NVM issue, the
batched drain/recovery loops) promise *observable equivalence* with the
scalar reference: same NVM image, same operation counters, same report
fields, same exceptions, same writes lost to the same faults.  The oracle
enforces that promise at run time by executing the same seeded episode twice
— once with ``batched=True``, once with ``batched=False`` — and comparing
everything the simulator can observe.

Enable it with the ``REPRO_ORACLE`` environment variable (or the runner's
``--oracle`` flag, which sets it):

``REPRO_ORACLE=1``
    check every episode that goes through
    :func:`repro.experiments.suite.run_episode`;
``REPRO_ORACLE=N`` (integer > 1)
    check every N-th episode (cheap spot-checking on big sweeps);
``REPRO_ORACLE=0`` / unset
    off (the default).

Drain episodes are checked by :func:`run_differential` (via
:func:`repro.experiments.suite.run_episode`); trace replays by
:func:`run_replay_differential` (via
:func:`repro.experiments.suite.run_replay_episode`), which holds the entire
runtime state — NVM image, stats, cache and metadata-cache contents, tree
root — equal after the last epoch.

Cached episodes are served without re-running and therefore without an
oracle pass — combine ``--oracle`` with ``--refresh`` to re-verify a warm
result store.  Any mismatch raises
:class:`~repro.common.errors.OracleDivergenceError` naming the field that
diverged; it always means a bug in one of the two paths.
"""

import os
from collections.abc import Callable
from dataclasses import dataclass

from repro.common.config import SystemConfig
from repro.common.errors import OracleDivergenceError
from repro.core.system import SecureEpdSystem
from repro.epd.drain import DrainReport
from repro.workloads.replay import DEFAULT_EPOCH_OPS, replay
from repro.workloads.trace import MemoryOp

_EPISODES_SEEN = 0

SystemHook = Callable[[SecureEpdSystem], None]
"""A step :func:`run_differential` applies to both systems alike."""


def oracle_interval() -> int:
    """The configured sampling interval: 0 = off, 1 = every episode."""
    raw = os.environ.get("REPRO_ORACLE", "0").strip()
    try:
        interval = int(raw)
    except ValueError:
        return 1 if raw else 0
    return max(interval, 0)


def should_check() -> bool:
    """Sampling decision for the next episode (advances the sample counter)."""
    global _EPISODES_SEEN
    interval = oracle_interval()
    if interval == 0:
        return False
    _EPISODES_SEEN += 1
    return _EPISODES_SEEN % interval == 0


@dataclass(frozen=True)
class OracleOutcome:
    """What one differential episode produced (the batched run's view)."""

    drain: DrainReport
    recovery: object | None
    checks: int
    """Number of observable fields compared."""
    recovery_error: tuple[str, str] | None = None
    """``(type name, message)`` of the exception both recoveries raised;
    unlike a drain's, it is an outcome, not re-raised."""


def _observe(config: SystemConfig, scheme: str, batched: bool, fill: str,
             fill_seed: int, drain_seed: int, recover: bool,
             before_crash: SystemHook | None,
             before_recover: SystemHook | None, system_kwargs: dict):
    """Run one full episode; return (system, observables dict)."""
    system = SecureEpdSystem(config, scheme=scheme, batched=batched,
                             **system_kwargs)
    if fill == "sequential":
        system.hierarchy.fill_sequential()
    else:
        system.fill_worst_case(seed=fill_seed)
    if before_crash is not None:
        before_crash(system)

    obs: dict[str, object] = {}
    drain_exc: BaseException | None = None
    report = None
    try:
        report = system.crash(seed=drain_seed)
    # The oracle's whole job is to observe *any* failure identically on both
    # paths: the exception is captured as an observable, compared, and
    # re-raised by run_differential.  This is the documented R4 exemption.
    except Exception as exc:  # reprolint: disable=R4
        drain_exc = exc
    obs["drain exception"] = (type(drain_exc).__name__, str(drain_exc)) \
        if drain_exc is not None else None
    if report is not None:
        obs["flushed blocks"] = report.flushed_blocks
        obs["metadata blocks"] = report.metadata_blocks
        obs["drain cycles"] = report.cycles
        obs["drain stats"] = report.stats.snapshot()

    recovery = None
    rec_exc: BaseException | None = None
    if recover and report is not None:
        if before_recover is not None:
            before_recover(system)
        try:
            recovery = system.recover()
        except Exception as exc:  # reprolint: disable=R4
            rec_exc = exc
        obs["recovery exception"] = (type(rec_exc).__name__, str(rec_exc)) \
            if rec_exc is not None else None
        if recovery is not None:
            obs["recovered blocks"] = recovery.blocks_restored
            obs["recovery cycles"] = recovery.cycles
            obs["recovery stats"] = recovery.stats.snapshot()
        # Lane order: set by set, each set LRU -> MRU.
        obs["hierarchy lines"] = [list(level.lines())
                                  for level in system.hierarchy.levels]
        controller = system.controller
        if controller is not None:
            obs["metadata caches"] = [
                (cache.name, list(controller.metadata_lines(cache)))
                for cache in controller.metadata_caches]

    obs["NVM image"] = system.nvm.backend.image()
    obs["lost writes"] = list(system.nvm.lost_writes)
    if system.drain_counter is not None:
        obs["drain counter"] = (system.drain_counter.value,
                                system.drain_counter.ephemeral)
    obs["total stats"] = system.stats.snapshot()
    return system, report, recovery, drain_exc, obs


def run_differential(config: SystemConfig, scheme: str, *,
                     fill: str = "sparse", fill_seed: int = 11,
                     drain_seed: int = 23, recover: bool = False,
                     before_crash: SystemHook | None = None,
                     before_recover: SystemHook | None = None,
                     **system_kwargs) -> OracleOutcome:
    """Run one episode on both paths; raise on any observable difference.

    Returns the batched run's reports (so a caller can transparently
    substitute a differential run for a normal, batched one).
    ``system_kwargs`` are forwarded to both
    :class:`~repro.core.system.SecureEpdSystem` constructions —
    fault-matrix schemes pass ``rotate_vault``/``recovery_mode`` etc.
    ``before_crash`` runs on each system between the fill and the crash
    (run-time traffic), ``before_recover`` between the crash and the
    recovery (an adversary on the vault).
    """
    runs = {}
    for batched in (True, False):
        runs[batched] = _observe(config, scheme, batched, fill, fill_seed,
                                 drain_seed, recover, before_crash,
                                 before_recover, system_kwargs)
    _, report, recovery, exc, obs_b = runs[True]
    obs_s = runs[False][-1]

    fields = sorted(set(obs_b) | set(obs_s))
    for name in fields:
        value_b, value_s = obs_b.get(name), obs_s.get(name)
        if value_b != value_s:
            raise OracleDivergenceError(
                f"scalar and batched paths diverged on {name!r} for "
                f"scheme={scheme!r} fill={fill!r} seeds=({fill_seed}, "
                f"{drain_seed}): batched={_shorten(value_b)} "
                f"scalar={_shorten(value_s)}")

    if exc is not None:
        raise exc
    return OracleOutcome(drain=report, recovery=recovery, checks=len(fields),
                         recovery_error=obs_b.get("recovery exception"))


@dataclass(frozen=True)
class ReplayOutcome:
    """What one differential replay produced (the batched run's view)."""

    system: SecureEpdSystem
    expected: dict[int, bytes] | None
    checks: int
    """Number of observable fields compared."""


def _observe_replay(config: SystemConfig, scheme: str, batched: bool,
                    trace: "list[MemoryOp]", epoch_ops: int,
                    system_kwargs: dict):
    """Replay ``trace`` on a fresh system; return its full observable state."""
    system = SecureEpdSystem(config, scheme=scheme, batched=batched,
                             **system_kwargs)
    obs: dict[str, object] = {}
    replay_exc: BaseException | None = None
    expected: dict[int, bytes] | None = None
    try:
        expected = replay(system, trace, epoch_ops=epoch_ops,
                          batched=batched)
    # Same contract as _observe: a failing replay is itself an observable
    # that both paths must produce identically.
    except Exception as exc:  # reprolint: disable=R4
        replay_exc = exc
    obs["replay exception"] = (type(replay_exc).__name__, str(replay_exc)) \
        if replay_exc is not None else None
    if expected is not None:
        obs["expected contents"] = expected

    obs["NVM image"] = system.nvm.backend.image()
    obs["lost writes"] = list(system.nvm.lost_writes)
    obs["total stats"] = system.stats.snapshot()

    hierarchy = system.hierarchy
    obs["access counts"] = dict(hierarchy.access_counts)
    obs["level hit rates"] = [(level.name, level.hits, level.misses)
                              for level in hierarchy.levels]
    obs["hierarchy lines"] = [
        sorted(level.lines(), key=lambda entry: entry[0])
        for level in hierarchy.levels]

    controller = system.controller
    if controller is not None:
        obs["root MAC"] = controller.root_mac
        obs["metadata caches"] = [
            (cache.name, cache.hits, cache.misses,
             sorted(controller.metadata_lines(cache)))
            for cache in controller.metadata_caches]
    return system, expected, replay_exc, obs


def run_replay_differential(config: SystemConfig, scheme: str,
                            trace: "list[MemoryOp]", *,
                            epoch_ops: int = DEFAULT_EPOCH_OPS,
                            **system_kwargs) -> ReplayOutcome:
    """Replay the same trace scalar and epoch-batched; raise on divergence.

    The runtime twin of :func:`run_differential`: both runs start from a
    fresh system, so every observable — expected final contents, NVM image,
    lost writes, the full stats snapshot, cache hit/miss counters and
    resident lines at every level, metadata-cache contents, and the tree
    root MAC — must match byte for byte.  Returns the batched run's
    view.
    """
    runs = {}
    for batched in (True, False):
        runs[batched] = _observe_replay(config, scheme, batched, trace,
                                        epoch_ops, system_kwargs)
    system, expected, exc, obs_b = runs[True]
    obs_s = runs[False][-1]

    fields = sorted(set(obs_b) | set(obs_s))
    for name in fields:
        value_b, value_s = obs_b.get(name), obs_s.get(name)
        if value_b != value_s:
            raise OracleDivergenceError(
                f"scalar and batched replay diverged on {name!r} for "
                f"scheme={scheme!r} over {len(trace)} ops "
                f"(epoch_ops={epoch_ops}): batched={_shorten(value_b)} "
                f"scalar={_shorten(value_s)}")

    if exc is not None:
        raise exc
    return ReplayOutcome(system=system, expected=expected,
                         checks=len(fields))


def _shorten(value: object, limit: int = 200) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."
