"""Shared drain-run cache for the experiment harness.

Most figures and tables consume the same five worst-case drain episodes
(one per scheme), so :class:`DrainSuite` runs each (config, scheme) pair at
most once and memoizes the report.  ``scale`` shrinks the paper configuration
uniformly (see :meth:`~repro.common.config.SystemConfig.scaled`); ``scale=1``
is the paper's Table I setup.

A suite can additionally be backed by a persistent
:class:`~repro.experiments.cache.ResultCache`: every episode is then keyed
by (config, scheme, fill, seeds, code version) and survives across runner
invocations and process boundaries — the parallel runner's workers and the
benchmarks all share one on-disk store.
"""

from array import array

from repro.common.config import SystemConfig
from repro.common.units import mib
from repro.core.system import SCHEMES, SecureEpdSystem
from repro.epd.drain import DrainReport

FILL_SEED = 11
DRAIN_SEED = 23

FILL_MODES = ("sparse", "sequential")


class DrainSuite:
    """Runs and memoizes worst-case drain episodes."""

    def __init__(self, scale: int = 16, llc_size: int = mib(16),
                 cache=None):
        self.scale = scale
        self.llc_size = llc_size
        self.cache = cache
        self._reports: dict[tuple[int, str], DrainReport] = {}
        self._episodes: dict[tuple, DrainReport] = {}
        self._traces: dict[str, tuple[SystemConfig, array, bytes]] = {}

    def config(self, llc_size: int | None = None) -> SystemConfig:
        return SystemConfig.scaled(
            self.scale, llc_size if llc_size is not None else self.llc_size)

    def drain(self, scheme: str, llc_size: int | None = None) -> DrainReport:
        """The worst-case drain report for ``scheme`` (memoized)."""
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        key = (llc_size or self.llc_size, scheme)
        if key not in self._reports:
            self._reports[key] = self.episode(self.config(llc_size), scheme)
        return self._reports[key]

    def episode(self, config: SystemConfig, scheme: str,
                fill: str = "sparse", fill_seed: int = FILL_SEED,
                drain_seed: int = DRAIN_SEED) -> DrainReport:
        """One fill+crash drain episode over an arbitrary ``config``.

        The general entry point behind :meth:`drain` — ablations that vary
        the configuration or the fill pattern route through it so their
        episodes share the in-memory memo and the persistent cache.
        """
        if fill not in FILL_MODES:
            raise ValueError(f"unknown fill mode {fill!r}")
        memo_key = (config, scheme, fill, fill_seed, drain_seed)
        if memo_key in self._episodes:
            return self._episodes[memo_key]

        cache_key = None
        if self.cache is not None:
            from repro.experiments.cache import episode_key
            cache_key = episode_key(config, scheme, fill,
                                    fill_seed, drain_seed)
            report = self.cache.get(cache_key)
            if report is not None:
                self._episodes[memo_key] = report
                return report

        report = run_episode(config, scheme, fill, fill_seed, drain_seed)
        if cache_key is not None:
            self.cache.put(cache_key, report)
        self._episodes[memo_key] = report
        return report

    def traced_drain(self, scheme: str) \
            -> tuple[SystemConfig, list[tuple[int, bool]]]:
        """``(config, request trace)`` of the default worst-case drain of
        ``scheme`` (memoized).

        The memory-model ablations replay this trace against bank and
        scheduler models.  Tracing makes the drain issue every request on
        its own, so this episode is run here rather than taken from
        :meth:`drain`'s reports, which carry no trace.  The memo keeps the
        trace as an address array and a write-flag string, a tenth of the
        tuple list's size, and rebuilds the list per call.
        """
        if scheme not in self._traces:
            system = SecureEpdSystem(self.config(), scheme=scheme)
            system.nvm.trace = []
            system.fill_worst_case(seed=FILL_SEED)
            system.crash(seed=DRAIN_SEED)
            trace = system.nvm.trace
            self._traces[scheme] = (
                system.config,
                array("Q", [address for address, _ in trace]),
                bytes([is_write for _, is_write in trace]))
            # The episode's state goes before the list is rebuilt below.
            del system, trace
        config, addresses, writes = self._traces[scheme]
        return config, list(zip(addresses, map(bool, writes)))

    def seed_report(self, scheme: str, llc_size: int | None,
                    report: DrainReport) -> None:
        """Inject a precomputed default-path drain report (parallel prewarm)."""
        self._reports[(llc_size or self.llc_size, scheme)] = report

    def all_drains(self) -> dict[str, DrainReport]:
        """Drain reports for every scheme at the default LLC size."""
        return {scheme: self.drain(scheme) for scheme in SCHEMES}


def run_episode(config: SystemConfig, scheme: str, fill: str = "sparse",
                fill_seed: int = FILL_SEED,
                drain_seed: int = DRAIN_SEED) -> DrainReport:
    """Run one drain episode from scratch (no memoization, no cache).

    With ``REPRO_ORACLE`` set (see :mod:`repro.core.oracle`), sampled
    episodes run *twice* — scalar and batched — and any observable
    difference raises before the report is returned.
    """
    if fill not in FILL_MODES:
        raise ValueError(f"unknown fill mode {fill!r}")

    from repro.core.oracle import run_differential, should_check
    from repro.experiments.profile import phase
    if should_check():
        return run_differential(config, scheme, fill=fill,
                                fill_seed=fill_seed,
                                drain_seed=drain_seed).drain

    system = SecureEpdSystem(config, scheme=scheme)
    with phase(f"fill:{scheme}"):
        if fill == "sparse":
            system.fill_worst_case(seed=fill_seed)
        else:
            system.hierarchy.fill_sequential()
    with phase(f"drain:{scheme}"):
        return system.crash(seed=drain_seed)


def run_replay_episode(config: SystemConfig, scheme: str, trace, *,
                       epoch_ops: int | None = None, **system_kwargs):
    """Build a system and replay ``trace`` through it.

    Returns ``(system, expected)`` — the system in its post-replay state
    (ready for a subsequent ``crash()``/``recover()``) and the expected
    final content per written address.  With ``REPRO_ORACLE`` set, sampled
    replays run *twice* — scalar and epoch-batched — and any observable
    difference raises before returning (see
    :func:`repro.core.oracle.run_replay_differential`).
    """
    from repro.core.oracle import run_replay_differential, should_check
    from repro.experiments.profile import phase
    from repro.workloads.replay import DEFAULT_EPOCH_OPS, replay
    if epoch_ops is None:
        epoch_ops = DEFAULT_EPOCH_OPS
    with phase(f"replay:{scheme}"):
        if should_check():
            outcome = run_replay_differential(config, scheme, trace,
                                              epoch_ops=epoch_ops,
                                              **system_kwargs)
            return outcome.system, outcome.expected

        system = SecureEpdSystem(config, scheme=scheme, **system_kwargs)
        expected = replay(system, trace, epoch_ops=epoch_ops)
        return system, expected
