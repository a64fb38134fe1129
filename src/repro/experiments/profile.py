"""Observability for the experiment harness.

Every runner invocation (serial or parallel) produces a :class:`RunProfile`:
one :class:`TimingRecord` per scheduled unit of work — prewarmed drain
episodes and experiments alike — with its wall time, the worker that ran it,
and whether it was computed or served from the persistent cache, plus the
run's cache hit/miss/store counters.  ``--profile`` renders it as a table
and a worker-timeline chart (via the ``stats`` machinery), and the JSON /
Markdown export embeds the same data for provenance.
"""

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.stats.chart import render_spans
from repro.stats.report import format_table


@dataclass(frozen=True)
class TimingRecord:
    """One scheduled unit of work: a drain episode, an experiment, or a
    sub-phase (fill/replay/drain) of one."""

    name: str
    kind: str  # "episode" | "experiment" | "phase"
    seconds: float
    worker: str  # "main" or the worker process id
    source: str  # "computed" | "cache"
    started: float = 0.0  # offset from the run's start, seconds


@dataclass
class RunProfile:
    """Timing + cache accounting for one runner invocation."""

    jobs: int = 1
    scale: int = 16
    records: list = field(default_factory=list)
    wall_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0

    def add(self, record: TimingRecord) -> None:
        self.records.append(record)

    def absorb_cache(self, counters: dict) -> None:
        self.cache_hits += counters.get("hits", 0)
        self.cache_misses += counters.get("misses", 0)
        self.cache_stores += counters.get("stores", 0)

    # -- derived --------------------------------------------------------------

    @property
    def busy_seconds(self) -> float:
        """Sum of per-record wall times (> wall_seconds when parallel)."""
        return sum(record.seconds for record in self.records)

    @property
    def cached_records(self) -> int:
        return sum(1 for r in self.records if r.source == "cache")

    @property
    def workers(self) -> list[str]:
        seen: list[str] = []
        for record in self.records:
            if record.worker not in seen:
                seen.append(record.worker)
        return seen

    # -- rendering ------------------------------------------------------------

    def summary_rows(self) -> list[list[object]]:
        rows = []
        for record in sorted(self.records, key=lambda r: r.started):
            rows.append([record.name, record.kind, record.worker,
                         record.source, record.seconds])
        return rows

    def render(self, width: int = 48) -> str:
        """The ``--profile`` report: summary table + worker timeline."""
        lines = [
            f"=== profile: {len(self.records)} units on jobs={self.jobs} "
            f"(scale={self.scale}) ===",
            f"wall {self.wall_seconds:.2f}s, busy {self.busy_seconds:.2f}s, "
            f"cache {self.cache_hits} hits / {self.cache_misses} misses / "
            f"{self.cache_stores} stores",
            "",
            format_table(["unit", "kind", "worker", "source", "seconds"],
                         self.summary_rows()),
        ]
        timed = [r for r in self.records if r.seconds > 0]
        if timed:
            timed.sort(key=lambda r: r.started)
            lines.append("")
            lines.append("timeline (offset from run start):")
            lines.append(render_spans(
                [f"{r.name} [{r.worker}]" for r in timed],
                [r.started for r in timed],
                [r.seconds for r in timed],
                width=width))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-safe form, embedded in the runner's export."""
        return {
            "jobs": self.jobs,
            "scale": self.scale,
            "wall_seconds": self.wall_seconds,
            "busy_seconds": self.busy_seconds,
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses,
                      "stores": self.cache_stores},
            "workers": self.workers,
            "records": [
                {"name": r.name, "kind": r.kind, "seconds": r.seconds,
                 "worker": r.worker, "source": r.source,
                 "started": r.started}
                for r in self.records
            ],
        }


# -- phase spans --------------------------------------------------------------
#
# The timeline above shows whole units; the phase hooks below subdivide a
# unit into its interesting stages — hierarchy fill, trace replay, drain —
# as extra ``kind="phase"`` records on the same profile, so --profile shows
# where inside an episode the time went.  Capture is in-process only:
# phases timed inside pool workers are not propagated.

_PHASES: RunProfile | None = None
_PHASE_START = 0.0
_PHASE_WORKER = "main"


class _CollectorClock:
    """A ``gc.callbacks`` hook that sums the cyclic collector's wall time."""

    def __init__(self) -> None:
        self.installed_at = time.perf_counter()
        self.seconds = 0.0
        self._began = 0.0

    def __call__(self, stage: str, info: dict) -> None:
        if stage == "start":
            self._began = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._began


@contextmanager
def capture_phases(profile: RunProfile, run_start: float,
                   worker: str = "main"):
    """Route :func:`phase` spans into ``profile`` for the duration.

    Also times the cyclic garbage collector while the capture is active
    and records the total as one aggregate ``gc:collector`` phase anchored
    at the capture's start, so host time the simulator spends in
    collections shows up beside the phases it interrupted.  The hook is
    installed only here: uncaptured runs pay nothing for it.
    """
    global _PHASES, _PHASE_START, _PHASE_WORKER
    previous = (_PHASES, _PHASE_START, _PHASE_WORKER)
    _PHASES, _PHASE_START, _PHASE_WORKER = profile, run_start, worker
    clock = _CollectorClock()
    gc.callbacks.append(clock)
    try:
        yield profile
    finally:
        gc.callbacks.remove(clock)
        record_span("gc:collector", clock.seconds, clock.installed_at)
        _PHASES, _PHASE_START, _PHASE_WORKER = previous


@contextmanager
def phase(name: str):
    """Time one sub-phase (e.g. ``fill:horus-dlm``, ``replay:base-eu``).

    A no-op unless a :func:`capture_phases` context is active, so the
    episode entry points can annotate unconditionally.
    """
    if _PHASES is None:
        yield
        return
    begin = time.perf_counter()
    try:
        yield
    finally:
        _PHASES.add(TimingRecord(
            name=name, kind="phase",
            seconds=time.perf_counter() - begin,
            worker=_PHASE_WORKER, source="computed",
            started=begin - _PHASE_START))


def capturing() -> bool:
    """Whether a :func:`capture_phases` context is active.

    Hot paths that would pay per-iteration timer reads (epoch-batched
    replay times three sub-steps per epoch) check this once and skip the
    bookkeeping entirely outside ``--profile`` runs.
    """
    return _PHASES is not None


def record_span(name: str, seconds: float, started_at: float) -> None:
    """Record one pre-measured span (``kind="phase"``) on the active profile.

    The aggregate counterpart of :func:`phase` for sub-phases whose
    fragments interleave (e.g. the ``cache:`` / ``mem:`` / ``resolve:``
    steps of every replay epoch): the caller accumulates wall time across
    fragments and records each total once.  ``started_at`` is the
    ``time.perf_counter()`` value the span should anchor to on the
    timeline.  A no-op when no capture is active.
    """
    if _PHASES is None:
        return
    _PHASES.add(TimingRecord(
        name=name, kind="phase", seconds=seconds,
        worker=_PHASE_WORKER, source="computed",
        started=started_at - _PHASE_START))
