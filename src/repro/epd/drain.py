"""Drain-engine framework and the non-secure EPD reference drain.

A *drain* is the episode between outage detection and power-off: the EPD
hold-up budget must cover its worst case.  Every engine returns a
:class:`DrainReport` capturing the operation counts of the episode (isolated
by diffing the shared stats object) and the serialized time they imply.
"""

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.cache.hierarchy import CacheHierarchy
from repro.stats.counters import SimStats
from repro.stats.timing import TimingModel
from repro.stats.events import WriteKind


@dataclass(frozen=True)
class DrainReport:
    """Everything measured about one drain episode."""

    scheme: str
    flushed_blocks: int
    metadata_blocks: int
    stats: SimStats
    cycles: int
    seconds: float

    @property
    def total_memory_requests(self) -> int:
        return self.stats.total_memory_requests

    @property
    def total_writes(self) -> int:
        return self.stats.total_writes

    @property
    def total_reads(self) -> int:
        return self.stats.total_reads

    @property
    def total_macs(self) -> int:
        return self.stats.total_macs

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1e3


class DrainEngine(ABC):
    """Base class: handles episode stat isolation and timing."""

    name = "abstract"

    def __init__(self, stats: SimStats, timing: TimingModel):
        self._stats = stats
        self._timing = timing

    def drain(self, hierarchy: CacheHierarchy,
              seed: int | None = None) -> DrainReport:
        """Run the full drain episode over ``hierarchy``."""
        before = self._stats.copy()
        flushed, metadata = self._run(hierarchy, seed)
        episode = self._stats.diff(before)
        cycles = self._timing.cycles(episode)
        return DrainReport(
            scheme=self.name,
            flushed_blocks=flushed,
            metadata_blocks=metadata,
            stats=episode,
            cycles=cycles,
            seconds=cycles / self._timing.config.frequency_hz,
        )

    @abstractmethod
    def _run(self, hierarchy: CacheHierarchy,
             seed: int | None) -> tuple[int, int]:
        """Flush everything; return (cache blocks flushed, metadata blocks)."""


class NonSecureDrain(DrainEngine):
    """EPD without memory security: flush every dirty line in place.

    This is the reference the paper normalizes against — one NVM write per
    flushed line, nothing else.
    """

    name = "nosec"

    def __init__(self, stats: SimStats, timing: TimingModel, nvm):
        super().__init__(stats, timing)
        self._nvm = nvm

    def _run(self, hierarchy: CacheHierarchy,
             seed: int | None) -> tuple[int, int]:
        flushed = 0
        for address, data in hierarchy.drain_lines(seed):
            self._nvm.write(address, data, WriteKind.DATA)
            flushed += 1
        return flushed, 0
