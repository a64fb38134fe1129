"""Baseline secure EPD drains (Section IV-B).

The baseline treats each flushed cache line exactly like a run-time memory
write: it goes through the secure memory controller, dragging the line's
address-specific counter block, BMT path, and MAC block through the metadata
caches — fetches, verifications, and dirty evictions included.  Afterwards
the metadata-cache state is made recoverable per the active update scheme
(Anubis-style shadow dump for lazy; home flush for eager).

``Base-LU`` and ``Base-EU`` are this engine over a lazy / eager controller.
"""

from repro.cache.hierarchy import CacheHierarchy
from repro.epd.drain import DrainEngine
from repro.secure.controller import SecureMemoryController
from repro.stats.timing import TimingModel


class BaselineSecureDrain(DrainEngine):
    """In-place secure drain through the run-time controller."""

    def __init__(self, controller: SecureMemoryController,
                 timing: TimingModel):
        super().__init__(controller.stats, timing)
        self._controller = controller
        lazy = controller.scheme.needs_parent_update_on_writeback()
        self.name = f"base-{'lu' if lazy else 'eu'}"

    def _run(self, hierarchy: CacheHierarchy,
             seed: int | None) -> tuple[int, int]:
        flushed = 0
        for line in hierarchy.drain_lines(seed):
            self._controller.write(line.address, line.data)
            flushed += 1
        metadata = sum(len(c) for c in self._controller.metadata_caches)
        self._controller.flush_metadata()
        return flushed, metadata
