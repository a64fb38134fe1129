"""Baseline secure EPD drains (Section IV-B).

The baseline treats each flushed cache line exactly like a run-time memory
write: it goes through the secure memory controller, dragging the line's
address-specific counter block, BMT path, and MAC block through the metadata
caches — fetches, verifications, and dirty evictions included.  Afterwards
the metadata-cache state is made recoverable per the active update scheme
(Anubis-style shadow dump for lazy; home flush for eager).

``Base-LU`` and ``Base-EU`` are this engine over a lazy / eager controller.
The flush stream runs through the controller's batched run-time path
(:meth:`~repro.secure.controller.SecureMemoryController.run_ops_batch`) in
fixed chunks; that path falls back to the per-line :meth:`write` loop —
the specification — whenever a trace, fault plan or op hook is watching.
"""

from itertools import islice

from repro.cache.hierarchy import CacheHierarchy
from repro.epd.drain import DrainEngine
from repro.secure.controller import SecureMemoryController
from repro.stats.timing import TimingModel

_CHUNK_OPS = 4096
"""Flushed lines per batched controller call — the epoch size of batched
replay: it amortizes the crypto kernels while bounding what a drain holds
at once (an unchunked batch keeps every line's op, pad, ciphertext and MAC
alive together, at the moment the filled hierarchy is largest)."""


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
        run_ops_batch = self._controller.run_ops_batch
        lines = hierarchy.drain_lines(seed)
        flushed = 0
        while True:
            ops = [("w", address, data)
                   for address, data in islice(lines, _CHUNK_OPS)]
            if not ops:
                break
            run_ops_batch(ops)
            flushed += len(ops)
        metadata = sum(len(c) for c in self._controller.metadata_caches)
        self._controller.flush_metadata()
        return flushed, metadata
