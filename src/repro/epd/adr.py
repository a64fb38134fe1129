"""ADR (battery-backed write-pending-queue) persistence — the pre-EPD world.

Sections I/II of the paper motivate EPD against ADR systems: with only the
WPQ inside the persistence domain, a persistent application must explicitly
``flush`` + ``fence`` every durable update through the secure memory
controller, paying the security-metadata cost *per persist at run time*.
EPD moves that cost to the (rare) drain episode — which is exactly the
trade-off Horus then optimizes.

:class:`AdrSecureSystem` models that world: a volatile cache hierarchy, a
fixed-depth WPQ, and persist operations that run the full secure write path.
The crash behaviour is the inverse of EPD: the WPQ (tiny) survives, the
cache hierarchy (everything unpersisted) is lost.

Timing model: a persist's critical path is the security work (metadata
fetches, verifications, MAC/AES) plus — only when the WPQ is full — the NVM
write latency of the entry it must displace.  This mirrors how ADR hides
NVM write latency behind the queue until the queue saturates.
"""

from collections import OrderedDict
from typing import Any

from repro.cache.cache import MISS, SetAssociativeCache
from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.mem.nvm import NvmDevice
from repro.mem.regions import MemoryLayout
from repro.secure.controller import SecureMemoryController
from repro.stats.counters import SimStats
from repro.stats.timing import TimingModel

DEFAULT_WPQ_DEPTH = 64
"""Entries in the battery-backed write pending queue."""


class AdrSecureSystem:
    """A secure NVM system with ADR-only persistence.

    The run-time write path is identical to the EPD systems' controller; the
    difference is *when* it runs: on every persist instead of never (EPD) —
    plus the flush/fence bookkeeping persistent applications must do.
    """

    def __init__(self, config: SystemConfig | None = None,
                 scheme: str = "eager", wpq_depth: int = DEFAULT_WPQ_DEPTH):
        if wpq_depth <= 0:
            raise ConfigError("WPQ depth must be positive")
        self.config = config if config is not None else SystemConfig.paper()
        self.stats = SimStats()
        self.timing = TimingModel(self.config)
        self.layout = MemoryLayout(self.config)
        self.nvm = NvmDevice(self.layout.total_size, self.stats)
        # Persist-per-write security needs a recoverable tree; the simple
        # recoverable choice is the eager scheme (Triad-NVM-style strict
        # persistence).  Lazy would need Osiris/Anubis machinery per write.
        self.controller = SecureMemoryController(
            self.config, self.nvm, self.layout, self.stats, scheme=scheme)
        self.hierarchy = CacheHierarchy(self.config)
        # Capacity evictions from a volatile hierarchy still reach NVM
        # through the secure controller (as in any secure-memory system).
        self.hierarchy.attach(self.controller.read, self.controller.write)

        self.wpq_depth = wpq_depth
        self._wpq: "OrderedDict[int, bytes]" = OrderedDict()
        self.persist_stalls = 0
        self.persists = 0

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------

    def write(self, address: int, data: bytes) -> None:
        """A store: volatile until explicitly persisted."""
        self.layout.require_data_address(address)
        self.hierarchy.write(address, data)

    def read(self, address: int) -> bytes:
        self.layout.require_data_address(address)
        return self.hierarchy.read(address)

    def persist(self, address: int) -> None:
        """flush + fence: push one line into the persistence domain.

        Runs the full secure write path (counter fetch/verify, MAC, tree
        update) — the per-persist run-time tax EPD systems eliminate.
        """
        self.layout.require_data_address(address)
        cached = self._cached_line(address)
        if cached is None:
            return  # nothing cached: already persistent (or never written)
        level, data = cached

        if len(self._wpq) >= self.wpq_depth:
            # Queue full: the oldest entry's NVM write moves onto the
            # critical path before this persist can enqueue.
            self._wpq.popitem(last=False)
            self.persist_stalls += 1
        self.controller.write(address, data)
        self._wpq[address] = data
        level.clean(address)
        self.persists += 1

    def _cached_line(self, address: int) \
            -> tuple[SetAssociativeCache, Any] | None:
        """The first level holding ``address`` and its payload, probing
        each level without an LRU touch (None when nothing is cached)."""
        for level in self.hierarchy.levels:
            data = level.lookup(address, touch=False)
            if data is not MISS:
                return level, data
        return None

    # ------------------------------------------------------------------
    # Crash semantics
    # ------------------------------------------------------------------

    def crash(self) -> int:
        """Power outage: the WPQ drains (already written through the secure
        controller at persist time, so nothing more to do here), and the
        entire cache hierarchy — every unpersisted update — is lost."""
        survivors = len(self._wpq)
        self._wpq.clear()
        self.hierarchy.invalidate_all()
        # Metadata caches are volatile too, but the eager scheme keeps the
        # NVM-resident tree consistent; flush dirty metadata home first
        # (this is what the ADR hold-up budget covers, and it is tiny).
        self.controller.flush_metadata()
        self.controller.drop_volatile_state()
        return survivors

    def is_persisted(self, address: int) -> bool:
        """Whether a line's latest persisted version exists in NVM."""
        return self.nvm.backend.is_written(address)

    # ------------------------------------------------------------------

    def persist_critical_cycles(self) -> int:
        """Serialized cycles attributable to persist-path security work.

        Reads, MACs, and AES on the persist path are synchronous; NVM writes
        are absorbed by the WPQ except when it saturates (counted stalls).
        """
        breakdown = self.timing.breakdown(self.stats)
        stall_cycles = self.persist_stalls * self.timing.write_cycles
        return (breakdown.read_cycles + breakdown.crypto_cycles
                + stall_cycles)
