"""BBB-style battery-backed buffer persistence (related work, paper ref [1]).

BBB (Alshboul et al., HPCA'21) extends the persistence domain to the same
point as eADR with a much smaller battery: a small battery-backed buffer next
to L1 absorbs every store, making it persistent immediately; buffer evictions
write through to NVM at run time.  It is the midpoint of the spectrum this
library models:

=========  =======================  =============================
system     run-time security cost   crash-time drain
=========  =======================  =============================
ADR        every explicit persist   WPQ only (tiny)
BBB        every buffer eviction    buffer only (small)
EPD        none                     whole hierarchy (Horus's job)
=========  =======================  =============================
"""

from collections import OrderedDict

from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.mem.nvm import NvmDevice
from repro.mem.regions import MemoryLayout
from repro.secure.controller import SecureMemoryController
from repro.stats.counters import SimStats
from repro.stats.timing import TimingModel

DEFAULT_BBUF_LINES = 64
"""BBB evaluates small buffers (tens of lines); 64 is its largest point."""


class BbbSecureSystem:
    """Secure NVM with a battery-backed buffer as the persistence point."""

    def __init__(self, config: SystemConfig | None = None,
                 bbuf_lines: int = DEFAULT_BBUF_LINES,
                 scheme: str = "eager"):
        if bbuf_lines <= 0:
            raise ConfigError("battery-backed buffer must hold >= 1 line")
        self.config = config if config is not None else SystemConfig.paper()
        self.stats = SimStats()
        self.timing = TimingModel(self.config)
        self.layout = MemoryLayout(self.config)
        self.nvm = NvmDevice(self.layout.total_size, self.stats)
        self.controller = SecureMemoryController(
            self.config, self.nvm, self.layout, self.stats, scheme=scheme)
        self.hierarchy = CacheHierarchy(
            self.config, functional=self.config.security.functional)
        # A dirty line leaving the volatile hierarchy may still be younger
        # than the NVM copy only if it is also bbuf-resident, in which case
        # the bbuf write-through covers it; writing it back is safe either
        # way.
        self.hierarchy.attach(self.controller.read, self.controller.write)

        self.bbuf_lines = bbuf_lines
        self._bbuf: "OrderedDict[int, bytes]" = OrderedDict()
        self.bbuf_evictions = 0
        self.writes = 0

    # ------------------------------------------------------------------

    def write(self, address: int, data: bytes) -> None:
        """A store is persistent the moment it lands in the bbuf (no
        flush/fence, as in EPD) — but the bbuf is tiny, so evictions pay
        the secure write-through tax at run time."""
        self.layout.require_data_address(address)
        self.hierarchy.write(address, data)
        if address in self._bbuf:
            self._bbuf[address] = data
            self._bbuf.move_to_end(address)
        else:
            if len(self._bbuf) >= self.bbuf_lines:
                victim_address, victim_data = self._bbuf.popitem(last=False)
                self.controller.write(victim_address, victim_data)
                self.bbuf_evictions += 1
            self._bbuf[address] = data
        self.writes += 1

    def read(self, address: int) -> bytes:
        self.layout.require_data_address(address)
        return self.hierarchy.read(address)

    # ------------------------------------------------------------------

    def crash(self) -> int:
        """Drain the bbuf (its battery covers exactly this) and lose the
        volatile hierarchy; every write survives because it was either in
        the bbuf or already written through."""
        drained = 0
        while self._bbuf:
            address, data = self._bbuf.popitem(last=False)
            self.controller.write(address, data)
            drained += 1
        self.hierarchy.invalidate_all()
        self.controller.flush_metadata()
        self.controller.drop_volatile_state()
        return drained

    def is_persisted(self, address: int) -> bool:
        """All writes are persistent in BBB: in the bbuf or in NVM."""
        return address in self._bbuf or self.nvm.backend.is_written(address)

    @property
    def writethrough_fraction(self) -> float:
        """Fraction of writes that paid the secure write-through cost."""
        return self.bbuf_evictions / self.writes if self.writes else 0.0
