"""The SecureEpdSystem facade — the library's primary entry point.

Wires together the NVM device, memory layout, cache hierarchy, secure memory
controller, drain engine, and recovery engine for one of the five schemes the
paper evaluates:

========== =====================================================
``nosec``    EPD without memory security (the Fig. 6/11 reference)
``base-lu``  baseline secure drain, lazy-update tree (Base-LU)
``base-eu``  baseline secure drain, eager-update tree (Base-EU)
``horus-slm`` Horus with single-level CHV MACs
``horus-dlm`` Horus with the double-level MAC register scheme
========== =====================================================

Typical use::

    system = SecureEpdSystem(SystemConfig.scaled(64), scheme="horus-dlm")
    system.fill_worst_case()
    report = system.crash()          # the drain episode (Fig. 11/12/13)
    recovery = system.recover()      # post-power-restore (Fig. 16)
"""

from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import SystemConfig
from repro.common.errors import ConfigError, DrainStateError
from repro.common.gcpause import collector_paused
from repro.core.chv import ChvLayout
from repro.core.horus import HorusDrainEngine
from repro.core.recovery import HorusRecovery, RecoveryReport
from repro.crypto.engine import KeySchedule
from repro.crypto.counters import DrainCounter
from repro.epd.baseline import BaselineSecureDrain
from repro.epd.drain import DrainEngine, DrainReport, NonSecureDrain
from repro.mem.nvm import NvmDevice
from repro.mem.regions import MemoryLayout
from repro.secure.cache_tree import ShadowRecovery
from repro.secure.controller import SecureMemoryController
from repro.stats.counters import SimStats
from repro.stats.events import ReadKind, WriteKind
from repro.stats.timing import TimingModel

SCHEMES = ("nosec", "base-lu", "base-eu", "horus-slm", "horus-dlm")


class SecureEpdSystem:
    """A complete secure (or non-secure) EPD memory system."""

    def __init__(self, config: SystemConfig | None = None,
                 scheme: str = "horus-dlm", recovery_mode: str = "refill",
                 inclusive: bool = True, osiris_stop_loss: int = 0,
                 rotate_vault: bool = False, batched: bool = True,
                 key_schedule: "KeySchedule | None" = None):
        if scheme not in SCHEMES:
            raise ConfigError(
                f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
        if osiris_stop_loss and scheme != "base-lu":
            raise ConfigError(
                "Osiris recovery replaces the lazy baseline's shadow dump; "
                "it only applies to scheme='base-lu'")
        if not inclusive and scheme.startswith("horus") \
                and recovery_mode != "writeback":
            # Section IV-C3: a non-inclusive LLC cannot hold the whole
            # recovered hierarchy, so option 2 (writeback) is required.
            raise ConfigError(
                "non-inclusive hierarchies require recovery_mode='writeback'")
        self.config = config if config is not None else SystemConfig.paper()
        self.scheme = scheme
        self.batched = batched
        """Whether hot paths run through the batched crypto/NVM engines.

        On by default; ``batched=False`` selects the scalar reference
        path (the differential oracle runs one system per setting).
        Scalar and batched execution are observably identical — same NVM
        image, same counters, same faults lost."""
        self.stats = SimStats()
        self.timing = TimingModel(self.config)

        self.layout = MemoryLayout(self.config)
        self.nvm = NvmDevice(self.layout.total_size, self.stats)
        self.hierarchy = CacheHierarchy(self.config, inclusive=inclusive)

        self.controller: SecureMemoryController | None = None
        self.drain_counter: DrainCounter | None = None
        self._recovery: HorusRecovery | ShadowRecovery | None = None

        if scheme == "nosec":
            # Closures over the device alone: bound methods of ``self``
            # would close a system -> hierarchy -> method -> system cycle
            # and leave every dropped system to the cyclic collector.
            nvm = self.nvm

            def fetch(address: int) -> bytes:
                return nvm.read(address, ReadKind.DATA)

            def writeback(address: int, data: bytes) -> None:
                nvm.write(address, data, WriteKind.DATA)

            self.hierarchy.attach(fetch, writeback)
            self.drain_engine: DrainEngine = NonSecureDrain(
                self.stats, self.timing, self.nvm, batched=self.batched)
        else:
            # Horus runs the recovery-oblivious lazy scheme at run time
            # (DRAM-like performance is the premise); the baselines pick
            # their scheme by name.
            if osiris_stop_loss:
                from repro.secure.osiris import OsirisLazyScheme
                runtime_scheme: str | object = OsirisLazyScheme(
                    osiris_stop_loss)
            else:
                runtime_scheme = "eager" if scheme == "base-eu" else "lazy"
            self.controller = SecureMemoryController(
                self.config, self.nvm, self.layout, self.stats,
                scheme=runtime_scheme, batched=self.batched,
                key_schedule=key_schedule)
            self.hierarchy.attach(self.controller.read, self.controller.write)
            if scheme.startswith("base"):
                self.drain_engine = BaselineSecureDrain(
                    self.controller, self.timing)
                if scheme == "base-lu" and osiris_stop_loss:
                    from repro.secure.osiris import OsirisRecovery
                    self._recovery = OsirisRecovery(
                        self.controller, osiris_stop_loss)
                elif scheme == "base-lu":
                    self._recovery = ShadowRecovery(self.controller)
            else:
                self.drain_counter = DrainCounter()
                chv = ChvLayout.for_layout(self.layout)
                dlm = scheme == "horus-dlm"
                self.drain_engine = HorusDrainEngine(
                    self.controller, self.nvm, chv, self.drain_counter,
                    self.timing, double_level_mac=dlm,
                    rotate_vault=rotate_vault, batched=self.batched)
                self._recovery = HorusRecovery(
                    self.controller, self.nvm, chv, self.drain_counter,
                    self.hierarchy, self.timing, double_level_mac=dlm,
                    mode=recovery_mode, rotate_vault=rotate_vault,
                    batched=self.batched)

        self.last_drain: DrainReport | None = None
        self.last_recovery: RecoveryReport | None = None

    # ------------------------------------------------------------------
    # Run-time interface
    # ------------------------------------------------------------------

    def write(self, address: int, data: bytes) -> None:
        """Run-time store of one 64 B line (persistent once in the cache —
        the EPD property)."""
        self.layout.require_data_address(address)
        self.hierarchy.write(address, data)

    def read(self, address: int) -> bytes:
        """Run-time load of one 64 B line."""
        self.layout.require_data_address(address)
        return self.hierarchy.read(address)

    # ------------------------------------------------------------------
    # Crash / drain / recovery
    # ------------------------------------------------------------------

    @collector_paused()
    def fill_worst_case(self, seed: int | None = None) -> int:
        """Fill every line of every level dirty (the hold-up worst case)."""
        return self.hierarchy.fill_worst_case(seed, batched=self.batched)

    @collector_paused()
    def crash(self, seed: int | None = None) -> DrainReport:
        """Power-outage detection: drain per the configured scheme, then
        lose all volatile state."""
        report = self.drain_engine.drain(self.hierarchy, seed)
        self.hierarchy.invalidate_all()
        if self.controller is not None:
            self.controller.drop_volatile_state()
        self.last_drain = report
        return report

    @property
    def recovery_engine(self):
        """The scheme's recovery engine (``None`` for nosec / base-eu).

        Exposed so fault campaigns can install recovery step hooks
        (:attr:`~repro.core.recovery.HorusRecovery.step_hook`) without
        reaching into private state.
        """
        return self._recovery

    def power_cycle(self) -> None:
        """A nested power cut: lose all volatile state *again*, without a
        drain (the hold-up source is empty between crash and recovery).

        Models power failing mid-recovery: whatever recovery already placed
        back in the hierarchy or metadata caches is volatile and vanishes;
        the persistent registers (DC/eDC, tree roots, shadow count) and the
        NVM image survive, so a subsequent :meth:`recover` re-runs the whole
        restore from persistent state.
        """
        if self.last_drain is None:
            raise DrainStateError("power_cycle() before any crash()")
        self.hierarchy.invalidate_all()
        if self.controller is not None:
            self.controller.drop_volatile_state()

    @collector_paused()
    def recover(self) -> RecoveryReport | None:
        """Power restoration: restore the drained state.

        Horus schemes restore the vaulted hierarchy into the LLC (dirty) and
        metadata caches; Base-LU restores its Anubis-style shadow dump;
        Base-EU and non-secure EPD have nothing volatile left to restore and
        return ``None``.
        """
        if self.last_drain is None:
            raise DrainStateError("recover() before any crash()")
        if self._recovery is None:
            self.last_recovery = None
            return None
        if isinstance(self._recovery, ShadowRecovery):
            before = self.stats.copy()
            restored = self._recovery.recover()
            episode = self.stats.diff(before)
            cycles = self.timing.cycles(episode)
            self.last_recovery = RecoveryReport(
                scheme=self.scheme, blocks_restored=restored,
                stats=episode, cycles=cycles,
                seconds=cycles / self.config.frequency_hz)
        elif isinstance(self._recovery, HorusRecovery):
            self.last_recovery = self._recovery.recover()
        else:
            # Osiris reconstruction: wrap its report in the common shape.
            report = self._recovery.recover()
            cycles = self.timing.cycles(report.stats)
            self.last_recovery = RecoveryReport(
                scheme=f"{self.scheme}-osiris",
                blocks_restored=report.counters_recovered,
                stats=report.stats, cycles=cycles,
                seconds=cycles / self.config.frequency_hz)
        return self.last_recovery
