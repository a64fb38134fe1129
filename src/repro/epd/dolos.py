"""Dolos-style ADR persistence (paper ref [11], the authors' prior work).

Dolos observes that an ADR persist need not run the full secure-memory path
on the critical path: a *minor security unit* (MSU) protects WPQ content
with its own monotonic counter and MAC, staged into a small reserved NVM
region, while the full in-place secure write happens in the background.
Horus is the same insight scaled from the WPQ to the whole cache hierarchy
— implementing both makes the lineage measurable.

Model: ``persist`` encrypts the line under the MSU counter and writes one
staging block (+1/8 coalesced address blocks and MAC blocks, as in Horus) —
that is the critical path.  A background queue later replays entries
through the ordinary secure controller; entries still staged at a crash are
replayed at recovery, exactly like a tiny CHV.
"""

from collections import deque

from repro.common.constants import CACHE_LINE_SIZE
from repro.common.errors import ConfigError, IntegrityError, RecoveryError
from repro.crypto.counters import DrainCounter
from repro.crypto.primitives import MacDomain
from repro.epd.adr import AdrSecureSystem
from repro.stats.events import MacKind, ReadKind, WriteKind

_ZERO = bytes(CACHE_LINE_SIZE)


class DolosAdrSystem(AdrSecureSystem):
    """ADR whose persist critical path is one MSU staging write."""

    def __init__(self, config=None, wpq_depth: int = 64,
                 background_batch: int = 16):
        super().__init__(config, scheme="eager", wpq_depth=wpq_depth)
        if background_batch <= 0:
            raise ConfigError("background batch must be positive")
        self._msu_counter = DrainCounter()
        self._staged: deque[tuple[int, int, bytes | None]] = deque()
        self._background_batch = background_batch
        self.background_writes = 0
        # The staging area reuses the reserved shadow region: Dolos needs a
        # similarly small dedicated region next to the WPQ.  Slots form a
        # ring indexed by the monotonic MSU counter, so drain and recovery
        # agree on placement with no extra state.
        self._staging = self.layout.shadow
        self._ring_slots = self._staging.size // (2 * CACHE_LINE_SIZE)
        if self._ring_slots < background_batch + 2:
            raise ConfigError("staging region too small for the batch size")

    # ------------------------------------------------------------------

    def persist(self, address: int) -> None:
        """Critical path: encrypt under the MSU counter, stage, done."""
        self.layout.require_data_address(address)
        cached = self._cached_line(address)
        if cached is None:
            return
        level, data = cached

        if len(self._staged) >= self._ring_slots:
            self._drain_background(force_all=True)
        counter = self._msu_counter.next()
        ciphertext = self.controller.aes.encrypt(address, counter, data)
        self.controller.mac.block_mac(MacKind.CHV_DATA, ciphertext,
                                      address, counter,
                                      domain=MacDomain.CHV_DATA)
        entry = self._staging.block_at((counter % self._ring_slots) * 2)
        self.nvm.write(entry, address.to_bytes(8, "little")
                       .ljust(CACHE_LINE_SIZE, b"\0"), WriteKind.CHV_ADDRESS)
        self.nvm.write(entry + CACHE_LINE_SIZE,
                       ciphertext if ciphertext is not None else _ZERO,
                       WriteKind.CHV_DATA)
        self._staged.append((address, counter, data))
        level.clean(address)
        self.persists += 1
        if len(self._staged) > self._background_batch:
            self._drain_background()

    def _drain_background(self, force_all: bool = False) -> None:
        """Off the critical path: replay staged entries in place."""
        target = 0 if force_all else self._background_batch // 2
        while len(self._staged) > target:
            address, _, data = self._staged.popleft()
            self.controller.write(address, data)
            self.background_writes += 1

    # ------------------------------------------------------------------

    @property
    def staged_entries(self) -> int:
        return len(self._staged)

    def crash(self) -> int:
        """The WPQ/MSU battery covers exactly the staged entries; the
        volatile hierarchy is lost as in plain ADR."""
        survivors = len(self._staged)
        self.hierarchy.invalidate_all()
        self.controller.flush_metadata()
        self.controller.drop_volatile_state()
        return survivors

    def recover(self) -> int:
        """Replay staged entries from the persistent MSU region through the
        full secure path (verifying each against its MSU counter).

        In hardware, only the count of staged entries and the MSU counter
        are registers; everything else (addresses, ciphertexts) comes back
        from the staging ring, with each entry's counter derived from its
        ring position — the same DC/eDC arithmetic Horus uses.
        """
        replayed = 0
        while self._staged:
            address, counter, _ = self._staged.popleft()
            slot_base = self._staging.block_at(
                (counter % self._ring_slots) * 2)
            raw_address = self.nvm.read(slot_base, ReadKind.CHV)
            ciphertext = self.nvm.read(slot_base + CACHE_LINE_SIZE,
                                       ReadKind.CHV)
            stored = int.from_bytes(raw_address[:8], "little")
            if stored != address:
                raise IntegrityError(
                    f"MSU staging entry address mismatch at {slot_base:#x}")
            self.controller.mac.block_mac(MacKind.VERIFY, ciphertext,
                                          stored, counter,
                                          domain=MacDomain.CHV_DATA)
            plaintext = self.controller.aes.decrypt(stored, counter,
                                                    ciphertext)
            self.controller.write(stored, plaintext)
            replayed += 1
        if replayed == 0 and self._msu_counter.ephemeral:
            raise RecoveryError("staged entries lost")
        self._msu_counter.clear_ephemeral()
        return replayed

    def persist_critical_cycles(self) -> int:
        """Serialized persist-path cycles for Dolos.

        Per persist: one staging data write, the amortized address-block
        share, one MAC, one AES — independent of tree depth.  (Background
        replay and cache-fill traffic are off the critical path.)
        """
        t = self.timing
        per_persist = (t.write_cycles + t.write_cycles // 8
                       + t.mac_cycles + t.aes_cycles)
        stalls = self.persist_stalls * t.write_cycles
        return self.persists * per_persist + stalls
