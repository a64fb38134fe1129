"""The Horus drain engine (Section IV-C).

Horus replaces the baseline's in-place flushes with sequential writes into
the Cache Hierarchy Vault, encrypted under a never-repeating on-chip drain
counter.  Nothing in the drain path touches the main tree, counter, or MAC
regions, so the episode cost is independent of the hierarchy's spatial
contents:

* per flushed line — one pad generation, one MAC, one CHV data write;
* per 8 lines — one coalesced address-block write;
* MAC writes — one block per 8 lines (SLM) or, with the double-level MAC
  register scheme of Fig. 10, one block per 64 lines at the price of one
  extra second-level MAC per 8 lines (the 1.125x of Fig. 13);
* after the hierarchy — the metadata-cache content is vaulted the same way
  (negligible; Fig. 12's rightmost component).

Every vaulted block is 64 real bytes, encrypted and MACed for real: recovery
(:mod:`repro.core.recovery`) detects tampering only by recomputing those
MACs.  The engine has two executions of the same episode semantics:

* the **scalar path** walks the hierarchy block by block through the scalar
  crypto primitives — the reference implementation, kept verbatim.  It is
  taken with ``batched=False`` and whenever a fault plan or request trace
  watches the device (:attr:`~repro.mem.nvm.NvmDevice.grouped_io` is
  false), so those channels see the exact interleaved write order and lose
  exactly the same writes;
* the **batched path** (default) collects the episode's work list once,
  reserves the whole counter range, runs the crypto through
  :mod:`repro.crypto.batch`, and lands the episode as three arena writes —
  byte-identical image, identical operation counters and wear, at a
  fraction of the interpreter overhead.  The differential oracle
  (:mod:`repro.core.oracle`) holds the two paths to each other.
"""

from repro.cache.hierarchy import CacheHierarchy
from repro.common.constants import (
    ADDRESSES_PER_BLOCK,
    CACHE_LINE_SIZE,
    MACS_PER_BLOCK,
)
from repro.common.errors import ConfigError
from repro.core.chv import (
    MAC_GROUP_DLM,
    MAC_GROUP_SLM,
    ChvLayout,
    VaultRotation,
)
from repro.crypto.arena import frame_buffer, pack_u64
from repro.crypto.batch import split_blocks
from repro.crypto.counters import DrainCounter
from repro.crypto.engine import AesEngine, MacEngine
from repro.crypto.primitives import MacDomain
from repro.epd.drain import DrainEngine
from repro.mem.nvm import NvmDevice
from repro.secure.controller import SecureMemoryController
from repro.stats.events import MacKind, WriteKind
from repro.stats.timing import TimingModel


class HorusDrainEngine(DrainEngine):
    """Drain the hierarchy into the CHV (Horus-SLM or Horus-DLM)."""

    def __init__(self, controller: SecureMemoryController, nvm: NvmDevice,
                 chv: ChvLayout, drain_counter: DrainCounter,
                 timing: TimingModel, double_level_mac: bool = False,
                 rotate_vault: bool = False, batched: bool = True):
        super().__init__(controller.stats, timing)
        self._controller = controller
        self._nvm = nvm
        self._chv = chv
        self._dc = drain_counter
        self._dlm = double_level_mac
        self.rotate_vault = rotate_vault
        self.batched = batched
        self._rotation = VaultRotation.for_episode(chv, 0, False)
        self.name = "horus-dlm" if double_level_mac else "horus-slm"
        # Horus reuses the run-time AES/MAC engines during draining
        # (Section IV-D: no new crypto hardware).
        self._aes: AesEngine = controller.aes
        self._mac: MacEngine = controller.mac

    @property
    def mac_group(self) -> int:
        return MAC_GROUP_DLM if self._dlm else MAC_GROUP_SLM

    def _run(self, hierarchy: CacheHierarchy,
             seed: int | None) -> tuple[int, int]:
        self._rotation = VaultRotation.for_episode(
            self._chv, self._dc.value, self.rotate_vault,
            group_align=self.mac_group)
        self._dc.begin_episode()
        if self.batched and self._nvm.grouped_io:
            return self._run_batched(hierarchy, seed)
        return self._run_scalar(hierarchy, seed)

    # ------------------------------------------------------------------
    # Batched path
    # ------------------------------------------------------------------

    def _run_batched(self, hierarchy: CacheHierarchy,
                     seed: int | None) -> tuple[int, int]:
        # Unzipped as consumed: the stream's pairs are freed before the
        # vault's buffers are built, which bounds the episode's peak memory.
        addresses: list[int] = []
        payloads: list[bytes] = []
        for address, data in hierarchy.drain_lines(seed):
            addresses.append(address)
            payloads.append(data)
        flushed = len(addresses)
        kinds = [WriteKind.CHV_DATA] * flushed

        metadata = 0
        controller = self._controller
        for cache in controller.metadata_caches:
            for address, content, _ in controller.metadata_lines(cache):
                addresses.append(address)
                payloads.append(content)
                kinds.append(WriteKind.CHV_METADATA)
                metadata += 1

        total = len(addresses)
        count = min(total, self._chv.capacity)
        if count < total:
            # Mirror the scalar path exactly: the first `capacity` blocks
            # are fully vaulted (capacity is group-aligned, so no partial
            # registers remain), then the episode aborts.
            del addresses[count:], payloads[count:], kinds[count:]
        self._vault_batch(addresses, payloads, kinds)
        if count < total:
            raise ConfigError("CHV overflow: episode exceeds vault capacity")
        return flushed, metadata

    def _vault_batch(self, addresses: list[int], payloads: list[bytes],
                     kinds: list[WriteKind]) -> None:
        """Crypto, coalescing, and the grouped NVM issue."""
        count = len(addresses)
        if not count:
            # An empty episode records nothing, exactly like the scalar
            # loop that never runs.
            return
        chv = self._chv
        rotation = self._rotation
        start = self._dc.take(count)
        counters = range(start, start + count)
        frames = frame_buffer(addresses, counters)

        ciphertext = self._aes.encrypt_batch(
            addresses, counters, b"".join(payloads), frames)
        macs = self._mac.block_mac_batch(
            MacKind.CHV_DATA, ciphertext, addresses, counters,
            domain=MacDomain.CHV_DATA, frames=frames)
        mac_buf = b"".join(macs)
        # Freed before the arena writes: kept alive through them, the
        # per-block MAC list raised a paper-scale episode's peak RSS by
        # about 15 MB.
        del macs
        if self._dlm:
            mac_buf = b"".join(self._mac.digest_mac_batch(
                MacKind.CHV_LEVEL2, split_blocks(mac_buf),
                domain=MacDomain.CHV_LEVEL2))

        # No fault plan or trace watches individual requests (_run routes
        # only grouped-I/O devices here), so the scalar interleaving
        # collapses into three arena writes (data, address blocks, MAC
        # blocks): the episode touches disjoint CHV regions, so the final
        # image, the folded per-kind counters and the per-block wear counts
        # are identical to scalar issue.  The data batch's composition is
        # known in closed form (kinds is a CHV_DATA prefix followed by a
        # CHV_METADATA suffix); zero-count kinds are omitted so the folded
        # stats update touches exactly the counters the scalar path would.
        data_count = kinds.count(WriteKind.CHV_DATA)
        addr_blocks = -(-count // ADDRESSES_PER_BLOCK)
        mac_blocks = -(-count // self.mac_group)
        data_counts = {}
        if data_count:
            data_counts[WriteKind.CHV_DATA] = data_count
        if count > data_count:
            data_counts[WriteKind.CHV_METADATA] = count - data_count
        self._nvm.write_arena(
            chv.data_addresses(count, rotation), ciphertext,
            WriteKind.CHV_DATA, data_counts)

        addr_buf = pack_u64(addresses)
        if len(addr_buf) < addr_blocks * CACHE_LINE_SIZE:
            addr_buf = addr_buf.ljust(addr_blocks * CACHE_LINE_SIZE, b"\0")
        self._nvm.write_arena(
            chv.address_block_addresses(
                rotation.groups(addr_blocks, ADDRESSES_PER_BLOCK)),
            addr_buf, WriteKind.CHV_ADDRESS)

        if len(mac_buf) < mac_blocks * CACHE_LINE_SIZE:
            mac_buf = mac_buf.ljust(mac_blocks * CACHE_LINE_SIZE, b"\0")
        group_size = self.mac_group
        self._nvm.write_arena(
            chv.mac_block_addresses(rotation.groups(mac_blocks, group_size),
                                    group_size),
            mac_buf, WriteKind.CHV_MAC)

    # ------------------------------------------------------------------
    # Scalar reference path
    # ------------------------------------------------------------------

    def _run_scalar(self, hierarchy: CacheHierarchy,
                    seed: int | None) -> tuple[int, int]:
        state = _EpisodeState()

        flushed = 0
        for address, data in hierarchy.drain_lines(seed):
            self._vault_block(state, address, data, WriteKind.CHV_DATA)
            flushed += 1

        metadata = 0
        controller = self._controller
        for cache in controller.metadata_caches:
            for address, content, _ in controller.metadata_lines(cache):
                self._vault_block(state, address, content,
                                  WriteKind.CHV_METADATA)
                metadata += 1

        self._finalize(state)
        return flushed, metadata

    def _vault_block(self, state: "_EpisodeState", address: int,
                     data: bytes, kind: WriteKind) -> None:
        position = state.position
        if position >= self._chv.capacity:
            raise ConfigError("CHV overflow: episode exceeds vault capacity")
        counter = self._dc.next()

        ciphertext = self._aes.encrypt(address, counter, data)
        self._nvm.write(
            self._chv.data_address(self._rotation.data_slot(position)),
            ciphertext, kind)

        state.address_register.append(address)
        if len(state.address_register) == ADDRESSES_PER_BLOCK:
            self._write_address_block(state)

        mac_value = self._mac.block_mac(
            MacKind.CHV_DATA, ciphertext, address, counter,
            domain=MacDomain.CHV_DATA)
        state.mac_register.append(mac_value)
        if len(state.mac_register) == MACS_PER_BLOCK:
            if self._dlm:
                self._fold_mac_register(state)
            else:
                self._write_mac_block(state, state.mac_register)
                state.mac_register = []

        state.position += 1

    def _fold_mac_register(self, state: "_EpisodeState") -> None:
        """DLM: compress the 8-entry MAC register into one second-level MAC."""
        second = self._mac.digest_mac(
            MacKind.CHV_LEVEL2, b"".join(state.mac_register),
            domain=MacDomain.CHV_LEVEL2)
        state.mac_register = []
        state.level2_register.append(second)
        if len(state.level2_register) == MACS_PER_BLOCK:
            self._write_mac_block(state, state.level2_register)
            state.level2_register = []

    def _write_address_block(self, state: "_EpisodeState") -> None:
        payload = b"".join(a.to_bytes(8, "little")
                           for a in state.address_register)
        payload = payload.ljust(CACHE_LINE_SIZE, b"\0")
        group = self._rotation.address_group(state.address_group)
        self._nvm.write(self._chv.address_block_address(group),
                        payload, WriteKind.CHV_ADDRESS)
        state.address_register = []
        state.address_group += 1

    def _write_mac_block(self, state: "_EpisodeState",
                         macs: list[bytes]) -> None:
        payload = b"".join(macs).ljust(CACHE_LINE_SIZE, b"\0")
        group = self._rotation.mac_group(state.mac_group_index,
                                         self.mac_group)
        self._nvm.write(self._chv.mac_block_address(group, self.mac_group),
                        payload, WriteKind.CHV_MAC)
        state.mac_group_index += 1

    def _finalize(self, state: "_EpisodeState") -> None:
        """Flush partially-filled coalescing registers at episode end."""
        if state.address_register:
            self._write_address_block(state)
        if self._dlm:
            if state.mac_register:
                self._fold_mac_register_partial(state)
            if state.level2_register:
                self._write_mac_block(state, state.level2_register)
                state.level2_register = []
        elif state.mac_register:
            self._write_mac_block(state, state.mac_register)
            state.mac_register = []

    def _fold_mac_register_partial(self, state: "_EpisodeState") -> None:
        second = self._mac.digest_mac(
            MacKind.CHV_LEVEL2, b"".join(state.mac_register),
            domain=MacDomain.CHV_LEVEL2)
        state.mac_register = []
        state.level2_register.append(second)


class _EpisodeState:
    """The on-chip coalescing registers of Section IV-C/IV-D."""

    __slots__ = ("position", "address_register", "address_group",
                 "mac_register", "level2_register", "mac_group_index")

    def __init__(self) -> None:
        self.position = 0
        self.address_register: list[int] = []
        self.address_group = 0
        self.mac_register: list[bytes] = []
        self.level2_register: list[bytes] = []
        self.mac_group_index = 0
