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

The engine has two executions of the same episode semantics:

* the **scalar path** (``batched=False``) walks the hierarchy block by
  block through the scalar crypto primitives — the reference
  implementation, kept verbatim;
* the **batched path** (default) collects the episode's work list once,
  reserves the whole counter range, runs the crypto through
  :mod:`repro.crypto.batch`, and issues every NVM write through the grouped
  device path — byte-identical output, identical operation counters,
  identical write order (so fault plans lose exactly the same writes), at a
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

_ZERO_BLOCK = bytes(CACHE_LINE_SIZE)


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
        if self.batched:
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
        payloads: list[bytes | None] = []
        for address, data in hierarchy.drain_lines(seed):
            addresses.append(address)
            payloads.append(data)
        flushed = len(addresses)
        kinds = [WriteKind.CHV_DATA] * flushed

        metadata = 0
        controller = self._controller
        for cache in controller.metadata_caches:
            for meta_line in cache.lines():
                addresses.append(meta_line.address)
                payloads.append(controller.line_bytes(meta_line))
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

    def _vault_batch(self, addresses: list[int], payloads: list,
                     kinds: list[WriteKind]) -> None:
        """Crypto, coalescing, and the single grouped NVM issue."""
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

        plaintext = None
        if count and payloads[0] is not None:
            plaintext = b"".join(payloads)
        ciphertext = self._aes.encrypt_batch(addresses, counters, plaintext,
                                             frames)
        macs = self._mac.block_mac_batch(
            MacKind.CHV_DATA, ciphertext, addresses, counters,
            domain=MacDomain.CHV_DATA, frames=frames)
        mac_raw = b"".join(macs)

        level2: list[bytes] = []
        level2_raw = b""
        if self._dlm and count:
            mac_view = memoryview(mac_raw)
            groups = [mac_view[i:i + CACHE_LINE_SIZE]
                      for i in range(0, len(mac_raw), CACHE_LINE_SIZE)]
            level2 = self._mac.digest_mac_batch(
                MacKind.CHV_LEVEL2, groups, len(groups),
                domain=MacDomain.CHV_LEVEL2)
            level2_raw = b"".join(level2)

        data_addresses = chv.data_addresses(rotation.data_slots(count))

        if self._nvm.grouped_io:
            # No fault plan or trace is watching individual requests (wear
            # counts per block, in any order), so the interleaved stream
            # can collapse into three arena writes (data, address blocks,
            # MAC blocks): the episode touches disjoint CHV regions, so the
            # final image, the folded per-kind counters and the wear counts
            # are identical to scalar issue.
            # The data batch's composition is known in closed form (kinds
            # is a CHV_DATA prefix followed by a CHV_METADATA suffix);
            # zero-count kinds are omitted so the folded stats update
            # touches exactly the counters the scalar path would.
            data_count = kinds.count(WriteKind.CHV_DATA)
            addr_blocks = -(-count // ADDRESSES_PER_BLOCK)
            mac_blocks = -(-count // self.mac_group)
            data_counts = {}
            if data_count:
                data_counts[WriteKind.CHV_DATA] = data_count
            if count > data_count:
                data_counts[WriteKind.CHV_METADATA] = count - data_count
            self._nvm.write_arena(
                data_addresses,
                ciphertext if ciphertext is not None
                else bytes(count * CACHE_LINE_SIZE),
                WriteKind.CHV_DATA, data_counts)

            addr_buf = pack_u64(addresses)
            if len(addr_buf) < addr_blocks * CACHE_LINE_SIZE:
                addr_buf = addr_buf.ljust(addr_blocks * CACHE_LINE_SIZE,
                                          b"\0")
            addr_group = rotation.address_group
            self._nvm.write_arena(
                [chv.address_block_address(addr_group(g))
                 for g in range(addr_blocks)],
                addr_buf, WriteKind.CHV_ADDRESS)

            mac_buf = level2_raw if self._dlm else mac_raw
            if len(mac_buf) < mac_blocks * CACHE_LINE_SIZE:
                mac_buf = mac_buf.ljust(mac_blocks * CACHE_LINE_SIZE, b"\0")
            mac_group = rotation.mac_group
            self._nvm.write_arena(
                [chv.mac_block_address(mac_group(g, self.mac_group),
                                       self.mac_group)
                 for g in range(mac_blocks)],
                mac_buf, WriteKind.CHV_MAC)
            return

        # Accounted channels (fault plan / trace) observe each
        # request: build the interleaved per-write stream so they see the
        # exact scalar order, and lose exactly the same writes.
        if ciphertext is None:
            data_payloads: list[bytes] = [_ZERO_BLOCK] * count
        else:
            data_payloads = split_blocks(ciphertext)
        data_writes = list(zip(data_addresses, data_payloads, kinds))
        writes: list[tuple[int, bytes, WriteKind]] = []
        extend = writes.extend
        append = writes.append
        full_groups = count // ADDRESSES_PER_BLOCK
        # Interleave per coalescing group, preserving the scalar write
        # order: 8 data writes, the group's address block, then (SLM) its
        # MAC block or (DLM) a second-level block after every 8th group.
        for g in range(full_groups):
            lo = g * ADDRESSES_PER_BLOCK
            hi = lo + ADDRESSES_PER_BLOCK
            extend(data_writes[lo:hi])
            append(self._address_block(addresses, lo, hi))
            if self._dlm:
                if hi % MAC_GROUP_DLM == 0:
                    group = hi // MAC_GROUP_DLM - 1
                    append(self._mac_block(
                        level2, group * MACS_PER_BLOCK,
                        (group + 1) * MACS_PER_BLOCK, group))
            else:
                append(self._mac_block(macs, lo, hi, g))

        # Partial coalescing registers flush at episode end, address block
        # first — the scalar _finalize order.
        if count % ADDRESSES_PER_BLOCK:
            extend(data_writes[full_groups * ADDRESSES_PER_BLOCK:])
            append(self._address_block(
                addresses, full_groups * ADDRESSES_PER_BLOCK, count))
        if self._dlm:
            full_blocks = count // MAC_GROUP_DLM
            if len(level2) > full_blocks * MACS_PER_BLOCK:
                append(self._mac_block(
                    level2, full_blocks * MACS_PER_BLOCK, len(level2),
                    full_blocks))
        elif count % MACS_PER_BLOCK:
            append(self._mac_block(
                macs, count - count % MACS_PER_BLOCK, count,
                count // MACS_PER_BLOCK))

        self._nvm.write_batch(writes)

    def _address_block(self, addresses: list[int], lo: int,
                       hi: int) -> tuple[int, bytes, WriteKind]:
        payload = b"".join(address.to_bytes(8, "little")
                           for address in addresses[lo:hi])
        if hi - lo < ADDRESSES_PER_BLOCK:
            payload = payload.ljust(CACHE_LINE_SIZE, b"\0")
        group = self._rotation.address_group(lo // ADDRESSES_PER_BLOCK)
        return (self._chv.address_block_address(group), payload,
                WriteKind.CHV_ADDRESS)

    def _mac_block(self, macs: list[bytes], lo: int, hi: int,
                   group: int) -> tuple[int, bytes, WriteKind]:
        payload = b"".join(macs[lo:hi])
        if len(payload) < CACHE_LINE_SIZE:
            payload = payload.ljust(CACHE_LINE_SIZE, b"\0")
        rotated = self._rotation.mac_group(group, self.mac_group)
        return (self._chv.mac_block_address(rotated, self.mac_group),
                payload, WriteKind.CHV_MAC)

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
            for meta_line in cache.lines():
                self._vault_block(state, meta_line.address,
                                  controller.line_bytes(meta_line),
                                  WriteKind.CHV_METADATA)
                metadata += 1

        self._finalize(state)
        return flushed, metadata

    def _vault_block(self, state: "_EpisodeState", address: int,
                     data: bytes | None, kind: WriteKind) -> None:
        position = state.position
        if position >= self._chv.capacity:
            raise ConfigError("CHV overflow: episode exceeds vault capacity")
        counter = self._dc.next()

        ciphertext = self._aes.encrypt(address, counter, data)
        self._nvm.write(
            self._chv.data_address(self._rotation.data_slot(position)),
            ciphertext if ciphertext is not None else _ZERO_BLOCK,
            kind)

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
