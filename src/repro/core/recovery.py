"""Horus recovery (Section IV-C3) and the Fig. 16 recovery-time estimator.

Upon power restoration the CHV content is read back, each block's drain
counter is re-derived from its vault position and the persistent DC/eDC
registers, its MAC is verified, and the decrypted block is placed back —
data-region blocks into the LLC in dirty state (the paper's option 1),
metadata blocks into their metadata caches.

The paper reads the vault in reversed flush order; position grouping makes
forward order more natural here and the operation counts (what Fig. 16
measures) are identical either way.
"""

from dataclasses import dataclass
from itertools import compress
from itertools import count as count_from

from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import SystemConfig
from repro.common.constants import (
    ADDRESSES_PER_BLOCK,
    CACHE_LINE_SIZE,
    MAC_SIZE,
    MACS_PER_BLOCK,
)
from repro.common.errors import ConfigError, IntegrityError, RecoveryError
from repro.core.chv import MAC_GROUP_DLM, MAC_GROUP_SLM, ChvLayout
from repro.crypto.arena import FRAME_SIZE, frame_buffer, unpack_u64
from repro.crypto.batch import split_blocks
from repro.crypto.counters import DrainCounter
from repro.crypto.primitives import MacDomain
from repro.mem.nvm import NvmDevice
from repro.secure.controller import SecureMemoryController
from repro.stats.counters import SimStats
from repro.stats.events import AesKind, MacKind, ReadKind
from repro.stats.timing import TimingModel


@dataclass(frozen=True)
class RecoveryReport:
    """Everything measured about one recovery episode."""

    scheme: str
    blocks_restored: int
    stats: SimStats
    cycles: int
    seconds: float

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1e3


class HorusRecovery:
    """Reads back, verifies, decrypts, and restores one drain episode."""

    def __init__(self, controller: SecureMemoryController, nvm: NvmDevice,
                 chv: ChvLayout, drain_counter: DrainCounter,
                 hierarchy: CacheHierarchy, timing: TimingModel,
                 double_level_mac: bool = False, mode: str = "refill",
                 rotate_vault: bool = False, batched: bool = True):
        if mode not in ("refill", "writeback"):
            raise ConfigError(
                f"recovery mode must be 'refill' or 'writeback', got {mode!r}")
        self._controller = controller
        self._nvm = nvm
        self._chv = chv
        self._dc = drain_counter
        self._hierarchy = hierarchy
        self._timing = timing
        self._dlm = double_level_mac
        self.rotate_vault = rotate_vault
        self.batched = batched
        self.step_hook = None
        """Optional callback ``step_hook(position)`` invoked before each
        vault position is read back.  The campaign engine uses it to model
        tampering or a nested power cut
        (:class:`~repro.faults.plan.PowerInterrupt`) at a
        precise recovery step; while set, recovery takes the scalar path so
        every position is a distinct step."""
        self.mode = mode
        """The paper's two recovery options (Section IV-C3): ``refill``
        places verified blocks back in the LLC dirty (option 1, inclusive
        LLCs); ``writeback`` treats them as normal run-time writes through
        the main security metadata (option 2, for non-inclusive LLCs)."""
        self.name = "horus-dlm" if double_level_mac else "horus-slm"

    def recover(self) -> RecoveryReport:
        count = self._dc.ephemeral
        if count == 0:
            raise RecoveryError("no drain episode to recover")

        stats = self._controller.stats
        before = stats.copy()

        # The rotation offset is derived from the episode-start DC — exactly
        # as the drain derived it (DC and eDC are persistent registers).
        from repro.core.chv import VaultRotation
        rotation = VaultRotation.for_episode(
            self._chv, self._dc.value - self._dc.ephemeral, self.rotate_vault,
            group_align=self.mac_group)

        writeback_queue: list[tuple[int, bytes]] = []
        if (self.batched and self._nvm.trace is None
                and self.step_hook is None):
            self._recover_batched(count, rotation, writeback_queue)
        else:
            self._recover_scalar(count, rotation, writeback_queue)

        for address, plaintext in writeback_queue:
            self._controller.write(address, plaintext)

        self._dc.clear_ephemeral()
        episode = stats.diff(before)
        cycles = self._timing.cycles(episode)
        return RecoveryReport(
            scheme=self.name,
            blocks_restored=count,
            stats=episode,
            cycles=cycles,
            seconds=cycles / self._timing.config.frequency_hz,
        )

    def _recover_scalar(self, count: int, rotation,
                        writeback_queue: list[tuple[int, bytes]]) -> None:
        """The reference per-position read/verify/restore loop."""
        aes = self._controller.aes
        mac = self._controller.mac
        layout = self._controller.layout

        address_block: bytes | None = None
        mac_block: bytes | None = None
        dlm_buffer: list[bytes] = []
        dlm_pending: list[tuple[int, int, bytes]] = []

        for position in range(count):
            if self.step_hook is not None:
                self.step_hook(position)
            if position % ADDRESSES_PER_BLOCK == 0:
                group = rotation.address_group(
                    position // ADDRESSES_PER_BLOCK)
                address_block = self._nvm.read(
                    self._chv.address_block_address(group), ReadKind.CHV)
            if position % self.mac_group == 0:
                group = rotation.mac_group(position // self.mac_group,
                                           self.mac_group)
                mac_block = self._nvm.read(
                    self._chv.mac_block_address(group, self.mac_group),
                    ReadKind.CHV)

            slot = position % ADDRESSES_PER_BLOCK
            address = int.from_bytes(
                address_block[slot * 8:(slot + 1) * 8], "little")
            counter = self._dc.value_at(position)
            ciphertext = self._nvm.read(
                self._chv.data_address(rotation.data_slot(position)),
                ReadKind.CHV)

            computed = mac.block_mac(MacKind.VERIFY, ciphertext,
                                     address, counter,
                                     domain=MacDomain.CHV_DATA)
            if self._dlm:
                # Verification of a DLM group is deferred to its second-level
                # MAC, so nothing from the group is decrypted or restored
                # until that MAC checks out — a corrupted vault block must
                # never reach the hierarchy.
                dlm_buffer.append(computed)
                dlm_pending.append((address, counter, ciphertext))
                if self._maybe_check_dlm_group(mac, mac_block, dlm_buffer,
                                               position, count):
                    for entry in dlm_pending:
                        self._consume(layout, aes, writeback_queue, *entry)
                    dlm_pending = []
                if len(dlm_buffer) == MACS_PER_BLOCK:
                    dlm_buffer = []
            else:
                stored = self._stored_mac(mac_block, position, MAC_GROUP_SLM)
                if stored != computed:
                    raise IntegrityError(
                        f"CHV MAC mismatch at vault position {position} "
                        f"(original address {address:#x})", address)
                self._consume(layout, aes, writeback_queue,
                              address, counter, ciphertext)

    def _recover_batched(self, count: int, rotation,
                         writeback_queue: list[tuple[int, bytes]]) -> None:
        """Whole-episode verify/decrypt through the batch crypto engines.

        On success the restored state, NVM image, and operation counters are
        identical to :meth:`_recover_scalar` (the differential oracle pins
        this).  On an integrity failure the same blocks are restored — every
        position (SLM) or full first-level group (DLM) *before* the failing
        one — and the same exception is raised; only the failure-path
        operation counters differ, because the batch computed the whole
        episode's MACs before the first comparison.

        In refill mode the verified data run (every block before the first
        metadata address) goes back into the LLC in one
        :meth:`~repro.cache.hierarchy.CacheHierarchy.restore_dirty` pass;
        the metadata-cache dump after it is restored line by line.  Each
        whole-episode buffer is dropped once its last consumer has run.
        """
        aes = self._controller.aes
        layout = self._controller.layout
        chv = self._chv
        group_size = self.mac_group

        address_buf = self._nvm.read_arena(
            chv.address_block_addresses(rotation.groups(
                -(-count // ADDRESSES_PER_BLOCK), ADDRESSES_PER_BLOCK)),
            ReadKind.CHV)
        mac_buf = self._nvm.read_arena(
            chv.mac_block_addresses(
                rotation.groups(-(-count // group_size), group_size),
                group_size),
            ReadKind.CHV)
        buffer = self._nvm.read_arena(
            chv.data_addresses(rotation.data_slots(count)), ReadKind.CHV)

        addresses = unpack_u64(address_buf)[:count]
        del address_buf
        base = self._dc.value - self._dc.ephemeral
        counters = range(base, base + count)
        # One frame pass serves both the verify MACs and the decryption.
        frames = frame_buffer(addresses, counters)
        verified, failure = self._verify_batch(mac_buf, buffer, addresses,
                                               counters, frames)
        del mac_buf

        if verified:
            if verified < count:
                del addresses[verified:]
                counters = counters[:verified]
                buffer = buffer[:verified * CACHE_LINE_SIZE]
                frames = frames[:verified * FRAME_SIZE]
            plaintext = aes.decrypt_batch(addresses, counters, buffer, frames)
            del buffer, frames
            blocks = split_blocks(plaintext)
            del plaintext
            data_end = 0
            if self.mode == "refill":
                # The drain vaults the hierarchy's lines first and the
                # metadata caches' dump after them.
                data_end = next(
                    compress(count_from(), map(layout._data_size.__le__,
                                               addresses)),
                    verified)
                self._hierarchy.restore_dirty(addresses[:data_end],
                                              blocks[:data_end])
            for index in range(data_end, verified):
                self._place(layout, writeback_queue, addresses[index],
                            blocks[index])
        if failure is not None:
            # The raised error's traceback holds this frame: drop the
            # local so error and frame do not form a reference cycle.
            try:
                raise failure
            finally:
                del failure

    def _verify_batch(self, mac_buf: bytes, buffer: bytes,
                      addresses: list[int], counters: range,
                      frames: bytes) -> tuple[int, IntegrityError | None]:
        """MAC-check a whole vault read back by :meth:`_recover_batched`.

        Returns how many leading positions verified and, when that is not
        all of them, the error the scalar loop raises at the first failing
        position (SLM) or group (DLM).
        """
        mac = self._controller.mac
        count = len(addresses)
        computed = mac.block_mac_batch(MacKind.VERIFY, buffer, addresses,
                                       counters, domain=MacDomain.CHV_DATA,
                                       frames=frames)
        computed_raw = b"".join(computed)

        if self._dlm:
            level2 = mac.digest_mac_batch(MacKind.VERIFY,
                                          split_blocks(computed_raw),
                                          domain=MacDomain.CHV_LEVEL2)
            level2_raw = b"".join(level2)
            # Fast path: an untampered vault matches the whole stored MAC
            # run at once (stored second-level MACs are consecutive 8 B
            # slots); only a mismatch pays the per-group scan that
            # pinpoints the first failing group exactly like scalar.
            if mac_buf[:len(level2_raw)] != level2_raw:
                mac_blocks = split_blocks(mac_buf)
                for g, second in enumerate(level2):
                    start = g * MACS_PER_BLOCK
                    slot = (start % MAC_GROUP_DLM) // MACS_PER_BLOCK
                    stored = mac_blocks[start // MAC_GROUP_DLM][
                        slot * MAC_SIZE:(slot + 1) * MAC_SIZE]
                    if stored != second:
                        position = min(start + MACS_PER_BLOCK, count) - 1
                        return start, IntegrityError(
                            f"CHV second-level MAC mismatch for group "
                            f"ending at vault position {position}")
        elif mac_buf[:len(computed_raw)] != computed_raw:
            mac_blocks = split_blocks(mac_buf)
            for position in range(count):
                stored = self._stored_mac(
                    mac_blocks[position // MAC_GROUP_SLM], position,
                    MAC_GROUP_SLM)
                if stored != computed[position]:
                    return position, IntegrityError(
                        f"CHV MAC mismatch at vault position {position} "
                        f"(original address {addresses[position]:#x})",
                        addresses[position])
        return count, None

    # ------------------------------------------------------------------

    @property
    def mac_group(self) -> int:
        return MAC_GROUP_DLM if self._dlm else MAC_GROUP_SLM

    @staticmethod
    def _stored_mac(mac_block: bytes, position: int, group_size: int) -> bytes:
        slot = (position % group_size) // (group_size // MACS_PER_BLOCK)
        return mac_block[slot * MAC_SIZE:(slot + 1) * MAC_SIZE]

    def _maybe_check_dlm_group(self, mac, mac_block: bytes,
                               dlm_buffer: list[bytes], position: int,
                               count: int) -> bool:
        """Verify a completed (or final partial) first-level MAC group.

        Returns True when a check ran (and passed), so the caller knows the
        group's pending blocks may now be consumed.
        """
        group_done = len(dlm_buffer) == MACS_PER_BLOCK
        episode_done = position == count - 1
        if not group_done and not episode_done:
            return False
        second = mac.digest_mac(MacKind.VERIFY, b"".join(dlm_buffer),
                                domain=MacDomain.CHV_LEVEL2)
        slot = (position % MAC_GROUP_DLM) // MACS_PER_BLOCK
        stored = mac_block[slot * MAC_SIZE:(slot + 1) * MAC_SIZE]
        if stored != second:
            raise IntegrityError(
                f"CHV second-level MAC mismatch for group ending at vault "
                f"position {position}")
        return True

    def _consume(self, layout, aes, writeback_queue: list[tuple[int, bytes]],
                 address: int, counter: int, ciphertext: bytes) -> None:
        """Decrypt and place one verified vault block."""
        plaintext = aes.decrypt(address, counter, ciphertext)
        self._place(layout, writeback_queue, address, plaintext)

    def _place(self, layout, writeback_queue: list[tuple[int, bytes]],
               address: int, plaintext: bytes) -> None:
        """Put one verified block back.  Vault addresses decode from u64
        slots, so the data region's upper bound alone tells data from
        metadata."""
        if address >= layout._data_size:
            self._controller.restore_metadata_line(address, plaintext)
        elif self.mode == "writeback":
            # Option 2: replay as run-time writes, but only after the
            # vaulted metadata-cache content is back (it arrives at the
            # end of the vault, and the lazy tree is unverifiable
            # without it).
            writeback_queue.append((address, plaintext))
        else:
            self._hierarchy.restore_dirty([address], [plaintext])


def estimate_recovery_stats(config: SystemConfig, double_level_mac: bool,
                            blocks: int | None = None) -> SimStats:
    """Operation counts of a worst-case recovery, without running one.

    Used for the Fig. 16 sweep at LLC sizes too large to simulate block by
    block; the counting logic mirrors :class:`HorusRecovery` exactly (a test
    pins the two together on a small configuration).  ``blocks`` overrides
    the worst-case vaulted-block count (hierarchy + full metadata cache) with
    a known episode size.
    """
    if blocks is None:
        blocks = (config.total_cache_lines
                  + config.metadata_cache_size // 64)
    stats = SimStats()
    stats.record_read(ReadKind.CHV, blocks)  # data blocks
    stats.record_read(ReadKind.CHV, -(-blocks // ADDRESSES_PER_BLOCK))
    group = MAC_GROUP_DLM if double_level_mac else MAC_GROUP_SLM
    stats.record_read(ReadKind.CHV, -(-blocks // group))         # MAC blocks
    stats.record_mac(MacKind.VERIFY, blocks)                     # first level
    if double_level_mac:
        stats.record_mac(MacKind.VERIFY, -(-blocks // MACS_PER_BLOCK))
    stats.record_aes(AesKind.DECRYPT, blocks)
    return stats


def estimate_recovery_seconds(config: SystemConfig,
                              double_level_mac: bool) -> float:
    """Worst-case recovery time (the Fig. 16 quantity)."""
    timing = TimingModel(config)
    return timing.seconds(estimate_recovery_stats(config, double_level_mac))
