"""Sparse byte-addressable backing store.

The paper simulates a 32 GB PCM DIMM; only a few hundred thousand blocks are
ever touched during a drain episode, so the reproduction stores content as a
dictionary of 64 B blocks keyed by block index.  Untouched blocks read as
zeros, exactly like freshly-initialized memory.
"""

from itertools import repeat
from operator import floordiv, mod

from repro.common.address import block_index, require_block_aligned
from repro.common.constants import CACHE_LINE_SIZE
from repro.common.errors import AddressError
from repro.crypto.arena import records

ZERO_BLOCK = bytes(CACHE_LINE_SIZE)


class SparseMemory:
    """A sparse array of 64 B blocks over a fixed-size physical address space."""

    def __init__(self, size: int):
        if size <= 0 or size % CACHE_LINE_SIZE:
            raise AddressError(
                f"backing store size {size} must be a positive multiple "
                f"of {CACHE_LINE_SIZE}")
        self._size = size
        self._blocks: dict[int, bytes] = {}
        self._attacked: set[int] = set()
        self.journal: dict[int, bytes | None] | None = None
        """Undo journal, while one is open
        (:meth:`~repro.mem.nvm.NvmDevice.open_journal`): block index ->
        the block's content before its first store since the journal
        opened, or ``None`` when it had never been written.
        :meth:`write_block` and :meth:`write_arena` record into it, and
        :meth:`undo` puts it back."""

    @property
    def size(self) -> int:
        return self._size

    @property
    def touched_blocks(self) -> int:
        """Number of blocks that have ever been written (for tests/reports)."""
        return len(self._blocks)

    def _check(self, address: int) -> int:
        require_block_aligned(address)
        if address + CACHE_LINE_SIZE > self._size:
            raise AddressError(
                f"address {address:#x} beyond end of memory ({self._size:#x})")
        return block_index(address)

    def _check_batch(self, addresses) -> None:
        """:meth:`_check` every address of a batch, raising the first bad
        one's error; an all-valid batch is cleared by three C-level passes
        (lowest, highest, any misaligned)."""
        if addresses and (min(addresses) < 0
                          or max(addresses) > self._size - CACHE_LINE_SIZE
                          or any(map(mod, addresses,
                                     repeat(CACHE_LINE_SIZE)))):
            for address in addresses:
                self._check(address)

    def read_block(self, address: int) -> bytes:
        """Return the 64 B block at ``address`` (zeros if never written)."""
        # Inline fast path of _check: this runs once per simulated block I/O.
        if address % CACHE_LINE_SIZE \
                or not 0 <= address <= self._size - CACHE_LINE_SIZE:
            self._check(address)
        return self._blocks.get(address // CACHE_LINE_SIZE, ZERO_BLOCK)

    def write_block(self, address: int, data: bytes) -> None:
        """Store a full 64 B block at ``address``."""
        if len(data) != CACHE_LINE_SIZE:
            raise AddressError(
                f"block writes must be exactly {CACHE_LINE_SIZE} B, "
                f"got {len(data)}")
        if address % CACHE_LINE_SIZE \
                or not 0 <= address <= self._size - CACHE_LINE_SIZE:
            self._check(address)
        index = address // CACHE_LINE_SIZE
        journal = self.journal
        if journal is not None and index not in journal:
            journal[index] = self._blocks.get(index)
        self._blocks[index] = bytes(data)

    def write_arena(self, addresses, buffer) -> None:
        """Store blocks from one contiguous buffer: ``buffer[64*i:64*i+64]``
        lands at ``addresses[i]``.

        Semantically identical to :meth:`write_block` per address (same
        validation, same last-write-wins on duplicate addresses), except
        that validation runs for the whole batch before the first store,
        so a bad address cannot leave a partial batch behind — the
        device-level fault model, not this method, decides what a torn
        batch looks like.  The per-block payload objects are never
        built up front: the arena is cut into its stored blocks exactly
        once here, at the storage boundary, by the arena's records kernel.
        """
        count = len(addresses)
        if len(buffer) != count * CACHE_LINE_SIZE:
            raise AddressError(
                f"arena writes must be exactly {CACHE_LINE_SIZE} B per "
                f"address, got {len(buffer)} B for {count} addresses")
        self._check_batch(addresses)
        journal = self.journal
        if journal is not None:
            fresh = set(map(floordiv, addresses, repeat(CACHE_LINE_SIZE)))
            fresh.difference_update(journal)
            journal.update(zip(fresh, map(self._blocks.get, fresh)))
        self._blocks.update(zip(
            map(floordiv, addresses, repeat(CACHE_LINE_SIZE)),
            records(buffer, CACHE_LINE_SIZE)))

    def undo(self, journal: dict[int, bytes | None]) -> None:
        """Put back every block a closed :attr:`journal` covers: its
        recorded content, or unwritten.  Blocks written before the journal
        opened keep their place in the store's order and the others leave
        it, so the store is as it was when the journal opened."""
        blocks = self._blocks
        for index, content in journal.items():
            if content is None:
                blocks.pop(index, None)
            else:
                blocks[index] = content

    def read_arena(self, addresses) -> bytes:
        """Read a batch of blocks into one contiguous buffer.

        Byte ``64*i .. 64*i+63`` is :meth:`read_block` of ``addresses[i]``
        (zeros for never-written blocks); the stored blocks are joined
        once, without per-block copies into a preallocated buffer.
        """
        self._check_batch(addresses)
        return b"".join(map(self._blocks.get,
                            map(floordiv, addresses, repeat(CACHE_LINE_SIZE)),
                            repeat(ZERO_BLOCK)))

    def read_blocks(self, addresses) -> list[bytes]:
        """Read a batch of 64 B blocks (:meth:`read_block` per element)."""
        blocks = self._blocks
        limit = self._size - CACHE_LINE_SIZE
        out = []
        for address in addresses:
            if address % CACHE_LINE_SIZE or not 0 <= address <= limit:
                self._check(address)
            out.append(blocks.get(address // CACHE_LINE_SIZE, ZERO_BLOCK))
        return out

    def is_written(self, address: int) -> bool:
        """True when ``address`` has been explicitly written at least once."""
        if address % CACHE_LINE_SIZE \
                or not 0 <= address <= self._size - CACHE_LINE_SIZE:
            self._check(address)
        return address // CACHE_LINE_SIZE in self._blocks

    def corrupt_block(self, address: int, data: bytes) -> None:
        """Adversary hook: overwrite a block without any simulator accounting.

        The block is remembered in :attr:`attacked_blocks` — not simulator
        accounting (the controller never saw the access, and no stats/wear/
        trace entry is made) but the *oracle's* ledger, so outcome
        classification can tell an attacked block apart from a write a fault
        plan lost in flight (:attr:`~repro.mem.nvm.NvmDevice.lost_writes`).
        """
        self.write_block(address, data)
        self._attacked.add(address)

    @property
    def attacked_blocks(self) -> frozenset:
        """Addresses the adversary ever rewrote via :meth:`corrupt_block`."""
        return frozenset(self._attacked)

    def written_addresses(self):
        """All block addresses that were ever explicitly written, ascending."""
        for index in sorted(self._blocks):
            yield index * CACHE_LINE_SIZE

    def image(self) -> dict[int, bytes]:
        """Snapshot of every written block, as ``{address: content}``.

        Two backends hold identical persistent state iff their images are
        equal — the differential oracle's definition of \"same NVM\"."""
        return {index * CACHE_LINE_SIZE: data
                for index, data in self._blocks.items()}

    def clear(self) -> None:
        """Drop all content (fresh memory)."""
        self._blocks.clear()
        self._attacked.clear()
