"""The run-time secure memory controller.

Implements counter-mode encryption with split counters, per-block data MACs,
and a sparse 8-ary Bonsai Merkle Tree over the counter blocks — the secure
NVM stack of Section II — together with the three security-metadata caches of
Table I and a pluggable integrity-tree update scheme (eager / lazy).

The metadata caches are data-cache lanes
(:class:`~repro.cache.cache.SetAssociativeCache`) of immutable values: a
counter block is one int (:mod:`repro.crypto.counters`), a tree node or a
data-MAC block is 64 B ``bytes``.  A store into a line builds the new value
and puts it back in its lane.  :func:`encode_counter` is the one place a
counter int becomes its 64 B wire form, and :func:`decode_counter` the one
place it comes back; everything that moves metadata as bytes (the victim
buffer, drains, dumps, the oracle) takes it from here.

Baseline secure EPD systems drain the cache hierarchy straight through this
controller's run-time write path (Section IV-B) — :meth:`write` per line, or
its batched form :meth:`run_ops_batch` — which is where the paper's 10.3x
memory-access explosion comes from: each flushed line drags its
address-specific metadata through the caches, and sparse contents turn nearly
every access into a miss plus a dirty eviction.
"""

from bisect import bisect_right
from collections import OrderedDict
from collections.abc import Callable, Iterator

from repro.cache.cache import Line, SetAssociativeCache
from repro.common.config import CacheConfig, SystemConfig
from repro.common.constants import (
    CACHE_LINE_SIZE,
    COUNTER_BLOCK_COVERAGE,
    MAC_SIZE,
    MACS_PER_BLOCK,
    MAJOR_COUNTER_BITS,
    MINOR_COUNTER_BITS,
)
from repro.common.errors import (
    ConfigError,
    IntegrityError,
    OracleDivergenceError,
    ReproError,
)
from repro.crypto.arena import frame_buffer
from repro.crypto.counters import (
    MAJOR_MASK,
    MINOR_MASK,
    counter_for,
    increment,
)
from repro.crypto.engine import AesEngine, KeySchedule, MacEngine
from repro.crypto.primitives import MacDomain
from repro.mem.backend import ZERO_BLOCK
from repro.mem.nvm import NvmDevice
from repro.mem.regions import MemoryLayout
from repro.metadata.nodes import DefaultNodes
from repro.secure.schemes import UpdateScheme, make_scheme
from repro.stats.counters import SimStats
from repro.stats.events import MacKind, ReadKind, WriteKind

# The enum members of the per-access paths, resolved once: on CPython 3.11
# an Enum class-attribute lookup costs about 0.1 µs, and the metadata walk
# names a kind or a domain several times per flushed line.
_READ_COUNTER = ReadKind.COUNTER
_READ_TREE = ReadKind.TREE_NODE
_READ_MAC = ReadKind.MAC
_WRITE_COUNTER = WriteKind.COUNTER
_WRITE_TREE = WriteKind.TREE_NODE
_WRITE_MAC = WriteKind.DATA_MAC
_VERIFY = MacKind.VERIFY
_TREE_UPDATE = MacKind.TREE_UPDATE
_NODE = MacDomain.NODE

Victim = tuple[bytes, str]
"""A victim-buffer entry: the line's 64 B wire form and its cache kind
(``"counter"``, ``"tree"`` or ``"mac"``)."""


def encode_counter(block: int) -> bytes:
    """The 64 B NVM form of a counter-lane int: its little-endian bytes."""
    return block.to_bytes(CACHE_LINE_SIZE, "little")


def decode_counter(raw: bytes) -> int:
    """The counter-lane int of a counter block's 64 B NVM form."""
    return int.from_bytes(raw, "little")


class SecureMemoryController:
    """Counter-mode encryption + BMT integrity over a timed NVM device."""

    def __init__(self, config: SystemConfig, nvm: NvmDevice,
                 layout: MemoryLayout, stats: SimStats,
                 scheme: str | UpdateScheme = "lazy",
                 batched: bool = True,
                 key_schedule: KeySchedule | None = None):
        self._config = config
        self.nvm = nvm
        self.layout = layout
        self.stats = stats
        self.batched = batched
        self.scheme = (scheme if isinstance(scheme, UpdateScheme)
                       else make_scheme(scheme))

        # Engines must be final before any downstream component (the Horus
        # drain engine captures them at construction), so alternate keying
        # is injected here rather than swapped in afterwards.
        if key_schedule is None:
            self.aes = AesEngine(stats)
            self.mac = MacEngine(stats)
        else:
            self.aes, self.mac = key_schedule.build(stats)
        self._defaults = DefaultNodes(self.mac._key, layout.num_tree_levels)

        sec = config.security
        self.counter_cache = SetAssociativeCache(
            _meta_cache_config("counter-cache", sec.counter_cache_size,
                               sec.counter_cache_ways))
        self.mac_cache = SetAssociativeCache(
            _meta_cache_config("mac-cache", sec.mac_cache_size,
                               sec.mac_cache_ways))
        self.tree_cache = SetAssociativeCache(
            _meta_cache_config("tree-cache", sec.tree_cache_size,
                               sec.tree_cache_ways))

        # On-chip persistent registers of the TCB.
        self.root_mac = self._defaults.mac(layout.num_tree_levels)
        self.cache_tree_root: bytes | None = None
        self.shadow_count = 0

        # Victim buffer for dirty metadata evictions.  A lazy writeback must
        # atomically pair "write child to NVM" with "refresh parent slot";
        # doing it inline from deep inside a fetch can evict lines that are
        # still being verified or re-fetch a stale copy of the victim itself.
        # Parking victims here and draining at the end of each top-level
        # operation (with lookups absorbing buffered victims) closes both
        # hazards — it is the writeback/victim buffer a real controller has.
        self._victims: "OrderedDict[int, Victim]" = OrderedDict()
        self._draining_victims = False

        self.op_hook = None
        """Optional observer called as ``op_hook(kind, address)`` (kind
        ``"w"``/``"r"``) at the top of every public data-path operation,
        *before* any metadata or NVM access.  The campaign engine uses it to
        inject adversary actions at a precise memory-side op boundary
        without bypassing any accounting — the hook only observes; the op
        then runs normally.  While set, :meth:`run_ops_batch` falls back to
        the scalar path so the hook sees every op at its true position."""

    # ------------------------------------------------------------------
    # Public data path
    # ------------------------------------------------------------------

    def write(self, address: int, plaintext: bytes) -> None:
        """Encrypt and persist one 64 B data block with full protection.

        This is both the run-time LLC-writeback path and the per-line step of
        a baseline secure drain.  The address is validated once, here; the
        counter block, its slot and the MAC slot all come from it.
        """
        layout = self.layout
        layout.require_data_address(address)
        if self.op_hook is not None:
            self.op_hook("w", address)
        cb_address = layout.counter_block_address(address)
        slot = address % COUNTER_BLOCK_COVERAGE // CACHE_LINE_SIZE
        # One probe: a hit pops the block and the store below reinserts it
        # as MRU (the LRU touch); a fill installs it as MRU and the store
        # replaces it in place.
        cache = self.counter_cache
        cache_set = cache.sets[cb_address // CACHE_LINE_SIZE % cache.num_sets]
        old = cache_set.pop(cb_address, None)
        if old is None:
            cache.misses += 1
            old = self._fill_counter(cb_address)
        else:
            cache.hits += 1

        block, overflowed = increment(old, slot)
        cache_set[cb_address] = block
        if overflowed:
            self._reencrypt_page(address, old, block, skip_slot=slot)

        counter = counter_for(block, slot)
        ciphertext = self.aes.encrypt(address, counter, plaintext)
        mac_value = self.mac.block_mac(
            MacKind.DATA_PROTECT, ciphertext, address, counter,
            domain=MacDomain.DATA)
        self._store_data_mac(address, mac_value)
        self.nvm.write(address, ciphertext, WriteKind.DATA)
        self.scheme.on_data_write(self, cb_address)
        self.drain_victims()

    def read(self, address: int) -> bytes:
        """Fetch, verify, and decrypt one 64 B data block."""
        self.layout.require_data_address(address)
        if self.op_hook is not None:
            self.op_hook("r", address)
        ciphertext = self.nvm.read(address, ReadKind.DATA)
        if not self.nvm.backend.is_written(address):
            # Never-written memory decrypts to zeros by convention (boot-time
            # initialized); there is nothing to verify yet.
            return ZERO_BLOCK
        counter = counter_for(self.get_counter(address),
                              address % COUNTER_BLOCK_COVERAGE
                              // CACHE_LINE_SIZE)

        stored_mac = self._load_data_mac(address)
        actual_mac = self.mac.block_mac(
            MacKind.VERIFY, ciphertext, address, counter,
            domain=MacDomain.DATA)
        if stored_mac != actual_mac:
            raise IntegrityError(
                f"data MAC mismatch at {address:#x}", address)
        plaintext = self.aes.decrypt(address, counter, ciphertext)
        self.drain_victims()
        return plaintext

    # ------------------------------------------------------------------
    # Batched run-time execution (epoch replay)
    # ------------------------------------------------------------------

    def run_ops(self, ops: "list[tuple[str, int, bytes | None]]") \
            -> list[bytes | None]:
        """Execute an in-order stream of run-time ops, one at a time.

        ``ops`` holds ``("w", address, data)`` / ``("r", address, None)``
        tuples — the memory-side stream a cache hierarchy emits while
        replaying a trace epoch (fetches and dirty evictions, in issue
        order).  Returns one entry per op: the fetched plaintext for reads,
        ``None`` for writes.  This scalar form is the specification
        :meth:`run_ops_batch` is held to.
        """
        results: list[bytes | None] = []
        append = results.append
        write = self.write
        read = self.read
        for kind, address, data in ops:
            if kind == "w":
                write(address, data)
                append(None)
            else:
                append(read(address))
        return results

    def run_ops_batch(self, ops: "list[tuple[str, int, bytes | None]]",
                      *, fetches: bool = False) -> list[bytes | None]:
        """Batched :meth:`run_ops`: phase-confined epoch execution.

        With ``fetches=True`` the return value holds only the read
        results, in op order — exactly the stream
        :meth:`~repro.cache.hierarchy.CacheHierarchy.resolve_pending`
        consumes (fills are emitted once per read, in issue order), so the
        caller needs no per-epoch re-filter of the full op stream.

        Observably identical to the scalar form — same NVM image, same
        stats, same metadata-cache hits/misses/LRU states, same values —
        because the three metadata regions are disjoint and each region's
        access stream is issued in op order:

        1. *counter phase* (op order): counter fetch/verify, increment,
           scheme hook, counter/tree victim drains;
        2. *crypto batch*: pads, ciphertexts, and data MACs for every write
           through the :mod:`repro.crypto.batch` kernels (one shared frame
           pass);
        3. *data phase* (op order): grouped NVM issue of data reads/writes;
        4. *MAC phase* (op order): MAC-cache stores/loads + MAC victim
           drains;
        5. *verify/decrypt batch*: batched VERIFY MACs and decryption for
           the reads.

        A write whose minor counter would overflow breaks the batch: the
        prefix completes through the five stages, the overflowing op runs
        its page re-encryption on the scalar path, and a fresh segment
        resumes after it.  Accounting side channels the grouped NVM issue
        cannot reproduce exactly (request traces, fault plans: see
        :attr:`~repro.mem.nvm.NvmDevice.grouped_io`) force the scalar path,
        as does an armed :attr:`op_hook`; wear counts per block and rides
        the grouped issue.

        Failures have one path, the scalar spec's.  The call checkpoints
        the metadata caches, victim buffer, root register and stats, and
        opens an undo journal on the NVM device.  When any stage raises a
        :class:`~repro.common.errors.ReproError`, the call rolls all of it
        back and re-runs ``ops`` through :meth:`run_ops`, which raises
        where scalar issue raises and leaves the state scalar issue
        leaves.  A re-run that completes means the batched stages failed
        where the spec does not: :class:`OracleDivergenceError`.
        """
        if (not self.batched or not self.nvm.grouped_io
                or self.op_hook is not None):
            results = self.run_ops(ops)
            if fetches:
                # Cold path only (hooked / traced / faulted runs): the
                # scalar results carry one entry per op.
                return [result for op, result in zip(ops, results)
                        if op[0] == "r"]
            return results
        rewind = self._checkpoint()
        failure: str | None = None
        try:
            results = [None] * len(ops)
            fetched: list[bytes | None] | None = [] if fetches else None
            start = 0
            while start < len(ops):
                start = self._run_segment(ops, start, results, fetched)
        except ReproError as exc:
            failure = f"{type(exc).__name__}: {exc}"
        finally:
            self.nvm.close_journal(undo=failure is not None)
        if failure is None:
            return fetched if fetched is not None else results
        # Outside the handler, so the scalar error is not chained to the
        # batched one and does not keep its frames alive.
        rewind()
        self.run_ops(ops)
        raise OracleDivergenceError(
            f"batched run_ops failed ({failure}) where the scalar run "
            f"of the same {len(ops)} ops completed")

    def _checkpoint(self) -> Callable[[], None]:
        """Open the NVM device's undo journal, and return the rewind of
        the rest of what a batched call changes: the metadata caches, the
        victim buffer, the root register and the stats.  The caches are
        copied whole: their lane values are immutable, so a set is one
        C-level dict copy."""
        caches = [(cache, list(map(dict.copy, cache.sets)),
                   cache.dirty.copy(), cache.hits, cache.misses)
                  for cache in self.metadata_caches]
        victims = self._victims.copy()
        root_mac = self.root_mac
        live = [self.stats]
        if self.nvm.stats is not self.stats:
            live.append(self.nvm.stats)
        stats = [(counts, counts.copy()) for counts in live]
        self.nvm.open_journal()

        def rewind() -> None:
            for cache, sets, dirty, hits, misses in caches:
                cache.sets[:] = sets
                cache.dirty.clear()
                cache.dirty.update(dirty)
                cache.hits, cache.misses = hits, misses
            self._victims.clear()
            self._victims.update(victims)
            self.root_mac = root_mac
            for counts, earlier in stats:
                counts.rewind(earlier)

        return rewind

    def _run_segment(self, ops: "list[tuple[str, int, bytes | None]]",
                     start: int, results: list[bytes | None],
                     fetched: "list[bytes | None] | None" = None) -> int:
        """Execute one overflow-free segment of ``ops`` starting at
        ``start``; returns the index of the first unprocessed op."""
        layout = self.layout
        counter_block_address = layout.counter_block_address
        counter_cache = self.counter_cache
        # The counter/MAC phases below act on the metadata caches' lanes
        # directly, as CacheHierarchy.replay_epoch does on the data caches:
        # the scalar fetches' probes, LRU moves, victim parking and stats
        # events, minus the per-access call chain, which dominates the
        # memory-side profile of epoch replay.
        ctr_sets = counter_cache.sets
        ctr_ns = counter_cache.num_sets
        ctr_base = layout._counters_base
        ctr_end = layout._counters_end
        data_size = layout._data_size
        ctr_hits = ctr_misses = 0
        fill_counter = self._fill_counter
        require_data_address = layout.require_data_address
        on_data_write = self.scheme.on_data_write
        nvm = self.nvm
        is_written = nvm.backend.is_written
        drain = self.drain_victims
        victims = self._victims
        meta_kinds = ("counter", "tree")

        pending_written: set[int] = set()
        write_addrs: list[int] = []
        write_ctrs: list[int] = []
        write_data: list[bytes] = []
        read_ops: list[int] = []
        read_addrs: list[int] = []
        read_ctrs: list[int] = []
        zero_reads: list[int] = []
        # Data-phase stream, op-ordered: a write is its op index, a read is
        # the index's bitwise complement (both streams stay in op order, so
        # later stages use positional cursors instead of index maps).
        data_phase: list[int] = []
        pending_add = pending_written.add
        w_addrs = write_addrs.append
        w_ctrs = write_ctrs.append
        w_data = write_data.append
        r_ops = read_ops.append
        r_addrs = read_addrs.append
        r_ctrs = read_ctrs.append
        z_reads = zero_reads.append
        dp = data_phase.append

        # Stage 1 — counter phase, in op order.  Increments, the scheme
        # hook (dirty marking / eager propagation), and counter/tree victim
        # drains all happen here so an intra-segment eviction sees the same
        # metadata-cache state as under scalar issue.
        overflow = -1
        n = len(ops)
        index = start
        while index < n:
            kind, address, data = ops[index]
            if kind == "w":
                cb_address = (ctr_base
                              + address // COUNTER_BLOCK_COVERAGE
                              * CACHE_LINE_SIZE)
                if (address % CACHE_LINE_SIZE or address < 0
                        or address >= data_size
                        or cb_address >= ctr_end):
                    # Cold path: exact errors and region-tail handling.
                    cb_address = counter_block_address(address)
                # One probe: a hit pops the block and the store below
                # reinserts it as MRU (the LRU touch); a fill installs it
                # as MRU and the store replaces it in place.
                ctr_set = ctr_sets[cb_address // CACHE_LINE_SIZE % ctr_ns]
                block = ctr_set.pop(cb_address, None)
                if block is None:
                    ctr_misses += 1
                    block = fill_counter(cb_address)
                else:
                    ctr_hits += 1
                # Inline of increment/counter_for for the non-overflow
                # case — the only one that stays in the batch (the break
                # puts the block back unchanged for the scalar overflow
                # tail below).
                shift = (MAJOR_COUNTER_BITS
                         + address % COUNTER_BLOCK_COVERAGE
                         // CACHE_LINE_SIZE * MINOR_COUNTER_BITS)
                minor = (block >> shift) & MINOR_MASK
                if minor == MINOR_MASK:
                    ctr_set[cb_address] = block
                    overflow = index
                    break
                ctr_set[cb_address] = block + (1 << shift)
                w_addrs(address)
                w_ctrs(((block & MAJOR_MASK) << MINOR_COUNTER_BITS)
                       | (minor + 1))
                w_data(data)  # type: ignore[arg-type]
                pending_add(address)
                dp(index)
                on_data_write(self, cb_address)
                if victims:
                    drain(meta_kinds)
            else:
                if (address % CACHE_LINE_SIZE or address < 0
                        or address >= data_size):
                    require_data_address(address)  # raises, as scalar
                dp(~index)
                if is_written(address) or address in pending_written:
                    cb_address = (ctr_base
                                  + address // COUNTER_BLOCK_COVERAGE
                                  * CACHE_LINE_SIZE)
                    if cb_address >= ctr_end:
                        cb_address = counter_block_address(address)
                    ctr_set = ctr_sets[cb_address // CACHE_LINE_SIZE
                                       % ctr_ns]
                    block = ctr_set.pop(cb_address, None)
                    if block is None:
                        ctr_misses += 1
                        block = fill_counter(cb_address)
                    else:
                        ctr_hits += 1
                        ctr_set[cb_address] = block
                    shift = (MAJOR_COUNTER_BITS
                             + address % COUNTER_BLOCK_COVERAGE
                             // CACHE_LINE_SIZE * MINOR_COUNTER_BITS)
                    r_ops(index)
                    r_addrs(address)
                    r_ctrs(((block & MAJOR_MASK) << MINOR_COUNTER_BITS)
                           | ((block >> shift) & MINOR_MASK))
                    if victims:
                        drain(meta_kinds)
                else:
                    # Never-written memory reads as zeros with nothing to
                    # verify — the scalar path touches no metadata either.
                    z_reads(index)
            index += 1
        counter_cache.hits += ctr_hits
        counter_cache.misses += ctr_misses

        # Stage 2 — one crypto batch for every write in the segment.
        write_macs: list[bytes]
        if write_addrs:
            frames = frame_buffer(write_addrs, write_ctrs)
            ciphertext = self.aes.encrypt_batch(
                write_addrs, write_ctrs, b"".join(write_data), frames)
            write_macs = self.mac.block_mac_batch(
                MacKind.DATA_PROTECT, ciphertext, write_addrs, write_ctrs,
                domain=MacDomain.DATA, frames=frames)
        else:
            ciphertext = b""
            write_macs = []

        # Stage 3 — data-region NVM traffic.  The segment is fault- and
        # trace-free by construction (run_ops_batch eligibility), so the
        # op-ordered run grouping collapses further:
        # reads that precede any same-address write see the pre-segment
        # backend and are issued as one arena read *before* the writes
        # land as one arena write; a read of data written earlier in the
        # segment is satisfied from the segment's own ciphertext — the
        # backend holds identical bytes by the time the write phase has
        # run, and the device still accounts one DATA read per request.
        read_blocks: dict[int, bytes | memoryview] = {}
        ct_view = memoryview(ciphertext)
        pending: dict[int, memoryview] = {}
        backend_reads: list[int] = []
        served = 0
        wpos = 0
        if len(write_addrs) < len(data_phase):
            # Only segments with reads have anything to serve; a drain
            # chunk is write-only.
            for entry in data_phase:
                if entry >= 0:
                    offset = wpos * CACHE_LINE_SIZE
                    wpos += 1
                    pending[ops[entry][1]] = \
                        ct_view[offset:offset + CACHE_LINE_SIZE]
                else:
                    op_index = ~entry
                    view = pending.get(ops[op_index][1])
                    if view is None:
                        backend_reads.append(op_index)
                    else:
                        read_blocks[op_index] = view
                        served += 1
        if backend_reads:
            arena = memoryview(nvm.read_arena(
                [ops[op_index][1] for op_index in backend_reads],
                ReadKind.DATA))
            for pos, op_index in enumerate(backend_reads):
                offset = pos * CACHE_LINE_SIZE
                read_blocks[op_index] = \
                    arena[offset:offset + CACHE_LINE_SIZE]
        if served:
            nvm.account_reads(ReadKind.DATA, served)
        if write_addrs:
            nvm.write_arena(write_addrs, ciphertext, WriteKind.DATA)

        # Stage 4 — MAC-region phase, in op order, with per-op MAC victim
        # drains (the scalar end-of-op drain's position in this region's
        # stream).  A MAC store builds the block's new value and puts it
        # back in its lane.
        stored_macs: list[bytes] = []
        mac_kind = ("mac",)
        mac_block_address = layout.mac_block_address
        mac_cache = self.mac_cache
        mac_sets = mac_cache.sets
        mac_dirty = mac_cache.dirty
        mac_ns = mac_cache.num_sets
        mac_ways = mac_cache.ways
        macs_base = layout._macs_base
        macs_end = layout._macs_end
        mac_span = CACHE_LINE_SIZE * MACS_PER_BLOCK
        mac_hits = mac_misses = mac_reads = 0
        backend_read = nvm.backend.read_block
        stored_append = stored_macs.append
        wpos = 0
        zpos = 0
        num_zero = len(zero_reads)
        for entry in data_phase:
            if entry >= 0:
                address = ops[entry][1]
                mac_value = write_macs[wpos]
                wpos += 1
            else:
                op_index = ~entry
                # Zero reads touch no MAC state (scalar returns before the
                # MAC load); both streams are op-ordered, so one cursor
                # suffices to skip them.
                if zpos < num_zero and zero_reads[zpos] == op_index:
                    zpos += 1
                    continue
                address = ops[op_index][1]
                mac_value = None
            mb_address = macs_base + address // mac_span * CACHE_LINE_SIZE
            if mb_address >= macs_end:
                # Cold path: region-tail handling (addresses were validated
                # in the counter phase).
                mb_address = mac_block_address(address)
            # One probe: a hit pops the block, and the store below
            # reinserts it as MRU.
            mac_set = mac_sets[mb_address // CACHE_LINE_SIZE % mac_ns]
            mac_block = mac_set.pop(mb_address, None)
            if mac_block is None:
                mac_misses += 1
                buffered = victims.pop(mb_address, None)
                if buffered is not None:
                    mac_block = buffered[0]
                    mac_dirty.add(mb_address)
                else:
                    mac_reads += 1
                    mac_block = backend_read(mb_address)
                if len(mac_set) >= mac_ways:
                    victim = next(iter(mac_set))
                    victim_block = mac_set.pop(victim)
                    if victim in mac_dirty:
                        mac_dirty.remove(victim)
                        victims[victim] = (victim_block, "mac")
            else:
                mac_hits += 1
            offset = (address // CACHE_LINE_SIZE) % MACS_PER_BLOCK * MAC_SIZE
            if mac_value is not None:
                mac_block = (mac_block[:offset] + mac_value
                             + mac_block[offset + MAC_SIZE:])
                mac_dirty.add(mb_address)
            else:
                stored_append(mac_block[offset:offset + MAC_SIZE])
            mac_set[mb_address] = mac_block
            if victims:
                drain(mac_kind)
        mac_cache.hits += mac_hits
        mac_cache.misses += mac_misses
        # Fold the per-fill MAC-region reads into one stats bump — SimStats
        # is pure counting, so the fold is unobservable.
        nvm.stats.record_read(_READ_MAC, mac_reads)

        # Stage 5 — batched verify + decrypt for the segment's reads.  A
        # mismatch needs no position: run_ops_batch re-runs the call on the
        # scalar path, which raises the exact error.
        if read_ops:
            read_ct = b"".join(read_blocks[op_index] for op_index in read_ops)
            if stored_macs != self.mac.block_mac_batch(
                    MacKind.VERIFY, read_ct, read_addrs, read_ctrs,
                    domain=MacDomain.DATA):
                raise IntegrityError("data MAC mismatch in a batched read")
            plaintext = self.aes.decrypt_batch(read_addrs, read_ctrs, read_ct)
            for pos, op_index in enumerate(read_ops):
                results[op_index] = plaintext[pos * CACHE_LINE_SIZE:
                                              (pos + 1) * CACHE_LINE_SIZE]
        for op_index in zero_reads:
            results[op_index] = ZERO_BLOCK
        if fetched is not None:
            # The segment's reads, in op order (negative data_phase
            # entries), appended to the caller's fill-aligned stream.
            fetched.extend(results[~entry] for entry in data_phase
                           if entry < 0)

        if overflow < 0:
            return n

        # Finish the overflowing write on the scalar path, reusing the
        # counter access stage 1 already performed for it (a scalar run
        # fetches exactly once too): stages 2-5 touched only the MAC cache
        # and NVM, so the block is still resident and is read from its lane
        # without counting a second hit.  Its parked victims drain at the
        # end, as the scalar end-of-op drain would.
        _, address, data = ops[overflow]
        cb_address = counter_block_address(address)
        slot = layout.counter_slot(address)
        ctr_set = ctr_sets[cb_address // CACHE_LINE_SIZE % ctr_ns]
        old = ctr_set[cb_address]
        block, _ = increment(old, slot)
        ctr_set[cb_address] = block
        self._reencrypt_page(address, old, block, skip_slot=slot)
        counter = counter_for(block, slot)
        overflow_ct = self.aes.encrypt(address, counter, data)
        mac_value = self.mac.block_mac(
            MacKind.DATA_PROTECT, overflow_ct, address, counter,
            domain=MacDomain.DATA)
        self._store_data_mac(address, mac_value)
        self.nvm.write(address, overflow_ct, WriteKind.DATA)
        self.scheme.on_data_write(self, cb_address)
        self.drain_victims()
        return overflow + 1

    # ------------------------------------------------------------------
    # Counter blocks
    # ------------------------------------------------------------------
    #
    # The metadata walk below acts on the three caches' lanes directly:
    # a probe is one ``pop`` (a hit reinserts the line as MRU, the LRU
    # touch), an install evicts ``next(iter(set))`` and parks a dirty
    # victim in its wire form, and a store puts the new value back in its
    # lane and marks it dirty.  Those are SetAssociativeCache's semantics,
    # hit and miss counts included, without its per-access call chain and
    # address checks: every address here is computed by the controller.

    def get_counter(self, data_address: int) -> int:
        """Counter block for ``data_address``, verified and cached."""
        return self._fetch_counter(
            self.layout.counter_block_address(data_address))

    def _fetch_counter(self, cb_address: int) -> int:
        """The counter block at ``cb_address``: a hit (made MRU) or a
        verified fill."""
        cache = self.counter_cache
        cache_set = cache.sets[cb_address // CACHE_LINE_SIZE % cache.num_sets]
        block = cache_set.pop(cb_address, None)
        if block is None:
            cache.misses += 1
            return self._fill_counter(cb_address)
        cache.hits += 1
        cache_set[cb_address] = block
        return block

    def _fill_counter(self, cb_address: int) -> int:
        """Miss path of :meth:`_fetch_counter` (the probe and its miss
        count have already happened): install the block as MRU and return
        it.

        A block parked in the victim buffer is the newest version and never
        left the TCB: it is reclaimed unread and unverified, and reinstalled
        dirty.
        """
        buffered = self._victims.pop(cb_address, None)
        if buffered is not None:
            block = decode_counter(buffered[0])
            self._install(self.counter_cache, cb_address, block, "counter",
                          dirty=True)
            return block

        raw = self.nvm.read(cb_address, _READ_COUNTER)
        actual = self.mac.digest_mac(_VERIFY, raw, domain=_NODE)
        layout = self.layout
        child = (cb_address - layout._counters_base) // CACHE_LINE_SIZE
        parent = self.get_tree_node(1, child // layout._tree_arity)
        offset = child % layout._tree_arity * MAC_SIZE
        if actual != parent[offset:offset + MAC_SIZE]:
            raise IntegrityError(
                f"counter block MAC mismatch at {cb_address:#x}", cb_address)

        block = decode_counter(raw)
        self._install(self.counter_cache, cb_address, block, "counter")
        return block

    # ------------------------------------------------------------------
    # Tree nodes
    # ------------------------------------------------------------------

    def get_tree_node(self, level: int, index: int) -> bytes:
        """Tree node (level, index), verified against its ancestors.

        Climbs past each missing node (miss counted, victim buffer checked,
        node read and MAC'd) to the first resident or buffered ancestor or
        the root register, then verifies and installs top-down: the
        accesses of a recursive parent fetch, in the same order.
        """
        layout = self.layout
        address = layout.tree_node_address(level, index)
        cache = self.tree_cache
        sets = cache.sets
        num_sets = cache.num_sets
        cache_set = sets[address // CACHE_LINE_SIZE % num_sets]
        parent = cache_set.pop(address, None)
        if parent is not None:
            cache.hits += 1
            cache_set[address] = parent
            return parent

        ways = cache.ways
        dirty = cache.dirty
        victims = self._victims
        nvm = self.nvm
        digest = self.mac.digest_mac
        bases = layout._tree_level_bases
        arity = layout._tree_arity
        top = layout.num_tree_levels
        climbed: list[tuple[int, int, int, bytes, bytes]] = []
        while True:
            cache.misses += 1
            buffered = victims.pop(address, None)
            if buffered is not None:
                # A parked ancestor is the newest version and never left
                # the TCB: it anchors the verification below it, dirty.
                parent = buffered[0]
                self._install(cache, address, parent, "tree", dirty=True)
                break
            raw = nvm.read(address, _READ_TREE)
            # Only an unwritten node, or one written with the backend's own
            # zero block, reads back as that object.
            if raw is ZERO_BLOCK and not nvm.backend.is_written(address):
                raw = self._defaults.content(level)
            climbed.append((address, level, index, raw,
                            digest(_VERIFY, raw, domain=_NODE)))
            if level == top:
                break
            level += 1
            index //= arity
            address = bases[level - 1] + index * CACHE_LINE_SIZE
            cache_set = sets[address // CACHE_LINE_SIZE % num_sets]
            parent = cache_set.pop(address, None)
            if parent is not None:
                cache.hits += 1
                cache_set[address] = parent
                break

        for address, level, index, raw, actual in reversed(climbed):
            if parent is None:
                expected = self.root_mac
            else:
                offset = index % arity * MAC_SIZE
                expected = parent[offset:offset + MAC_SIZE]
            if actual != expected:
                raise IntegrityError(
                    f"tree node ({level},{index}) MAC mismatch", address)
            parent = raw
            # Install clean as MRU: the node was absent, so it cannot be
            # dirty or resident.
            cache_set = sets[address // CACHE_LINE_SIZE % num_sets]
            if len(cache_set) >= ways:
                victim = next(iter(cache_set))
                victim_node = cache_set.pop(victim)
                if victim in dirty:
                    dirty.remove(victim)
                    victims[victim] = (victim_node, "tree")
            cache_set[address] = raw
        return parent

    def _set_tree_slot(self, level: int, index: int, slot: int,
                       mac: bytes) -> bytes:
        """Store ``mac`` in ``slot`` of tree node (level, index) and mark
        the node dirty; returns the node's new value.

        A resident node is updated in place (its hit counted, made MRU); a
        missing one is fetched by :meth:`get_tree_node`.  The new value
        goes back into the lane with nothing in between, so no later fetch
        can evict the node before the store lands."""
        address = (self.layout._tree_level_bases[level - 1]
                   + index * CACHE_LINE_SIZE)
        cache = self.tree_cache
        cache_set = cache.sets[address // CACHE_LINE_SIZE % cache.num_sets]
        node = cache_set.pop(address, None)
        if node is None:
            node = self.get_tree_node(level, index)
        else:
            cache.hits += 1
        offset = slot * MAC_SIZE
        node = node[:offset] + mac + node[offset + MAC_SIZE:]
        cache_set[address] = node
        cache.dirty.add(address)
        return node

    def propagate_to_root(self, cb_address: int) -> None:
        """Eager-scheme path refresh: the resident counter block at
        ``cb_address`` up to the root register.  Each ancestor's slot is
        stored by :meth:`_set_tree_slot`, so a resident ancestor is updated
        in its lane and only a missing one is fetched."""
        layout = self.layout
        arity = layout._tree_arity
        index = (cb_address - layout._counters_base) // CACHE_LINE_SIZE
        counters = self.counter_cache
        content = encode_counter(counters.sets[
            cb_address // CACHE_LINE_SIZE % counters.num_sets][cb_address])
        digest = self.mac.digest_mac
        set_tree_slot = self._set_tree_slot
        for level in range(1, layout.num_tree_levels + 1):
            content = set_tree_slot(
                level, index // arity, index % arity,
                digest(_TREE_UPDATE, content, domain=_NODE))
            index //= arity
        self.root_mac = digest(_TREE_UPDATE, content, domain=_NODE)

    # ------------------------------------------------------------------
    # Data MAC blocks
    # ------------------------------------------------------------------

    def _fetch_mac_block(self, data_address: int) \
            -> tuple[dict[int, bytes], int, bytes]:
        """The MAC block over a validated data address, as its lane set,
        its address and its value.  One probe: a hit pops the block (the
        caller's store reinserts it as MRU, the LRU touch); a fill (victim
        buffer first, then NVM) installs it as MRU (the caller's store
        replaces it in place)."""
        mb_address = self.layout.mac_block_address(data_address)
        cache = self.mac_cache
        cache_set = cache.sets[mb_address // CACHE_LINE_SIZE % cache.num_sets]
        block = cache_set.pop(mb_address, None)
        if block is not None:
            cache.hits += 1
            return cache_set, mb_address, block
        cache.misses += 1
        buffered = self._victims.pop(mb_address, None)
        if buffered is not None:
            block = buffered[0]
            self._install(cache, mb_address, block, "mac", dirty=True)
        else:
            block = self.nvm.read(mb_address, _READ_MAC)
            self._install(cache, mb_address, block, "mac")
        return cache_set, mb_address, block

    def _store_data_mac(self, data_address: int, mac_value: bytes) -> None:
        cache_set, mb_address, block = self._fetch_mac_block(data_address)
        offset = data_address // CACHE_LINE_SIZE % MACS_PER_BLOCK * MAC_SIZE
        cache_set[mb_address] = (block[:offset] + mac_value
                                 + block[offset + MAC_SIZE:])
        self.mac_cache.dirty.add(mb_address)

    def _load_data_mac(self, data_address: int) -> bytes:
        cache_set, mb_address, block = self._fetch_mac_block(data_address)
        cache_set[mb_address] = block
        offset = data_address // CACHE_LINE_SIZE % MACS_PER_BLOCK * MAC_SIZE
        return block[offset:offset + MAC_SIZE]

    # ------------------------------------------------------------------
    # Victim buffer
    # ------------------------------------------------------------------

    def _install(self, cache: SetAssociativeCache, address: int,
                 value: int | bytes, kind: str, dirty: bool = False) -> None:
        """Install a line as MRU in its lane: a resident line is replaced
        in place, a full set evicts its LRU line, and a dirty victim parks
        in the buffer as its wire form."""
        cache_set = cache.sets[address // CACHE_LINE_SIZE % cache.num_sets]
        if address in cache_set:
            del cache_set[address]
        elif len(cache_set) >= cache.ways:
            victim = next(iter(cache_set))
            victim_value = cache_set.pop(victim)
            if victim in cache.dirty:
                cache.dirty.remove(victim)
                if kind == "counter":
                    victim_value = encode_counter(victim_value)
                self._victims[victim] = (victim_value, kind)
        cache_set[address] = value
        if dirty:
            cache.dirty.add(address)
        else:
            cache.dirty.discard(address)

    def drain_victims(self, kinds: tuple[str, ...] | None = None) -> None:
        """Write out parked victims (may cascade; runs to a fixed point).

        A counter or tree victim's writeback first refreshes its parent's
        slot under the lazy scheme (the root register for the top node),
        then writes the victim home; a MAC victim is written home.

        ``kinds`` restricts the drain to victims of the named kinds
        (``"counter"`` / ``"tree"`` / ``"mac"``), preserving FIFO order
        among the matching entries.  The batched run-time path uses this to
        drain counter/tree victims during its counter phase and MAC victims
        during its MAC phase — each at the same point of its region's
        access stream as the scalar path's end-of-op drain, which is what
        keeps metadata-cache accounting identical.  Draining one kind can
        park victims of another (a counter writeback touches the tree
        cache); the loop re-scans until no matching victim remains.
        """
        victims = self._victims
        if not victims or self._draining_victims:
            return
        self._draining_victims = True
        lazy = self.scheme.needs_parent_update_on_writeback()
        layout = self.layout
        write = self.nvm.write
        try:
            while victims:
                if kinds is None:
                    address, entry = victims.popitem(last=False)
                else:
                    # The phase-confined drains only ever park victims of
                    # the kinds they drain, so the FIFO head almost always
                    # matches; scan only when it does not.
                    address, entry = next(iter(victims.items()))
                    if entry[1] in kinds:
                        del victims[address]
                    else:
                        address = next(
                            (addr for addr, (_, k) in victims.items()
                             if k in kinds), None)
                        if address is None:
                            return
                        entry = victims.pop(address)
                content, kind = entry
                if kind == "mac":
                    write(address, content, _WRITE_MAC)
                    continue
                if kind == "counter":
                    level = 0
                    child = ((address - layout._counters_base)
                             // CACHE_LINE_SIZE)
                    write_kind = _WRITE_COUNTER
                else:
                    bases = layout._tree_level_bases
                    level = bisect_right(bases, address)
                    child = (address - bases[level - 1]) // CACHE_LINE_SIZE
                    write_kind = _WRITE_TREE
                if lazy:
                    new_mac = self.mac.digest_mac(_TREE_UPDATE, content,
                                                  domain=_NODE)
                    if level == layout.num_tree_levels:
                        self.root_mac = new_mac
                    else:
                        arity = layout._tree_arity
                        self._set_tree_slot(level + 1, child // arity,
                                            child % arity, new_mac)
                write(address, content, write_kind)
        finally:
            self._draining_victims = False

    # ------------------------------------------------------------------
    # Page re-encryption on minor-counter overflow
    # ------------------------------------------------------------------

    def _reencrypt_page(self, address: int, old: int, new: int,
                        skip_slot: int) -> None:
        """Minor overflow bumped the major: re-encrypt the whole 4 KiB page
        from the ``old`` block's counters to the ``new`` block's."""
        page_base = address - (address % COUNTER_BLOCK_COVERAGE)
        for slot in range(64):
            line_address = page_base + slot * CACHE_LINE_SIZE
            if slot == skip_slot or not self.nvm.backend.is_written(line_address):
                continue
            ciphertext = self.nvm.read(line_address, ReadKind.DATA)
            plaintext = self.aes.decrypt(
                line_address, counter_for(old, slot), ciphertext)
            counter = counter_for(new, slot)
            new_ct = self.aes.encrypt(line_address, counter, plaintext)
            mac_value = self.mac.block_mac(
                MacKind.DATA_PROTECT, new_ct, line_address, counter,
                domain=MacDomain.DATA)
            self._store_data_mac(line_address, mac_value)
            self.nvm.write(line_address, new_ct, WriteKind.DATA)

    # ------------------------------------------------------------------
    # Drain / recovery support
    # ------------------------------------------------------------------

    @property
    def metadata_caches(self) -> tuple[SetAssociativeCache, ...]:
        return (self.counter_cache, self.tree_cache, self.mac_cache)

    def metadata_lines(self, cache: SetAssociativeCache) -> Iterator[Line]:
        """``cache``'s resident lines as ``(address, 64 B wire form,
        dirty)``, in set order then LRU order (counter blocks encoded)."""
        if cache is not self.counter_cache:
            return cache.lines()
        return ((address, encode_counter(block), dirty)
                for address, block, dirty in cache.lines())

    def flush_metadata(self) -> None:
        """Drain-time step 2 (scheme-specific)."""
        self.drain_victims()
        self.scheme.flush_metadata(self)

    def drop_volatile_state(self) -> None:
        """Model a crash: all metadata caches lose their content.

        On-chip *persistent* registers (tree root, cache-tree root, drain
        counters held by the Horus engine) survive by definition.
        """
        for cache in self.metadata_caches:
            cache.clear()
        self._victims.clear()

    def restore_metadata_line(self, address: int, content: bytes) -> None:
        """Recovery hook: re-install a verified metadata block, dirty, in
        its cache."""
        region = self.layout.classify(address)
        value: int | bytes = content
        if region == "counters":
            cache = self.counter_cache
            value = decode_counter(content)
        elif region == "tree":
            cache = self.tree_cache
        elif region == "macs":
            cache = self.mac_cache
        else:
            raise ConfigError(
                f"{address:#x} ({region}) is not a metadata address")
        victim = cache.insert(address, value, dirty=True)
        if victim is not None and victim[2]:
            raise ConfigError("metadata restore must not evict dirty lines")


def _meta_cache_config(name: str, size: int, ways: int) -> CacheConfig:
    if ways < 2:
        raise ConfigError(f"{name} needs at least 2 ways for safe evictions")
    return CacheConfig(name, size, ways, latency_cycles=1)
