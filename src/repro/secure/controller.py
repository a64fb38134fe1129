"""The run-time secure memory controller.

Implements counter-mode encryption with split counters, per-block data MACs,
and a sparse 8-ary Bonsai Merkle Tree over the counter blocks — the secure
NVM stack of Section II — together with the three security-metadata caches of
Table I and a pluggable integrity-tree update scheme (eager / lazy).

Baseline secure EPD systems drain the cache hierarchy straight through this
controller's run-time write path (Section IV-B) — :meth:`write` per line, or
its batched form :meth:`run_ops_batch` — which is where the paper's 10.3x
memory-access explosion comes from: each flushed line drags its
address-specific metadata through the caches, and sparse contents turn nearly
every access into a miss plus a dirty eviction.
"""

from collections import OrderedDict

from repro.common.config import SystemConfig
from repro.common.constants import (
    CACHE_LINE_SIZE,
    COUNTER_BLOCK_COVERAGE,
    MAC_SIZE,
    MACS_PER_BLOCK,
    MINOR_COUNTER_BITS,
)
from repro.common.config import CacheConfig
from repro.common.errors import ConfigError, IntegrityError, ReproError
from repro.crypto.arena import frame_buffer
from repro.crypto.counters import SplitCounterBlock
from repro.crypto.engine import AesEngine, KeySchedule, MacEngine
from repro.crypto.primitives import MacDomain
from repro.mem.nvm import NvmDevice
from repro.mem.regions import MemoryLayout
from repro.metadata.cache import MetadataCache, MetaLine
from repro.metadata.nodes import DefaultNodes, TreeNode
from repro.secure.schemes import UpdateScheme, make_scheme
from repro.stats.counters import SimStats
from repro.stats.events import MacKind, ReadKind, WriteKind

_ZERO_BLOCK = bytes(CACHE_LINE_SIZE)
_MINOR_LIMIT = 1 << MINOR_COUNTER_BITS
_READ_MAC = ReadKind.MAC


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
        self.counter_cache = MetadataCache(
            _meta_cache_config("counter-cache", sec.counter_cache_size,
                               sec.counter_cache_ways))
        self.mac_cache = MetadataCache(
            _meta_cache_config("mac-cache", sec.mac_cache_size,
                               sec.mac_cache_ways))
        self.tree_cache = MetadataCache(
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
        self._victims: "OrderedDict[int, tuple[MetaLine, str]]" = OrderedDict()
        self._draining_victims = False
        self._writing_back: MetaLine | None = None
        """The victim :meth:`drain_victims` is writing back (or last wrote
        back): after a failed drain, the victim whose writeback raised."""

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
        a baseline secure drain.
        """
        self.layout.require_data_address(address)
        if self.op_hook is not None:
            self.op_hook("w", address)
        counter_line = self.get_counter_line(address)
        block: SplitCounterBlock = counter_line.value
        slot = self.layout.counter_slot(address)

        old_block = block.copy() if block.will_overflow(slot) else None
        overflowed = block.increment(slot)
        if overflowed:
            self._reencrypt_page(address, old_block, block, skip_slot=slot)

        counter = block.counter_for(slot)
        ciphertext = self.aes.encrypt(address, counter, plaintext)
        mac_value = self.mac.block_mac(
            MacKind.DATA_PROTECT, ciphertext, address, counter,
            domain=MacDomain.DATA)
        self._store_data_mac(address, mac_value)
        self.nvm.write(address, ciphertext, WriteKind.DATA)
        self.scheme.on_data_write(self, counter_line)
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
            return _ZERO_BLOCK
        counter_line = self.get_counter_line(address)
        slot = self.layout.counter_slot(address)
        counter = counter_line.value.counter_for(slot)

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

        Failures.  An exception raised in stage 1 — a counter-block or
        tree-node MAC mismatch, or a bad address — leaves exactly the
        scalar state: the ops stage 1 admitted before it run through
        stages 2-5, then the error propagates.  A write-only segment (a
        baseline drain chunk) therefore fails exactly as the per-line
        :meth:`write` loop does: same exception, NVM image, stats,
        metadata caches and victim buffer.  A data-MAC mismatch found by
        stage 5's read verification raises the same
        :class:`IntegrityError` as scalar, but the segment's later ops
        have already run stages 1-4, so their counters and metadata state
        may differ from scalar.
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
        results = [None] * len(ops)
        fetched: list[bytes | None] | None = [] if fetches else None
        start = 0
        while start < len(ops):
            start = self._run_segment(ops, start, results, fetched)
        return fetched if fetched is not None else results

    def _run_segment(self, ops: "list[tuple[str, int, bytes | None]]",
                     start: int, results: list[bytes | None],
                     fetched: "list[bytes | None] | None" = None) -> int:
        """Execute one overflow-free segment of ``ops`` starting at
        ``start``; returns the index of the first unprocessed op."""
        layout = self.layout
        counter_block_address = layout.counter_block_address
        counter_cache = self.counter_cache
        # The counter/MAC phases below transcribe MetadataCache.lookup /
        # insert, _absorb_victim, and NvmDevice.read inline against the
        # cache's set dicts: same probes, same LRU movement, same victim
        # parking, same stats events — minus the per-access call chain,
        # which dominates the memory-side profile of epoch replay.
        ctr_sets = counter_cache._sets
        ctr_ns = counter_cache._num_sets
        ctr_base = layout._counters_base
        ctr_end = layout._counters_end
        data_size = layout._data_size
        ctr_hits = ctr_misses = 0
        fill_counter = self._fill_counter_line
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
        # Failure bookkeeping for _settle_failed_op: the last op to reach
        # a step scalar issue runs after the op's MAC access (a write's
        # scheme hook and victim drain, a read's victim drain), the victims
        # parked before that step, and whether the drain had started.
        admitted = -1
        parked: tuple[tuple[MetaLine, str], ...] = ()
        draining = False
        try:
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
                    ctr_set = ctr_sets[cb_address // CACHE_LINE_SIZE % ctr_ns]
                    counter_line = ctr_set.get(cb_address)
                    if counter_line is None:
                        ctr_misses += 1
                        counter_line = fill_counter(cb_address)
                    else:
                        ctr_hits += 1
                        ctr_set[cb_address] = ctr_set.pop(cb_address)
                    block: SplitCounterBlock = counter_line.value
                    slot = (address % COUNTER_BLOCK_COVERAGE) \
                        // CACHE_LINE_SIZE
                    # Inline of will_overflow/increment/counter_for for the
                    # non-overflow case — the only one that stays in the
                    # batch (the break leaves the block untouched for the
                    # scalar overflow tail below, exactly like
                    # will_overflow would).
                    minors = block.minors
                    minor = minors[slot] + 1
                    if minor >= _MINOR_LIMIT:
                        overflow = index
                        break
                    minors[slot] = minor
                    w_addrs(address)
                    w_ctrs((block.major << MINOR_COUNTER_BITS) | minor)
                    w_data(data)  # type: ignore[arg-type]
                    pending_add(address)
                    dp(index)
                    parked = tuple(victims.values()) if victims else ()
                    admitted, draining = index, False
                    on_data_write(self, counter_line)
                    if victims:
                        draining = True
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
                        counter_line = ctr_set.get(cb_address)
                        if counter_line is None:
                            ctr_misses += 1
                            counter_line = fill_counter(cb_address)
                        else:
                            ctr_hits += 1
                            ctr_set[cb_address] = ctr_set.pop(cb_address)
                        rblock = counter_line.value
                        r_ops(index)
                        r_addrs(address)
                        r_ctrs((rblock.major << MINOR_COUNTER_BITS)
                               | rblock.minors[(address
                                                % COUNTER_BLOCK_COVERAGE)
                                               // CACHE_LINE_SIZE])
                        if victims:
                            parked = tuple(victims.values())
                            admitted, draining = index, True
                            drain(meta_kinds)
                    else:
                        # Never-written memory reads as zeros with nothing
                        # to verify — the scalar path touches no metadata
                        # either.
                        z_reads(index)
                index += 1
        except ReproError:
            # Scalar issue stops at the failing op (a counter-block or
            # tree-node MAC mismatch, a bad address) with every earlier op
            # complete: finish the ops this phase admitted, then re-raise.
            held = admitted == index
            failed_victim = self._writing_back if held and draining else None
            if not held and data_phase and data_phase[-1] == ~index:
                # A read whose counter fetch failed: scalar issue had
                # already read its data block, and touched no MAC yet.
                zero_reads.append(index)
            self._complete_segment(ops, data_phase, write_addrs, write_ctrs,
                                   write_data, read_ops, read_addrs,
                                   read_ctrs, zero_reads, results, fetched,
                                   hold_last=held)
            if held:
                self._settle_failed_op(parked, failed_victim)
            raise
        finally:
            counter_cache.hits += ctr_hits
            counter_cache.misses += ctr_misses

        self._complete_segment(ops, data_phase, write_addrs, write_ctrs,
                               write_data, read_ops, read_addrs, read_ctrs,
                               zero_reads, results, fetched)

        if overflow < 0:
            return n

        # Finish the overflowing write on the scalar path, reusing the
        # counter access stage 1 already performed for it (a scalar run
        # fetches exactly once too); its parked victims drain at the end,
        # as the scalar end-of-op drain would.
        _, address, data = ops[overflow]
        old_block = block.copy()
        block.increment(slot)
        self._reencrypt_page(address, old_block, block, skip_slot=slot)
        counter = block.counter_for(slot)
        overflow_ct = self.aes.encrypt(address, counter, data)
        mac_value = self.mac.block_mac(
            MacKind.DATA_PROTECT, overflow_ct, address, counter,
            domain=MacDomain.DATA)
        self._store_data_mac(address, mac_value)
        self.nvm.write(address, overflow_ct, WriteKind.DATA)
        self.scheme.on_data_write(self, counter_line)
        self.drain_victims()
        return overflow + 1

    def _complete_segment(self, ops: "list[tuple[str, int, bytes | None]]",
                          data_phase: list[int], write_addrs: list[int],
                          write_ctrs: list[int], write_data: list[bytes],
                          read_ops: list[int], read_addrs: list[int],
                          read_ctrs: list[int], zero_reads: list[int],
                          results: list[bytes | None],
                          fetched: "list[bytes | None] | None",
                          hold_last: bool = False) -> None:
        """Stages 2-5 of :meth:`_run_segment` for the ops its counter phase
        admitted (``data_phase`` holds them in op order).

        ``hold_last`` skips the MAC-victim drain after the last op, whose
        own scalar end-of-op drain failed (:meth:`_settle_failed_op`)."""
        layout = self.layout
        nvm = self.nvm
        victims = self._victims
        drain = self.drain_victims

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
                    block = pending.get(ops[op_index][1])
                    if block is None:
                        backend_reads.append(op_index)
                    else:
                        read_blocks[op_index] = block
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
        # stream).
        stored_macs: list[bytes] = []
        mac_kind = ("mac",)
        mac_block_address = layout.mac_block_address
        mac_cache = self.mac_cache
        mac_sets = mac_cache._sets
        mac_ns = mac_cache._num_sets
        mac_ways = mac_cache._ways
        macs_base = layout._macs_base
        macs_end = layout._macs_end
        mac_span = CACHE_LINE_SIZE * MACS_PER_BLOCK
        mac_hits = mac_misses = mac_reads = 0
        backend_read = nvm.backend.read_block
        new_meta = MetaLine.__new__
        stored_append = stored_macs.append
        wpos = 0
        zpos = 0
        num_zero = len(zero_reads)
        held = data_phase[-1] if hold_last else None
        try:
            for entry in data_phase:
                if entry >= 0:
                    address = ops[entry][1]
                    mac_value = write_macs[wpos]
                    wpos += 1
                else:
                    op_index = ~entry
                    # Zero reads touch no MAC state (scalar returns before
                    # the MAC load); both streams are op-ordered, so one
                    # cursor suffices to skip them.
                    if zpos < num_zero and zero_reads[zpos] == op_index:
                        zpos += 1
                        continue
                    address = ops[op_index][1]
                    mac_value = None
                mb_address = macs_base + address // mac_span \
                    * CACHE_LINE_SIZE
                if mb_address >= macs_end:
                    # Cold path: region-tail handling (addresses were
                    # validated in the counter phase).
                    mb_address = mac_block_address(address)
                mac_set = mac_sets[mb_address // CACHE_LINE_SIZE % mac_ns]
                mac_line = mac_set.get(mb_address)
                if mac_line is None:
                    mac_misses += 1
                    buffered = victims.pop(mb_address, None)
                    if buffered is not None:
                        mac_line = buffered[0]
                    else:
                        mac_reads += 1
                        mac_line = new_meta(MetaLine)
                        mac_line.address = mb_address
                        mac_line.value = bytearray(backend_read(mb_address))
                        mac_line.dirty = False
                    if len(mac_set) >= mac_ways:
                        victim = mac_set.pop(next(iter(mac_set)))
                        if victim.dirty:
                            victims[victim.address] = (victim, "mac")
                    mac_set[mb_address] = mac_line
                else:
                    mac_hits += 1
                    mac_set[mb_address] = mac_set.pop(mb_address)
                offset = (address // CACHE_LINE_SIZE) % MACS_PER_BLOCK \
                    * MAC_SIZE
                if mac_value is not None:
                    mac_line.value[offset:offset + MAC_SIZE] = mac_value
                    mac_line.dirty = True
                else:
                    stored_append(
                        bytes(mac_line.value[offset:offset + MAC_SIZE]))
                if victims and entry != held:
                    drain(mac_kind)
        finally:
            mac_cache.hits += mac_hits
            mac_cache.misses += mac_misses
            # Fold the per-fill MAC-region reads into one stats bump —
            # SimStats is pure counting, so the fold is unobservable.
            nvm.stats.record_read(_READ_MAC, mac_reads)

        # Stage 5 — batched verify + decrypt for the segment's reads.
        if read_ops:
            read_ct = b"".join(read_blocks[op_index] for op_index in read_ops)
            actual_macs = self.mac.block_mac_batch(
                MacKind.VERIFY, read_ct, read_addrs, read_ctrs,
                domain=MacDomain.DATA)
            for stored, address, actual in zip(stored_macs, read_addrs,
                                               actual_macs):
                if stored != actual:
                    raise IntegrityError(
                        f"data MAC mismatch at {address:#x}", address)
            plaintext = self.aes.decrypt_batch(read_addrs, read_ctrs, read_ct)
            for pos, op_index in enumerate(read_ops):
                results[op_index] = plaintext[pos * CACHE_LINE_SIZE:
                                              (pos + 1) * CACHE_LINE_SIZE]
        for op_index in zero_reads:
            results[op_index] = _ZERO_BLOCK
        if fetched is not None:
            # The segment's reads, in op order (negative data_phase
            # entries), appended to the caller's fill-aligned stream.
            fetched.extend(results[~entry] for entry in data_phase
                           if entry < 0)

    def _settle_failed_op(self, parked: "tuple[tuple[MetaLine, str], ...]",
                          failed_victim: MetaLine | None) -> None:
        """Leave the failed op's data-MAC victim where scalar issue would.

        Scalar issue makes an op's MAC-cache access before its scheme hook
        and end-of-op drain; the batched counter phase ran those first, so
        the victim that access parked (if any) is still at the buffer's
        tail.  If the drain failed (``failed_victim`` is the victim whose
        writeback raised) on a victim parked after the access, scalar issue
        had already written the MAC victim out; otherwise it sits right
        behind the victims parked before the access (``parked``).
        """
        victims = self._victims
        if failed_victim is not None and not any(
                line is failed_victim for line, _ in parked):
            self.drain_victims(("mac",))
            return
        ahead = {id(entry) for entry in parked}
        for address, entry in list(victims.items()):
            if id(entry) not in ahead and entry[1] != "mac":
                victims.move_to_end(address)

    # ------------------------------------------------------------------
    # Counter blocks
    # ------------------------------------------------------------------

    def get_counter_line(self, data_address: int) -> MetaLine:
        """Counter block for ``data_address``, verified and cached."""
        cb_address = self.layout.counter_block_address(data_address)
        line = self.counter_cache.lookup(cb_address)
        if line is not None:
            return line
        return self._fill_counter_line(cb_address)

    def _fill_counter_line(self, cb_address: int) -> MetaLine:
        """Miss path of :meth:`get_counter_line`: the cache lookup (and its
        hit/miss accounting) has already happened."""
        buffered = self._absorb_victim(cb_address)
        if buffered is not None:
            self._cache_insert(self.counter_cache, buffered, "counter")
            return buffered

        raw = self.nvm.read(cb_address, ReadKind.COUNTER)
        actual = self.mac.digest_mac(MacKind.VERIFY, raw,
                                     domain=MacDomain.NODE)
        expected = self._counter_slot_mac(cb_address)
        if actual != expected:
            raise IntegrityError(
                f"counter block MAC mismatch at {cb_address:#x}", cb_address)

        line = MetaLine(cb_address, SplitCounterBlock.from_bytes(raw))
        self._cache_insert(self.counter_cache, line, "counter")
        return line

    def _counter_slot_mac(self, cb_address: int) -> bytes:
        level, index, slot = self.layout.parent_of_counter_block(cb_address)
        parent = self.get_tree_node(level, index)
        return parent.value.get_slot(slot)

    def _writeback_counter(self, line: MetaLine) -> None:
        if self.scheme.needs_parent_update_on_writeback():
            content = line.value.to_bytes()
            new_mac = self.mac.digest_mac(MacKind.TREE_UPDATE, content,
                                          domain=MacDomain.NODE)
            level, index, slot = self.layout.parent_of_counter_block(
                line.address)
            parent = self.get_tree_node(level, index)
            parent.value.set_slot(slot, new_mac)
            parent.dirty = True
            self.nvm.write(line.address, content, WriteKind.COUNTER)
        else:
            self.nvm.write(line.address, line.value.to_bytes(),
                           WriteKind.COUNTER)

    # ------------------------------------------------------------------
    # Tree nodes
    # ------------------------------------------------------------------

    def get_tree_node(self, level: int, index: int) -> MetaLine:
        """Tree node (level, index), verified against its ancestors."""
        address = self.layout.tree_node_address(level, index)
        line = self.tree_cache.lookup(address)
        if line is not None:
            return line

        buffered = self._absorb_victim(address)
        if buffered is not None:
            self._cache_insert(self.tree_cache, buffered, "tree")
            return buffered

        raw = self.nvm.read(address, ReadKind.TREE_NODE)
        if not self.nvm.backend.is_written(address):
            raw = self._defaults.content(level)
        actual = self.mac.digest_mac(MacKind.VERIFY, raw,
                                     domain=MacDomain.NODE)
        expected = self._node_parent_mac(level, index)
        if actual != expected:
            raise IntegrityError(
                f"tree node ({level},{index}) MAC mismatch", address)

        line = MetaLine(address, TreeNode(raw))
        self._cache_insert(self.tree_cache, line, "tree")
        return line

    def _node_parent_mac(self, level: int, index: int) -> bytes:
        if level == self.layout.num_tree_levels:
            return self.root_mac
        plevel, pindex, slot = self.layout.parent_of_tree_node(level, index)
        parent = self.get_tree_node(plevel, pindex)
        return parent.value.get_slot(slot)

    def _writeback_tree_node(self, line: MetaLine) -> None:
        level, index = self.layout.tree_node_coords(line.address)
        content = line.value.to_bytes()
        if self.scheme.needs_parent_update_on_writeback():
            new_mac = self.mac.digest_mac(MacKind.TREE_UPDATE, content,
                                          domain=MacDomain.NODE)
            if level == self.layout.num_tree_levels:
                self.root_mac = new_mac
            else:
                plevel, pindex, slot = self.layout.parent_of_tree_node(
                    level, index)
                parent = self.get_tree_node(plevel, pindex)
                parent.value.set_slot(slot, new_mac)
                parent.dirty = True
        self.nvm.write(line.address, content, WriteKind.TREE_NODE)

    def propagate_to_root(self, counter_line: MetaLine) -> None:
        """Eager-scheme path refresh: counter block up to the root register."""
        content_mac = self.mac.digest_mac(
            MacKind.TREE_UPDATE, counter_line.value.to_bytes(),
            domain=MacDomain.NODE)
        level, index, slot = self.layout.parent_of_counter_block(
            counter_line.address)
        while True:
            node = self.get_tree_node(level, index)
            node.value.set_slot(slot, content_mac)
            node.dirty = True
            content_mac = self.mac.digest_mac(
                MacKind.TREE_UPDATE, node.value.to_bytes(),
                domain=MacDomain.NODE)
            if level == self.layout.num_tree_levels:
                self.root_mac = content_mac
                return
            level, index, slot = self.layout.parent_of_tree_node(level, index)

    # ------------------------------------------------------------------
    # Data MAC blocks
    # ------------------------------------------------------------------

    def _get_mac_line(self, data_address: int) -> MetaLine:
        mb_address = self.layout.mac_block_address(data_address)
        line = self.mac_cache.lookup(mb_address)
        if line is not None:
            return line
        return self._fill_mac_line(mb_address)

    def _fill_mac_line(self, mb_address: int) -> MetaLine:
        """Miss path of :meth:`_get_mac_line` (lookup already accounted)."""
        buffered = self._absorb_victim(mb_address)
        if buffered is not None:
            self._cache_insert(self.mac_cache, buffered, "mac")
            return buffered

        raw = self.nvm.read(mb_address, ReadKind.MAC)
        line = MetaLine(mb_address, bytearray(raw))
        self._cache_insert(self.mac_cache, line, "mac")
        return line

    def _store_data_mac(self, data_address: int, mac_value: bytes) -> None:
        line = self._get_mac_line(data_address)
        slot = self.layout.mac_slot(data_address)
        line.value[slot * MAC_SIZE:(slot + 1) * MAC_SIZE] = mac_value
        line.dirty = True

    def _load_data_mac(self, data_address: int) -> bytes:
        line = self._get_mac_line(data_address)
        slot = self.layout.mac_slot(data_address)
        return bytes(line.value[slot * MAC_SIZE:(slot + 1) * MAC_SIZE])

    # ------------------------------------------------------------------
    # Victim buffer
    # ------------------------------------------------------------------

    def _cache_insert(self, cache: MetadataCache, line: MetaLine,
                      kind: str) -> None:
        """Insert into a metadata cache; dirty victims park in the buffer."""
        victim = cache.insert(line)
        if victim is not None and victim.dirty:
            self._victims[victim.address] = (victim, kind)

    def _absorb_victim(self, address: int) -> MetaLine | None:
        """A lookup hit in the victim buffer: reclaim the line unwritten.

        The buffered copy is the newest version of the block; pulling it back
        avoids both the NVM round-trip and the stale-fetch hazard.  No
        verification is needed — it never left the TCB.
        """
        entry = self._victims.pop(address, None)
        return entry[0] if entry is not None else None

    def drain_victims(self, kinds: tuple[str, ...] | None = None) -> None:
        """Write out parked victims (may cascade; runs to a fixed point).

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
        if not self._victims or self._draining_victims:
            return
        self._draining_victims = True
        try:
            while self._victims:
                if kinds is None:
                    _, (line, kind) = self._victims.popitem(last=False)
                else:
                    # The phase-confined drains only ever park victims of
                    # the kinds they drain, so the FIFO head almost always
                    # matches; scan only when it does not.
                    address, (line, kind) = next(iter(self._victims.items()))
                    if kind in kinds:
                        del self._victims[address]
                    else:
                        found = next(
                            (addr for addr, (_, k) in self._victims.items()
                             if k in kinds), None)
                        if found is None:
                            return
                        line, kind = self._victims.pop(found)
                self._writing_back = line
                if kind == "counter":
                    self._writeback_counter(line)
                elif kind == "tree":
                    self._writeback_tree_node(line)
                else:
                    self.nvm.write(line.address, bytes(line.value),
                                   WriteKind.DATA_MAC)
        finally:
            self._draining_victims = False

    # ------------------------------------------------------------------
    # Page re-encryption on minor-counter overflow
    # ------------------------------------------------------------------

    def _reencrypt_page(self, address: int, old: SplitCounterBlock | None,
                        new: SplitCounterBlock, skip_slot: int) -> None:
        """Minor overflow bumped the major: re-encrypt the whole 4 KiB page."""
        if old is None:
            raise ConfigError("overflow without captured old counters")
        page_base = address - (address % COUNTER_BLOCK_COVERAGE)
        for slot in range(64):
            line_address = page_base + slot * CACHE_LINE_SIZE
            if slot == skip_slot or not self.nvm.backend.is_written(line_address):
                continue
            ciphertext = self.nvm.read(line_address, ReadKind.DATA)
            plaintext = self.aes.decrypt(
                line_address, old.counter_for(slot), ciphertext)
            new_ct = self.aes.encrypt(
                line_address, new.counter_for(slot), plaintext)
            mac_value = self.mac.block_mac(
                MacKind.DATA_PROTECT, new_ct, line_address,
                new.counter_for(slot), domain=MacDomain.DATA)
            self._store_data_mac(line_address, mac_value)
            self.nvm.write(line_address, new_ct, WriteKind.DATA)

    # ------------------------------------------------------------------
    # Drain / recovery support
    # ------------------------------------------------------------------

    @property
    def metadata_caches(self) -> tuple[MetadataCache, ...]:
        return (self.counter_cache, self.tree_cache, self.mac_cache)

    def flush_metadata(self) -> None:
        """Drain-time step 2 (scheme-specific)."""
        self.drain_victims()
        self.scheme.flush_metadata(self)

    def line_bytes(self, line: MetaLine) -> bytes:
        """Serialize any metadata-cache line value to its 64 B wire form."""
        value = line.value
        if isinstance(value, SplitCounterBlock):
            return value.to_bytes()
        if isinstance(value, TreeNode):
            return value.to_bytes()
        return bytes(value)

    def drop_volatile_state(self) -> None:
        """Model a crash: all metadata caches lose their content.

        On-chip *persistent* registers (tree root, cache-tree root, drain
        counters held by the Horus engine) survive by definition.
        """
        for cache in self.metadata_caches:
            cache.clear()
        self._victims.clear()

    def restore_metadata_line(self, address: int, content: bytes) -> None:
        """Recovery hook: re-install a verified metadata block in its cache."""
        region = self.layout.classify(address)
        if region == "counters":
            cache: MetadataCache = self.counter_cache
            value: object = SplitCounterBlock.from_bytes(content)
        elif region == "tree":
            cache = self.tree_cache
            value = TreeNode(content)
        elif region == "macs":
            cache = self.mac_cache
            value = bytearray(content)
        else:
            raise ConfigError(
                f"{address:#x} ({region}) is not a metadata address")
        victim = cache.insert(MetaLine(address, value, dirty=True))
        if victim is not None and victim.dirty:
            raise ConfigError("metadata restore must not evict dirty lines")


def _meta_cache_config(name: str, size: int, ways: int) -> CacheConfig:
    if ways < 2:
        raise ConfigError(f"{name} needs at least 2 ways for safe evictions")
    return CacheConfig(name, size, ways, latency_cycles=1)
