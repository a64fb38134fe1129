"""Three-level inclusive cache hierarchy.

Supports the two modes the paper exercises:

* **run-time mode** — ordinary ``read``/``write`` traffic with write-back,
  write-allocate, inclusive caching; LLC evictions call the supplied
  ``writeback`` handler (the secure memory controller) and misses call
  ``fetch``;
* **drain mode** — :meth:`fill_worst_case` populates every line of every
  level dirty (the EPD worst case the hold-up budget is sized for) and
  :meth:`drain_lines` enumerates the flush stream; the paper's flushed-block
  total (295,936 for Table I) is the sum of line counts over all levels, so
  inclusive duplicates are flushed once per level that holds them.

Every level keeps its state in the lane form of
:class:`~repro.cache.cache.SetAssociativeCache`; the scalar methods and the
fused :meth:`CacheHierarchy.replay_epoch` act on that one state.
"""

from collections import Counter
from collections.abc import Callable, Iterator
from itertools import chain
from typing import Any

from repro.cache.cache import MISS, SetAssociativeCache, decompose_sets
from repro.cache.fill import (
    PageAllocator,
    make_allocator,
    worst_case_addresses,
    worst_case_addresses_bulk,
)
from repro.common.config import SystemConfig
from repro.common.constants import CACHE_LINE_SIZE
from repro.common.errors import ConfigError
from repro.common.rng import Rng, make_rng
from repro.crypto.arena import tile_u64

FetchFn = Callable[[int], bytes]
WritebackFn = Callable[[int, bytes], None]


def _pattern_data(address: int) -> bytes:
    """Deterministic, address-unique 64 B payload for fills and tests."""
    return (address & ((1 << 64) - 1)).to_bytes(8, "little") * 8


class PendingFill:
    """Marker payload for a line whose fetch is deferred to epoch end.

    The fused epoch pass (:meth:`CacheHierarchy.replay_epoch`) installs one
    of these wherever the scalar pass would install freshly fetched data;
    :meth:`CacheHierarchy.resolve_pending` swaps in the real payloads once
    the memory side has executed the epoch's batched fetch stream.  Object
    identity (not value) ties a marker to its fetch — the hierarchy never
    branches on payload contents, so deferring them changes nothing else.
    """

    __slots__ = ("address",)

    def __init__(self, address: int):
        self.address = address

    def __repr__(self) -> str:
        return f"PendingFill({self.address:#x})"


class CacheHierarchy:
    """L1 / L2 / LLC hierarchy, inclusive (default) or non-inclusive.

    Commercial EPD systems support both (the paper notes eADR "already
    supports flushing all caches in non-inclusive LLC systems"); the drain
    worst case differs — inclusive hierarchies flush duplicated copies,
    non-inclusive ones flush one copy of more distinct lines — and Horus
    recovery option 2 (writeback) is the recommended mode for non-inclusive
    LLCs, whose capacity cannot hold the whole recovered hierarchy.
    """

    def __init__(self, config: SystemConfig, functional: bool = True,
                 inclusive: bool = True):
        self._config = config
        self._functional = functional
        self.inclusive = inclusive
        self.l1 = SetAssociativeCache(config.l1)
        self.l2 = SetAssociativeCache(config.l2)
        self.llc = SetAssociativeCache(config.llc)
        self.fetch: FetchFn | None = None
        self.writeback: WritebackFn | None = None
        self.access_counts: Counter[str] = Counter()
        """Where run-time accesses were served: 'l1' / 'l2' / 'llc' /
        'miss'.  Consumed by the run-time performance model."""

    @property
    def levels(self) -> tuple[SetAssociativeCache, ...]:
        return (self.l1, self.l2, self.llc)

    def __len__(self) -> int:
        return sum(len(level) for level in self.levels)

    def dirty_line_count(self) -> int:
        return sum(len(level.dirty) for level in self.levels)

    # ------------------------------------------------------------------
    # Drain-mode support
    # ------------------------------------------------------------------

    def fill_worst_case(self, seed: int | None = None,
                        batched: bool = True) -> int:
        """Populate every line of every level dirty, worst-case sparse.

        Inclusive: the LLC receives a full honest fill (every set, every way)
        with each line in its own 4 KiB counter page; L1 and L2 are filled
        with subsets of the LLC's addresses (preserving inclusion) greedily
        by their own set mapping.  Non-inclusive: every level receives its
        own full fill of *distinct* addresses (one shared page allocator
        keeps counter pages unique hierarchy-wide).  Returns the number of
        lines installed.

        ``batched`` (the default) selects a fast path that performs the
        same inserts through direct lane operations — same allocator, same
        shuffle, same final lines, LRU orders and statistics, minus the
        per-line method overhead that dominates paper-scale episode setup.
        """
        self.invalidate_all()
        allocator = make_allocator(self._config)
        rng = make_rng(seed)
        if batched:
            return self._fill_worst_case_batched(allocator, rng)

        if not self.inclusive:
            for level in self.levels:
                addresses = list(worst_case_addresses(level.config, allocator))
                rng.shuffle(addresses)
                for address in addresses:
                    data = _pattern_data(address) if self._functional else None
                    if level.insert(address, data, dirty=True) is not None:
                        raise ConfigError(
                            "worst-case fill must not evict")
            return len(self)

        llc_addresses = list(worst_case_addresses(self._config.llc, allocator))
        rng.shuffle(llc_addresses)

        for address in llc_addresses:
            data = _pattern_data(address) if self._functional else None
            if self.llc.insert(address, data, dirty=True) is not None:
                raise ConfigError("worst-case fill must not evict from LLC")

        for upper in (self.l2, self.l1):
            remaining = upper.config.num_lines
            for address in llc_addresses:
                if remaining == 0:
                    break
                if upper.set_occupancy(upper.set_index(address)) >= upper.config.ways:
                    continue
                if upper.contains(address):
                    continue
                data = _pattern_data(address) if self._functional else None
                upper.insert(address, data, dirty=True)
                remaining -= 1

        return len(self)

    def _fill_worst_case_batched(self, allocator: PageAllocator,
                                 rng: Rng) -> int:
        """The :meth:`fill_worst_case` fast path: identical address streams
        (same allocator draws, same shuffles) installed with direct lane
        operations instead of per-line :meth:`SetAssociativeCache.insert`
        calls.  Insert semantics are transcribed exactly — duplicates
        replace in place and refresh LRU; a full set raises after evicting,
        as the scalar insert would."""
        functional = self._functional

        def bulk_insert(level: SetAssociativeCache,
                        addresses: list[int], message: str) -> None:
            sets = level.sets
            line_size = level.line_size
            num_sets = level.num_sets
            ways = level.ways
            # Every line goes in dirty.  The dirty lane is built before the
            # payload buffer, so its large table does not sit above that
            # short-lived buffer on the heap and pin it there.
            level.dirty.update(addresses)
            # One tiled buffer holds every pattern payload; per-line bytes
            # are single slices instead of to_bytes + repeat round-trips.
            payloads = tile_u64(addresses, 8) if functional else None
            offset = 0
            for address in addresses:
                data = payloads[offset:offset + 64] \
                    if payloads is not None else None
                offset += 64
                cache_set = sets[(address // line_size) % num_sets]
                if address in cache_set:
                    del cache_set[address]
                elif len(cache_set) >= ways:
                    del cache_set[next(iter(cache_set))]
                    cache_set[address] = data
                    # The level was empty, so exactly its resident lines
                    # are dirty when the scalar insert would stop.
                    level.dirty.intersection_update(
                        chain.from_iterable(sets))
                    raise ConfigError(message)
                cache_set[address] = data

        if not self.inclusive:
            for level in self.levels:
                addresses = worst_case_addresses_bulk(level.config, allocator)
                rng.shuffle(addresses)
                bulk_insert(level, addresses, "worst-case fill must not evict")
            return len(self)

        llc_addresses = worst_case_addresses_bulk(self._config.llc, allocator)
        rng.shuffle(llc_addresses)
        bulk_insert(self.llc, llc_addresses,
                    "worst-case fill must not evict from LLC")

        for upper in (self.l2, self.l1):
            sets = upper.sets
            dirty_add = upper.dirty.add
            line_size = upper.line_size
            num_sets = upper.num_sets
            ways = upper.ways
            remaining = upper.config.num_lines
            for address in llc_addresses:
                if remaining == 0:
                    break
                cache_set = sets[(address // line_size) % num_sets]
                if len(cache_set) >= ways or address in cache_set:
                    continue
                cache_set[address] = \
                    _pattern_data(address) if functional else None
                dirty_add(address)
                remaining -= 1

        return len(self)

    def fill_sequential(self, base: int = 0) -> int:
        """Populate every line dirty with a *contiguous* footprint.

        The locality best case: 64 consecutive lines share each counter
        block, maximizing metadata-cache hit rates during a baseline drain.
        Used by the spatial-locality ablation as the opposite pole of
        :meth:`fill_worst_case`.
        """
        self.invalidate_all()
        addresses = []
        for i in range(self._config.llc.num_lines):
            addresses.append(base + i * self._config.llc.line_size)
        for address in addresses:
            data = _pattern_data(address) if self._functional else None
            if self.llc.insert(address, data, dirty=True) is not None:
                raise ConfigError("sequential fill must not evict from LLC")
        for upper in (self.l2, self.l1):
            remaining = upper.config.num_lines
            for address in addresses:
                if remaining == 0:
                    break
                if upper.set_occupancy(upper.set_index(address)) >= upper.config.ways:
                    continue
                data = _pattern_data(address) if self._functional else None
                upper.insert(address, data, dirty=True)
                remaining -= 1
        return len(self)

    def drain_lines(self, seed: int | None = None) \
            -> Iterator[tuple[int, Any]]:
        """The flush stream: ``(address, payload)`` of every dirty line of
        every level.

        Upper levels drain before the LLC (as their content must reach memory
        through the flush too in the worst-case accounting); the order within
        the stream is shuffled, reflecting the paper's randomly-filled sparse
        contents.
        """
        self._sync_coherence()
        lines = [line for level in self.levels for line in level.dirty_lines()]
        make_rng(seed).shuffle(lines)
        yield from lines

    def _sync_coherence(self) -> None:
        """Propagate the freshest copy of every line down the hierarchy.

        The paper notes the coherence protocol brings the most recent version
        from upper-level caches at flush time; here that means duplicated
        inclusive copies must agree before the flush stream is formed.  This
        is on-chip traffic — no accounting.
        """
        for upper, lower in ((self.l1, self.l2), (self.l2, self.llc)):
            for address, data in upper.dirty_lines():
                if lower.lookup(address, touch=False) is not MISS:
                    lower.store(address, data)

    def invalidate_all(self) -> None:
        for level in self.levels:
            level.clear()

    def restore_dirty(self, address: int, data: bytes | None) -> None:
        """Recovery hook: refill a recovered block into the LLC, dirty.

        The paper's recovery option 1 places verified CHV blocks back in the
        LLC in dirty state.
        """
        victim = self.llc.insert(address, data, dirty=True)
        if victim is not None and victim[2]:
            self._do_writeback(victim[0], victim[1])

    # ------------------------------------------------------------------
    # Run-time mode
    # ------------------------------------------------------------------

    def attach(self, fetch: FetchFn, writeback: WritebackFn) -> None:
        """Connect the hierarchy to a memory-side controller."""
        self.fetch = fetch
        self.writeback = writeback

    def read(self, address: int) -> bytes:
        """Run-time read of one line."""
        data = self.l1.lookup(address)
        if data is not MISS:
            self.access_counts["l1"] += 1
            # Payloads are None only in non-functional (counting-only)
            # runs, whose callers ignore read results entirely.
            return data  # type: ignore[no-any-return]
        if not self.inclusive:
            return self._read_non_inclusive(address)

        data = self.l2.lookup(address)
        if data is MISS:
            data = self.llc.lookup(address)
            if data is MISS:
                self.access_counts["miss"] += 1
                self._install_llc(address, self._do_fetch(address))
                data = self.llc.lookup(address, touch=False)
                assert data is not MISS  # just installed
            else:
                self.access_counts["llc"] += 1
            self._install(self.l2, address, data)
        else:
            self.access_counts["l2"] += 1
        data = self.l2.lookup(address, touch=False)
        assert data is not MISS  # resident: hit above or just installed
        self._install(self.l1, address, data)
        data = self.l1.lookup(address, touch=False)
        assert data is not MISS  # just installed
        return data  # type: ignore[no-any-return]

    def _read_non_inclusive(self, address: int) -> bytes:
        """NINE (non-inclusive, non-exclusive) fill: hits anywhere copy the
        line into L1; misses fill L1 only, and dirty victims trickle down."""
        for name, level in (("l2", self.l2), ("llc", self.llc)):
            data = level.lookup(address)
            if data is not MISS:
                self.access_counts[name] += 1
                self._install(self.l1, address, data)
                return data  # type: ignore[no-any-return]
        self.access_counts["miss"] += 1
        fetched = self._do_fetch(address)
        self._install(self.l1, address, fetched)
        return fetched

    def write(self, address: int, data: bytes) -> None:
        """Run-time write of one full line (write-allocate into L1)."""
        if data is not None and len(data) != CACHE_LINE_SIZE:
            raise ValueError(
                f"cache line payload must be {CACHE_LINE_SIZE} B, "
                f"got {len(data)}")
        self.read(address)
        resident = self.l1.lookup(address, touch=False)
        assert resident is not MISS  # read() write-allocated it
        self.l1.store(address, data)
        # In the EPD model the whole hierarchy is persistent: visibility is
        # persistence, so no flush is needed — this is the paper's premise.

    # ------------------------------------------------------------------
    # Batched run-time mode (fused epoch replay)
    # ------------------------------------------------------------------

    def replay_epoch(self, ops: "list[tuple[str, int, bytes | None]]") \
            -> "tuple[list[tuple[str, int, bytes | None]], list[PendingFill]]":
        """Run one epoch of trace ops through the caches in a fused pass.

        ``ops`` holds ``("w", address, data)`` / ``("r", address, None)``
        tuples (block-aligned addresses).  The pass transcribes
        :meth:`read` / :meth:`write` / :meth:`_install` / :meth:`_install_llc`
        against the level lanes directly — every lookup, LRU touch, hit/miss
        increment and ``access_counts`` bump lands exactly where the scalar
        methods put it — but *defers* the memory side: misses install
        :class:`PendingFill` markers and the would-be fetch/writeback calls
        are collected, in issue order, into the returned ``mem_ops`` list
        (same tuple shape as ``ops``).  The caller executes ``mem_ops``
        against the memory side (e.g.
        :meth:`~repro.secure.controller.SecureMemoryController.run_ops_batch`)
        and hands each fetch result back via :meth:`resolve_pending`.

        The deferral is sound because cache control flow never inspects
        payload bytes, and dirty lines always hold real payloads (a line
        only becomes dirty through a trace write, which overwrites its
        marker), so emitted writebacks are marker-free.

        An LRU touch is a pop-and-reinsert on the payload lane, victim
        selection the lane's O(1) head pop, and dirtiness one hash probe on
        the dirty lane.
        """
        if not self.inclusive:
            raise ConfigError(
                "fused epoch replay requires an inclusive hierarchy")
        l1, l2, llc = self.l1, self.l2, self.llc
        sets1, sets2, sets3 = l1.sets, l2.sets, llc.sets
        dty1, dty2, dty3 = l1.dirty, l2.dirty, llc.dirty
        w1, w2, w3 = l1.ways, l2.ways, llc.ways
        ls1, ns1 = l1.line_size, l1.num_sets
        ls2, ns2 = l2.line_size, l2.num_sets
        ls3, ns3 = llc.line_size, llc.num_sets
        # One bulk pass per level turns every op address into its set index
        # (vectorized under arena acceleration), and one C-level map per
        # level turns the index lane into the payload-lane dicts themselves;
        # the scalar core below then runs divmod-free on the trace addresses
        # (victim merges recompute sets for *victim* addresses, which the
        # lanes cannot cover — those are off the per-op path).
        lane1, lane2, lane3 = decompose_sets(
            [op[1] for op in ops], ((ls1, ns1), (ls2, ns2), (ls3, ns3)))
        set1s = map(sets1.__getitem__, lane1)
        set2s = map(sets2.__getitem__, lane2)
        set3s = map(sets3.__getitem__, lane3)
        missing = MISS
        new_marker = PendingFill.__new__
        marker_cls = PendingFill
        mem_ops: list[tuple[str, int, bytes | None]] = []
        fills: list[PendingFill] = []
        emit = mem_ops.append
        add_fill = fills.append
        l1_hits = l1_misses = l2_hits = l2_misses = 0
        llc_hits = llc_misses = 0
        c_l1 = c_l2 = c_llc = c_miss = 0

        try:
            for (kind, address, payload), set1, set2, set3 in zip(
                    ops, set1s, set2s, set3s):
                hit = set1.pop(address, missing)
                if hit is not missing:
                    # read(): L1 hit — touch is a pop-and-reinsert (the
                    # pop doubles as the presence probe).
                    l1_hits += 1
                    set1[address] = hit
                    c_l1 += 1
                else:
                    l1_misses += 1
                    lower_data = set2.pop(address, missing)
                    if lower_data is missing:
                        l2_misses += 1
                        lower_data = set3.pop(address, missing)
                        if lower_data is missing:
                            # read(): full miss — deferred fetch, then
                            # _install_llc + the touch=False re-lookup.
                            llc_misses += 1
                            c_miss += 1
                            marker = new_marker(marker_cls)
                            marker.address = address
                            add_fill(marker)
                            emit(("r", address, None))
                            lower_data = marker
                            if len(set3) >= w3:
                                vaddr = next(iter(set3))
                                vdata = set3.pop(vaddr)
                                vdirty = vaddr in dty3
                                if vdirty:
                                    dty3.remove(vaddr)
                                set3[address] = marker
                                # Inclusion: back-invalidate upper copies,
                                # taking their fresher data (L1 checked
                                # first, an L2 copy overrides — exactly the
                                # scalar _install_llc order).
                                copy = sets1[vaddr // ls1 % ns1].pop(
                                    vaddr, missing)
                                if copy is not missing and vaddr in dty1:
                                    dty1.remove(vaddr)
                                    vdata = copy
                                    vdirty = True
                                copy = sets2[vaddr // ls2 % ns2].pop(
                                    vaddr, missing)
                                if copy is not missing and vaddr in dty2:
                                    dty2.remove(vaddr)
                                    vdata = copy
                                    vdirty = True
                                if vdirty:
                                    emit(("w", vaddr, vdata))
                            else:
                                set3[address] = marker
                            llc_hits += 1
                        else:
                            # read(): LLC hit — the probing pop plus this
                            # reinsert is the LRU touch.
                            llc_hits += 1
                            set3[address] = lower_data
                            c_llc += 1
                        # _install(l2, ...) + the touch=False re-lookup.
                        if len(set2) >= w2:
                            vaddr = next(iter(set2))
                            vdata = set2.pop(vaddr)
                            vdirty = vaddr in dty2
                            if vdirty:
                                dty2.remove(vaddr)
                            set2[address] = lower_data
                            copy = sets1[vaddr // ls1 % ns1].pop(
                                vaddr, missing)
                            if copy is not missing and vaddr in dty1:
                                dty1.remove(vaddr)
                                vdata = copy
                                vdirty = True
                            if vdirty:
                                below = sets3[vaddr // ls3 % ns3]
                                if vaddr not in below:
                                    llc_misses += 1
                                    raise ConfigError(
                                        f"inclusion violated: {vaddr:#x} in "
                                        f"{l2.name} but not in {llc.name}")
                                llc_hits += 1
                                below[vaddr] = vdata
                                dty3.add(vaddr)
                        else:
                            set2[address] = lower_data
                    else:
                        # read(): L2 hit — the probing pop plus this
                        # reinsert is the LRU touch.
                        l2_hits += 1
                        set2[address] = lower_data
                        c_l2 += 1
                    # read()'s unconditional touch=False L2 re-lookup.
                    l2_hits += 1
                    # _install(l1, ...) + the touch=False re-lookup.
                    if len(set1) >= w1:
                        vaddr = next(iter(set1))
                        vdata = set1.pop(vaddr)
                        vdirty = vaddr in dty1
                        if vdirty:
                            dty1.remove(vaddr)
                        set1[address] = lower_data
                        if vdirty:
                            below = sets2[vaddr // ls2 % ns2]
                            if vaddr not in below:
                                l2_misses += 1
                                raise ConfigError(
                                    f"inclusion violated: {vaddr:#x} in "
                                    f"{l1.name} but not in {l2.name}")
                            l2_hits += 1
                            below[vaddr] = vdata
                            dty2.add(vaddr)
                    else:
                        set1[address] = lower_data
                    l1_hits += 1
                if kind == "w":
                    # write(): the touch=False L1 re-lookup, then store in
                    # place (a value store keeps the LRU order).
                    l1_hits += 1
                    set1[address] = payload
                    dty1.add(address)
        finally:
            l1.hits += l1_hits
            l1.misses += l1_misses
            l2.hits += l2_hits
            l2.misses += l2_misses
            llc.hits += llc_hits
            llc.misses += llc_misses
            counts = self.access_counts
            if c_l1:
                counts["l1"] += c_l1
            if c_l2:
                counts["l2"] += c_l2
            if c_llc:
                counts["llc"] += c_llc
            if c_miss:
                counts["miss"] += c_miss
        return mem_ops, fills

    def resolve_pending(self, fills: "list[PendingFill]",
                        fetched: "list[bytes | None]") -> None:
        """Swap every resident epoch marker for its fetched payload.

        ``fetched`` aligns with ``fills`` (the order markers were emitted by
        :meth:`replay_epoch`).  Markers evicted clean during the epoch are
        simply gone; every surviving one is replaced, so no marker outlives
        its epoch.
        """
        if len(fills) != len(fetched):
            raise ConfigError("fills and fetched results must align")
        if not fills:
            return
        # A marker only ever resides at lines whose address matches it:
        # payloads move between levels strictly along same-address
        # install/merge chains, and a written line stops being a marker.
        # Each fill therefore resolves with one lane probe per level
        # instead of a full-hierarchy scan.
        lanes = [(level.sets, level.line_size, level.num_sets)
                 for level in self.levels]
        for marker, data in zip(fills, fetched):
            address = marker.address
            for sets, line_size, num_sets in lanes:
                lane = sets[address // line_size % num_sets]
                if lane.get(address) is marker:
                    lane[address] = data

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _do_fetch(self, address: int) -> bytes:
        if self.fetch is None:
            raise ConfigError("hierarchy is not attached to a memory side")
        return self.fetch(address)

    def _do_writeback(self, address: int, data: Any) -> None:
        if self.writeback is None:
            raise ConfigError("hierarchy is not attached to a memory side")
        # Dirty lines carry real payloads in functional runs; handlers in
        # counting-only runs never read the bytes.
        self.writeback(address, data)

    def _install(self, level: SetAssociativeCache, address: int, data: Any,
                 dirty: bool = False) -> None:
        """Install into L1 or L2; dirty victims move toward memory.

        Inclusive: the level below must already hold the address, so the
        victim merges into that copy.  Non-inclusive: the victim is inserted
        into the level below (possibly displacing another victim, which
        cascades), and clean victims are simply dropped.
        """
        victim = level.insert(address, data, dirty)
        if victim is None:
            return
        victim_address, victim_data, victim_dirty = victim
        below = self.l2 if level is self.l1 else self.llc
        if self.inclusive:
            if level is self.l2:
                # Inclusion: an address leaving L2 must leave L1 too, and
                # the L1 copy may be the freshest version.
                copy = self.l1.invalidate(victim_address)
                if copy is not None and copy[2]:
                    _, victim_data, victim_dirty = copy
            if not victim_dirty:
                return
            if below.lookup(victim_address, touch=False) is MISS:
                raise ConfigError(
                    f"inclusion violated: {victim_address:#x} in "
                    f"{level.name} but not in {below.name}")
            below.store(victim_address, victim_data)
            return
        if not victim_dirty:
            return
        if below.lookup(victim_address, touch=False) is not MISS:
            below.store(victim_address, victim_data)
        elif below is self.llc:
            self._install_llc(victim_address, victim_data, dirty=True)
        else:
            self._install(below, victim_address, victim_data, dirty=True)

    def _install_llc(self, address: int, data: Any,
                     dirty: bool = False) -> None:
        """Install into the LLC; dirty victims are written back to memory.

        Under inclusion, evicting an LLC line also back-invalidates any
        upper-level copies (taking their fresher data with them); without
        inclusion there is nothing to invalidate.
        """
        victim = self.llc.insert(address, data, dirty)
        if victim is None:
            return
        victim_address, victim_data, victim_dirty = victim
        if self.inclusive:
            for upper in (self.l1, self.l2):
                copy = upper.invalidate(victim_address)
                if copy is not None and copy[2]:
                    _, victim_data, victim_dirty = copy
        if victim_dirty:
            self._do_writeback(victim_address, victim_data)
