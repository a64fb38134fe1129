"""Struct-of-arrays cache model for the fused replay hot loop.

The scalar hierarchy's dict-of-:class:`~repro.cache.line.CacheLine`
representation is the right shape for drains, recovery, and the
fault/attack paths — but it is the wrong shape for trace replay, where the
profile is dominated by per-access ``CacheLine`` attribute chases, per-line
dataclass allocation, and the set-index divmods repeated at every level.

:class:`SoALevel` splits one cache level into parallel per-set lanes that
carry only what the replay core branches on:

* a **payload lane** per set — an insertion-ordered dict mapping resident
  address to payload.  Slot order *is* LRU→MRU order, exactly as in
  :class:`~repro.cache.cache.SetAssociativeCache`: an LRU touch is a
  pop-and-reinsert, the eviction victim is ``next(iter(set))`` (both O(1)),
  and a value store on a resident key leaves the order untouched (the
  merge-without-touch the scalar ``lookup(touch=False)`` paths rely on).
  An earlier revision of this module kept true flat slot lanes with an
  LRU *stamp* lane and min-scan victim selection; it replayed byte-
  identically but measurably slower — the O(ways) stamp scan on every
  eviction lost to the dict's O(1) head pop, so the layout keeps the
  dict as the per-set lane and drops the stamps.
* a **dirty lane** per level — the set of resident dirty addresses.
  Replay only ever asks "is this victim dirty" and "mark this line
  dirty", so one hash membership test replaces a ``line.dirty`` chase.

What is vectorized through the arena's numpy handle
(:mod:`repro.crypto.arena`) is the per-epoch address decomposition:
:func:`decompose_sets` computes every op's set index for all three levels
in one numpy u64 pass per level (:func:`~repro.crypto.arena.tile_u64`-style
bulk kernels), with a byte-identical pure-Python fallback for numpy-less
installs.  The replay core then maps each lane through the level's set
list at C speed and runs divmod-free on the trace addresses.

Payload lanes hold the same objects the dict model would hold —
``bytes``, ``None``, or :class:`~repro.cache.hierarchy.PendingFill`
markers — so marker *identity* survives the dematerialize/materialize
round trip and ``resolve_pending`` works unchanged in either mode.
"""

from collections.abc import Sequence
from typing import Any

from repro.cache.cache import SetAssociativeCache
from repro.cache.line import CacheLine
from repro.common.config import CacheConfig
from repro.crypto import arena

#: Geometry tuple consumed by :func:`decompose_sets`:
#: ``(line_size, num_sets)``.
Geometry = tuple[int, int]


def decompose_sets(addresses: Sequence[int],
                   geometries: Sequence[Geometry]) -> list[list[int]]:
    """Per-level set indices for every address, one bulk pass per level.

    For geometry ``(line_size, num_sets)`` the set index of address ``a``
    is ``(a // line_size) % num_sets``.  Accelerated mode evaluates all
    addresses per level in one numpy u64 expression; the fallback (and any
    address numpy cannot hold) produces the same Python ints from the same
    arithmetic.
    """
    np = arena._np
    if np is not None and len(addresses) > 1:
        try:
            lane = np.asarray(addresses, dtype=np.uint64)
        except (OverflowError, TypeError, ValueError):
            pass
        else:
            return [
                (lane // line_size % num_sets).tolist()
                for line_size, num_sets in geometries
            ]
    return [
        [a // line_size % num_sets for a in addresses]
        for line_size, num_sets in geometries
    ]


class SoALevel:
    """One cache level split into per-set payload lanes plus a dirty lane.

    Built from (and restored into) a :class:`SetAssociativeCache` by
    :meth:`from_cache` / :meth:`restore`; between those boundaries the
    fused replay pass owns the state and the source cache's sets are empty
    (a stale scalar read during a session has nothing to return, rather
    than silently stale lines).
    """

    __slots__ = ("config", "num_sets", "ways", "line_size", "sets", "dirty")

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.num_sets: int = config.num_sets
        self.ways: int = config.ways
        self.line_size: int = config.line_size
        #: Payload lane per set: address -> ``bytes`` / ``None`` /
        #: ``PendingFill``, in LRU->MRU insertion order.
        self.sets: list[dict[int, Any]] = [{} for _ in range(self.num_sets)]
        #: Dirty lane: the resident addresses whose line is dirty.
        self.dirty: set[int] = set()

    def __len__(self) -> int:
        return sum(len(s) for s in self.sets)

    @classmethod
    def from_cache(cls, cache: SetAssociativeCache) -> "SoALevel":
        """Dematerialize ``cache`` into the lane form.

        Each set dict is consumed in its own LRU->MRU insertion order, so
        the payload lane reproduces the order exactly; the cache's sets are
        cleared in place.
        """
        level = cls(cache.config)
        sets = level.sets
        dirty_add = level.dirty.add
        for set_index, cache_set in enumerate(cache._sets):
            if not cache_set:
                continue
            lane = sets[set_index]
            for address, line in cache_set.items():
                lane[address] = line.data
                if line.dirty:
                    dirty_add(address)
            cache_set.clear()
        return level

    def restore(self, cache: SetAssociativeCache) -> None:
        """Materialize back into ``cache``'s (empty) sets.

        Lines are rebuilt per set in payload-lane order — the dict model's
        LRU->MRU insertion order — with payload objects carried by
        reference, so values, dirty bits, orders, and marker identity all
        match what the dict pass would have left behind.
        """
        sets = cache._sets
        dirty = self.dirty
        new_line = CacheLine.__new__
        for set_index, lane in enumerate(self.sets):
            if not lane:
                continue
            target = sets[set_index]
            for address, payload in lane.items():
                line = new_line(CacheLine)
                line.address = address
                line.data = payload
                line.dirty = address in dirty
                target[address] = line
