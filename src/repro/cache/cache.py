"""Set-associative cache with true-LRU replacement, held as lanes.

One instance per data-cache level of
:class:`~repro.cache.hierarchy.CacheHierarchy`.  A level's whole state is
two lanes:

* ``sets`` — one insertion-ordered ``address -> payload`` dict per set.
  Insertion order *is* LRU->MRU order: an LRU touch is a pop-and-reinsert,
  the eviction victim is ``next(iter(set))`` (both O(1), and cheaper at
  trace scale than an ``OrderedDict``'s ``move_to_end``/``popitem``), and a
  value store on a resident key leaves the order untouched (the
  merge-without-touch the ``touch=False`` paths rely on).  Payloads are
  ``bytes``, or a :class:`~repro.cache.hierarchy.PendingFill` marker
  inside a replay epoch.
* ``dirty`` — the set of resident dirty addresses.

The methods below are the scalar specification.  The fused epoch replay and
the batched fill act on the same two lanes directly, so there is no second
representation to convert to or from.  A line crosses the API as an
``(address, payload, dirty)`` tuple.
"""

from collections.abc import Iterator, Sequence
from typing import Any

import numpy as np

from repro.common.address import require_block_aligned
from repro.common.config import CacheConfig

MISS: Any = object()
"""What :meth:`SetAssociativeCache.lookup` returns for an absent address.

A sentinel rather than ``None``: the lanes never inspect payloads, so no
payload value is reserved to mean "absent"."""

Line = tuple[int, Any, bool]
"""A resident line: ``(address, payload, dirty)``."""

#: Geometry tuple consumed by :func:`decompose_sets`:
#: ``(line_size, num_sets)``.
Geometry = tuple[int, int]


def decompose_sets(addresses: Sequence[int],
                   geometries: Sequence[Geometry]) -> list[list[int]]:
    """Per-level set indices for every address, one bulk pass per level.

    For geometry ``(line_size, num_sets)`` the set index of address ``a``
    is ``(a // line_size) % num_sets``.  All addresses of a level are
    evaluated in one numpy u64 expression; a single address, or any
    address numpy cannot hold, takes the same arithmetic on Python ints.
    """
    if len(addresses) > 1:
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


class SetAssociativeCache:
    """A single cache level."""

    def __init__(self, config: CacheConfig):
        self._config = config
        self.line_size: int = config.line_size
        self.num_sets: int = config.num_sets
        self.ways: int = config.ways
        #: Payload lane per set: address -> payload, in LRU->MRU order.
        self.sets: list[dict[int, Any]] = [
            {} for _ in range(config.num_sets)
        ]
        #: Dirty lane: the resident addresses whose line is dirty.
        self.dirty: set[int] = set()
        self.hits = 0
        self.misses = 0

    @property
    def config(self) -> CacheConfig:
        return self._config

    @property
    def name(self) -> str:
        return self._config.name

    def set_index(self, address: int) -> int:
        """Set an aligned address maps to."""
        return (address // self.line_size) % self.num_sets

    # -- core operations --------------------------------------------------------

    def lookup(self, address: int, touch: bool = True) -> Any:
        """The resident payload for ``address`` (or :data:`MISS`), counting
        a hit or miss and, with ``touch``, making the line MRU."""
        require_block_aligned(address, self.line_size)
        cache_set = self.sets[self.set_index(address)]
        data = cache_set.get(address, MISS)
        if data is MISS:
            self.misses += 1
            return MISS
        self.hits += 1
        if touch:
            cache_set[address] = cache_set.pop(address)
        return data

    def insert(self, address: int, data: Any,
               dirty: bool = False) -> Line | None:
        """Install a line as MRU; return the evicted victim when the set
        was full.

        Inserting an address already resident replaces that line in place
        (no eviction), dirty bit included.
        """
        require_block_aligned(address, self.line_size)
        cache_set = self.sets[self.set_index(address)]
        victim = None
        if address in cache_set:
            del cache_set[address]
        elif len(cache_set) >= self.ways:
            victim_address = next(iter(cache_set))
            victim = (victim_address, cache_set.pop(victim_address),
                      victim_address in self.dirty)
            self.dirty.discard(victim_address)
        cache_set[address] = data
        if dirty:
            self.dirty.add(address)
        else:
            self.dirty.discard(address)
        return victim

    def store(self, address: int, data: Any) -> None:
        """Merge ``data`` into the resident line and mark it dirty; the
        LRU order does not move."""
        self.sets[self.set_index(address)][address] = data
        self.dirty.add(address)

    def clean(self, address: int) -> None:
        """Mark the resident line clean: its payload reached memory."""
        self.dirty.discard(address)

    def invalidate(self, address: int) -> Line | None:
        """Remove and return the line for ``address`` if resident."""
        data = self.sets[self.set_index(address)].pop(address, MISS)
        if data is MISS:
            return None
        dirty = address in self.dirty
        self.dirty.discard(address)
        return address, data, dirty

    def contains(self, address: int) -> bool:
        return address in self.sets[self.set_index(address)]

    def set_occupancy(self, index: int) -> int:
        """Lines currently resident in set ``index``."""
        return len(self.sets[index])

    # -- iteration / bulk -------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(s) for s in self.sets)

    def lines(self) -> Iterator[Line]:
        """All resident lines, in set order then LRU->MRU order."""
        dirty = self.dirty
        for cache_set in self.sets:
            for address, data in cache_set.items():
                yield address, data, address in dirty

    def dirty_lines(self) -> Iterator[tuple[int, Any]]:
        """``(address, payload)`` of every dirty line, in :meth:`lines`
        order."""
        dirty = self.dirty
        for cache_set in self.sets:
            for address, data in cache_set.items():
                if address in dirty:
                    yield address, data

    def clear(self) -> None:
        for cache_set in self.sets:
            cache_set.clear()
        self.dirty.clear()
