"""Set-associative cache with true-LRU replacement.

Used for the three data-cache levels and (via
:mod:`repro.metadata.cache`) for the three security-metadata caches.  Sets
are plain insertion-ordered ``dict`` instances: LRU->MRU is insertion
order, an LRU touch is a pop-and-reinsert, and the eviction victim is
``next(iter(set))``.  Same semantics as an ``OrderedDict`` with
``move_to_end``/``popitem(last=False)``, but plain-dict lookups and
reinserts are measurably cheaper at trace scale.
"""

from collections.abc import Iterator

from repro.common.address import require_block_aligned
from repro.common.config import CacheConfig
from repro.cache.line import CacheLine


class SetAssociativeCache:
    """A single cache level."""

    def __init__(self, config: CacheConfig):
        self._config = config
        self._sets: list[dict[int, CacheLine]] = [
            {} for _ in range(config.num_sets)
        ]
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
        return (address // self._config.line_size) % self._config.num_sets

    # -- core operations --------------------------------------------------------

    def lookup(self, address: int, touch: bool = True) -> CacheLine | None:
        """Return the resident line for ``address`` (or None), updating LRU."""
        require_block_aligned(address, self._config.line_size)
        cache_set = self._sets[self.set_index(address)]
        line = cache_set.get(address)
        if line is None:
            self.misses += 1
            return None
        self.hits += 1
        if touch:
            cache_set[address] = cache_set.pop(address)
        return line

    def insert(self, line: CacheLine) -> CacheLine | None:
        """Install ``line``; return the evicted victim when the set was full.

        Inserting an address already resident replaces that line in place
        (no eviction).
        """
        require_block_aligned(line.address, self._config.line_size)
        cache_set = self._sets[self.set_index(line.address)]
        victim = None
        if line.address in cache_set:
            del cache_set[line.address]
            cache_set[line.address] = line
            return None
        if len(cache_set) >= self._config.ways:
            victim = cache_set.pop(next(iter(cache_set)))
        cache_set[line.address] = line
        return victim

    def invalidate(self, address: int) -> CacheLine | None:
        """Remove and return the line for ``address`` if resident."""
        cache_set = self._sets[self.set_index(address)]
        return cache_set.pop(address, None)

    def contains(self, address: int) -> bool:
        return address in self._sets[self.set_index(address)]

    def set_occupancy(self, index: int) -> int:
        """Lines currently resident in set ``index``."""
        return len(self._sets[index])

    # -- iteration / bulk -------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def lines(self) -> Iterator[CacheLine]:
        """All resident lines, in set order then LRU->MRU order."""
        for cache_set in self._sets:
            yield from cache_set.values()

    def dirty_lines(self) -> Iterator[CacheLine]:
        for line in self.lines():
            if line.dirty:
                yield line

    def clear(self) -> None:
        for cache_set in self._sets:
            cache_set.clear()
