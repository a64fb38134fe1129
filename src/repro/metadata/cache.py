"""Security-metadata caches.

The secure memory controller keeps three of these (counter cache, data-MAC
cache, tree-node cache, per Table I).  Unlike the data caches, lines hold
mutable metadata *objects* (a :class:`~repro.crypto.counters.SplitCounterBlock`,
a :class:`~repro.metadata.nodes.TreeNode`, or a ``bytearray`` MAC block), so
this is a separate small structure rather than a reuse of the byte-payload
data cache.

Everything resident in a metadata cache has been integrity-verified at fill
time; residency implies trust (the on-chip TCB of the threat model).
"""

from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any

from repro.common.config import CacheConfig
from repro.common.constants import CACHE_LINE_SIZE


@dataclass(slots=True)
class MetaLine:
    """A resident metadata block: its NVM address, value object, dirty bit."""

    address: int
    value: Any
    dirty: bool = False


class MetadataCache:
    """Set-associative, true-LRU cache of metadata objects keyed by address."""

    def __init__(self, config: CacheConfig) -> None:
        self._config = config
        # Plain dicts in insertion (LRU->MRU) order; touch = pop-and-
        # reinsert, victim = next(iter(set)).  Cheaper than OrderedDict
        # at per-metadata-access call rates.
        self._sets: list[dict[int, MetaLine]] = [
            {} for _ in range(config.num_sets)
        ]
        # Plain ints for the per-op hot path (lookup/insert run once per
        # metadata access); the dataclass chases stay off it.
        self._num_sets: int = config.num_sets
        self._ways: int = config.ways
        self.hits = 0
        self.misses = 0

    @property
    def config(self) -> CacheConfig:
        return self._config

    @property
    def name(self) -> str:
        return self._config.name

    def _set_for(self, address: int) -> dict[int, MetaLine]:
        return self._sets[(address // CACHE_LINE_SIZE) % self._num_sets]

    def lookup(self, address: int) -> MetaLine | None:
        # Single probe: pop-with-default both answers residency and starts
        # the LRU touch (reinsert moves the line to MRU).  A miss leaves
        # the set untouched.  The controller's fused segment path
        # (SecureMemoryController._run_segment, counter and MAC stages) and
        # its tree walk (get_tree_node) transcribe this body inline against
        # ``_sets`` — keep them in sync when changing accounting or order.
        cache_set = self._sets[(address // CACHE_LINE_SIZE) % self._num_sets]
        line = cache_set.pop(address, None)
        if line is None:
            self.misses += 1
            return None
        self.hits += 1
        cache_set[address] = line
        return line

    def insert(self, line: MetaLine) -> MetaLine | None:
        """Install ``line``, returning the evicted victim if the set was full.

        A store to a resident address replaces the value, moves the line
        to MRU (pop + reinsert), and never evicts.  Also transcribed
        inline by the controller's fused segment path — see :meth:`lookup`.
        """
        address = line.address
        cache_set = self._sets[(address // CACHE_LINE_SIZE) % self._num_sets]
        victim: MetaLine | None = None
        if cache_set.pop(address, None) is not None:
            cache_set[address] = line
            return None
        if len(cache_set) >= self._ways:
            victim = cache_set.pop(next(iter(cache_set)))
        cache_set[address] = line
        return victim

    def contains(self, address: int) -> bool:
        return address in self._set_for(address)

    def invalidate(self, address: int) -> MetaLine | None:
        return self._set_for(address).pop(address, None)

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def lines(self) -> Iterator[MetaLine]:
        for cache_set in self._sets:
            yield from cache_set.values()

    def dirty_lines(self) -> Iterator[MetaLine]:
        for line in self.lines():
            if line.dirty:
                yield line

    def clear(self) -> None:
        for cache_set in self._sets:
            cache_set.clear()
