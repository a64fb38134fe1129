"""Cache-hierarchy fill patterns.

The paper sizes the EPD hold-up budget for the worst case: every line of every
cache level dirty, with contents so sparse that almost every flushed line
misses in the security-metadata caches (Section V-A fills lines >= 16 KiB
apart).

:func:`worst_case_addresses` produces, for a cache level, a full set of
addresses that

* respect the level's set mapping (the fill is honest — each set receives
  exactly ``ways`` lines), and
* place every line in a *distinct 4 KiB counter-block page*, so each flushed
  line touches a counter block no other line shares — the property that
  actually drives the paper's worst case (a 16 KiB stride is one way to get
  it; honoring set mapping requires the slightly richer pattern below).

Page selection: a 4 KiB page spans 64 consecutive block addresses, hence 64
consecutive sets.  For a cache with ``num_sets`` sets, pages whose index is
congruent to ``s // 64 (mod num_sets/64)`` are exactly the pages that can host
a line of set ``s``.  A :class:`PageAllocator` hands out pages satisfying the
congruence, never reusing a page, and partitions the page space so different
cache levels cannot collide either.
"""

from collections.abc import Iterator

import numpy as np

from repro.common.config import CacheConfig, SystemConfig
from repro.common.constants import CACHE_LINE_SIZE, COUNTER_BLOCK_COVERAGE
from repro.common.errors import ConfigError

_BLOCKS_PER_PAGE = COUNTER_BLOCK_COVERAGE // CACHE_LINE_SIZE  # 64


class PageAllocator:
    """Hands out distinct 4 KiB page indices, optionally under a congruence."""

    def __init__(self, num_pages: int):
        if num_pages <= 0:
            raise ConfigError("page allocator needs a positive page count")
        self._num_pages = num_pages
        self._next_free: dict[tuple[int, int], int] = {}
        self._taken: set[int] = set()

    @property
    def used(self) -> int:
        return len(self._taken)

    @property
    def fresh(self) -> bool:
        """True while nothing has been drawn (no pages, no cursors)."""
        return not self._taken and not self._next_free

    def allocate(self, residue: int = 0, period: int = 1) -> int:
        """Return an unused page index ``p`` with ``p % period == residue``."""
        key = (period, residue)
        cursor = self._next_free.get(key, residue)
        while cursor in self._taken:
            cursor += period
        if cursor >= self._num_pages:
            raise ConfigError(
                f"out of pages (period={period}, residue={residue}): "
                f"memory too small for this fill")
        self._next_free[key] = cursor + period
        self._taken.add(cursor)
        return cursor


def worst_case_addresses(config: CacheConfig, allocator: PageAllocator) -> Iterator[int]:
    """Yield ``config.num_lines`` addresses filling every set of the level,
    each in its own 4 KiB page."""
    num_sets = config.num_sets
    period = max(1, num_sets // _BLOCKS_PER_PAGE)
    for s in range(num_sets):
        residue = (s // _BLOCKS_PER_PAGE) % period
        for _ in range(config.ways):
            page = allocator.allocate(residue, period)
            offset = (s - page * _BLOCKS_PER_PAGE) % num_sets
            if offset >= _BLOCKS_PER_PAGE:
                raise ConfigError(
                    f"page {page} cannot host set {s} of {config.name}")
            yield page * COUNTER_BLOCK_COVERAGE + offset * CACHE_LINE_SIZE


def worst_case_addresses_bulk(config: CacheConfig,
                              allocator: PageAllocator) -> list[int]:
    """All worst-case fill addresses of a level at once (numpy lanes).

    Equals ``list(worst_case_addresses(config, allocator))`` — same
    addresses in the same order, same final allocator state — computed in
    closed form: on a *fresh* allocator the ``k``-th draw of residue class
    ``r`` is page ``r + k*period``, so every page, offset and address of
    the fill is pure index arithmetic.  A used allocator (whose cursors
    the closed form cannot reconstruct), or any fill the closed form
    would reject (page overflow, set outside its page) falls back to the
    scalar generator, which also reproduces the generator's exact
    ``ConfigError`` and partial allocator mutation on pathological
    configs.
    """
    if not allocator.fresh:
        return list(worst_case_addresses(config, allocator))
    num_sets = config.num_sets
    ways = config.ways
    period = max(1, num_sets // _BLOCKS_PER_PAGE)
    sets = np.arange(num_sets, dtype=np.int64)
    groups = sets // _BLOCKS_PER_PAGE
    residues = groups % period
    ranks = (groups // period) * _BLOCKS_PER_PAGE + sets % _BLOCKS_PER_PAGE
    draws = ranks[:, None] * ways + np.arange(ways, dtype=np.int64)
    pages = residues[:, None] + period * draws
    offsets = (sets[:, None] - pages * _BLOCKS_PER_PAGE) % num_sets
    if int(pages.max()) >= allocator._num_pages \
            or bool((offsets >= _BLOCKS_PER_PAGE).any()):
        return list(worst_case_addresses(config, allocator))
    addresses: list[int] = (
        pages * COUNTER_BLOCK_COVERAGE
        + offsets * CACHE_LINE_SIZE).reshape(-1).tolist()
    # Commit the allocator state exactly as the generator would have left
    # it: every page taken, and each class cursor one period past its
    # last draw (class r draws pages r, r+period, ..., consecutively).
    allocator._taken.update(pages.reshape(-1).tolist())
    class_sets = np.bincount(residues, minlength=period)
    for residue in range(period):
        count = int(class_sets[residue]) * ways
        if count:
            allocator._next_free[(period, residue)] = \
                residue + period * count
    return addresses


def page_of(address: int) -> int:
    """Counter-block page index of a data address (for tests)."""
    return address // COUNTER_BLOCK_COVERAGE


def make_allocator(config: SystemConfig) -> PageAllocator:
    """Page allocator spanning the whole data region of ``config``."""
    return PageAllocator(config.memory.size // COUNTER_BLOCK_COVERAGE)
