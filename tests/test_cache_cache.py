"""Set-associative cache with LRU replacement."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.line import CacheLine
from repro.common.config import CacheConfig


@pytest.fixture
def cache() -> SetAssociativeCache:
    # 4 sets x 2 ways of 64 B lines.
    return SetAssociativeCache(CacheConfig("test", 512, 2, 1))


def _addr(set_index: int, tag: int, num_sets: int = 4) -> int:
    return (tag * num_sets + set_index) * 64


class TestLookupInsert:
    def test_miss_then_hit(self, cache):
        assert cache.lookup(0) is None
        cache.insert(CacheLine(0, bytes(64)))
        line = cache.lookup(0)
        assert line is not None and line.address == 0
        assert cache.misses == 1 and cache.hits == 1

    def test_set_mapping(self, cache):
        assert cache.set_index(0) == 0
        assert cache.set_index(64) == 1
        assert cache.set_index(4 * 64) == 0

    def test_insert_same_address_replaces_in_place(self, cache):
        cache.insert(CacheLine(0, b"\x01" * 64))
        victim = cache.insert(CacheLine(0, b"\x02" * 64))
        assert victim is None
        assert cache.lookup(0).data == b"\x02" * 64
        assert len(cache) == 1

    def test_no_eviction_until_set_full(self, cache):
        assert cache.insert(CacheLine(_addr(0, 0))) is None
        assert cache.insert(CacheLine(_addr(0, 1))) is None
        assert len(cache) == 2


class TestLruEviction:
    def test_evicts_least_recently_used(self, cache):
        cache.insert(CacheLine(_addr(0, 0)))
        cache.insert(CacheLine(_addr(0, 1)))
        victim = cache.insert(CacheLine(_addr(0, 2)))
        assert victim.address == _addr(0, 0)

    def test_lookup_refreshes_lru(self, cache):
        cache.insert(CacheLine(_addr(0, 0)))
        cache.insert(CacheLine(_addr(0, 1)))
        cache.lookup(_addr(0, 0))             # 0 becomes MRU
        victim = cache.insert(CacheLine(_addr(0, 2)))
        assert victim.address == _addr(0, 1)

    def test_untouched_lookup_does_not_refresh(self, cache):
        cache.insert(CacheLine(_addr(0, 0)))
        cache.insert(CacheLine(_addr(0, 1)))
        cache.lookup(_addr(0, 0), touch=False)
        victim = cache.insert(CacheLine(_addr(0, 2)))
        assert victim.address == _addr(0, 0)

    def test_different_sets_do_not_interfere(self, cache):
        for tag in range(2):
            cache.insert(CacheLine(_addr(0, tag)))
        assert cache.insert(CacheLine(_addr(1, 0))) is None


class TestInvalidationAndIteration:
    def test_invalidate_returns_line(self, cache):
        cache.insert(CacheLine(0, None, dirty=True))
        line = cache.invalidate(0)
        assert line.dirty
        assert cache.lookup(0) is None

    def test_invalidate_missing_returns_none(self, cache):
        assert cache.invalidate(0) is None

    def test_dirty_lines_iteration(self, cache):
        cache.insert(CacheLine(_addr(0, 0), dirty=True))
        cache.insert(CacheLine(_addr(1, 0), dirty=False))
        cache.insert(CacheLine(_addr(2, 0), dirty=True))
        dirty = {line.address for line in cache.dirty_lines()}
        assert dirty == {_addr(0, 0), _addr(2, 0)}

    def test_set_occupancy(self, cache):
        cache.insert(CacheLine(_addr(3, 0)))
        assert cache.set_occupancy(3) == 1
        assert cache.set_occupancy(0) == 0

    def test_clear(self, cache):
        cache.insert(CacheLine(0))
        cache.clear()
        assert len(cache) == 0


class TestCacheLine:
    def test_rejects_wrong_payload_size(self):
        with pytest.raises(ValueError):
            CacheLine(0, b"short")
