"""Set-associative cache with LRU replacement."""

import pytest

from repro.cache.cache import MISS, SetAssociativeCache
from repro.common.config import CacheConfig


@pytest.fixture
def cache() -> SetAssociativeCache:
    # 4 sets x 2 ways of 64 B lines.
    return SetAssociativeCache(CacheConfig("test", 512, 2, 1))


def _addr(set_index: int, tag: int, num_sets: int = 4) -> int:
    return (tag * num_sets + set_index) * 64


class TestLookupInsert:
    def test_miss_then_hit(self, cache):
        assert cache.lookup(0) is MISS
        cache.insert(0, bytes(64))
        assert cache.lookup(0) == bytes(64)
        assert cache.misses == 1 and cache.hits == 1

    def test_none_payload_is_a_hit(self, cache):
        """Counting-only runs carry None payloads; MISS tells them apart."""
        cache.insert(0, None)
        assert cache.lookup(0) is None
        assert cache.hits == 1 and cache.misses == 0

    def test_set_mapping(self, cache):
        assert cache.set_index(0) == 0
        assert cache.set_index(64) == 1
        assert cache.set_index(4 * 64) == 0

    def test_insert_same_address_replaces_in_place(self, cache):
        cache.insert(0, b"\x01" * 64, dirty=True)
        victim = cache.insert(0, b"\x02" * 64)
        assert victim is None
        assert cache.lookup(0) == b"\x02" * 64
        assert len(cache) == 1
        assert 0 not in cache.dirty, "the replacement's dirty bit wins"

    def test_no_eviction_until_set_full(self, cache):
        assert cache.insert(_addr(0, 0), None) is None
        assert cache.insert(_addr(0, 1), None) is None
        assert len(cache) == 2


class TestLruEviction:
    def test_evicts_least_recently_used(self, cache):
        cache.insert(_addr(0, 0), None)
        cache.insert(_addr(0, 1), None)
        victim = cache.insert(_addr(0, 2), None)
        assert victim[0] == _addr(0, 0)

    def test_victim_carries_payload_and_dirty_bit(self, cache):
        cache.insert(_addr(0, 0), b"\x05" * 64, dirty=True)
        cache.insert(_addr(0, 1), None)
        assert cache.insert(_addr(0, 2), None) == \
            (_addr(0, 0), b"\x05" * 64, True)
        assert cache.dirty == set(), "an evicted line leaves the dirty lane"

    def test_lookup_refreshes_lru(self, cache):
        cache.insert(_addr(0, 0), None)
        cache.insert(_addr(0, 1), None)
        cache.lookup(_addr(0, 0))             # 0 becomes MRU
        victim = cache.insert(_addr(0, 2), None)
        assert victim[0] == _addr(0, 1)

    def test_untouched_lookup_does_not_refresh(self, cache):
        cache.insert(_addr(0, 0), None)
        cache.insert(_addr(0, 1), None)
        cache.lookup(_addr(0, 0), touch=False)
        victim = cache.insert(_addr(0, 2), None)
        assert victim[0] == _addr(0, 0)

    def test_different_sets_do_not_interfere(self, cache):
        for tag in range(2):
            cache.insert(_addr(0, tag), None)
        assert cache.insert(_addr(1, 0), None) is None


class TestInPlaceMerges:
    def test_store_replaces_payload_marks_dirty_keeps_lru(self, cache):
        cache.insert(_addr(0, 0), b"\x01" * 64)
        cache.insert(_addr(0, 1), None)
        cache.store(_addr(0, 0), b"\x02" * 64)
        assert cache.lookup(_addr(0, 0), touch=False) == b"\x02" * 64
        assert cache.dirty == {_addr(0, 0)}
        victim = cache.insert(_addr(0, 2), None)
        assert victim == (_addr(0, 0), b"\x02" * 64, True)

    def test_clean_clears_only_the_dirty_bit(self, cache):
        cache.insert(0, b"\x03" * 64, dirty=True)
        cache.clean(0)
        assert cache.dirty == set()
        assert cache.lookup(0) == b"\x03" * 64


class TestInvalidationAndIteration:
    def test_invalidate_returns_line(self, cache):
        cache.insert(0, None, dirty=True)
        address, data, dirty = cache.invalidate(0)
        assert (address, data) == (0, None)
        assert dirty
        assert cache.lookup(0) is MISS
        assert cache.dirty == set()

    def test_invalidate_missing_returns_none(self, cache):
        assert cache.invalidate(0) is None

    def test_dirty_lines_iteration(self, cache):
        cache.insert(_addr(0, 0), None, dirty=True)
        cache.insert(_addr(1, 0), None, dirty=False)
        cache.insert(_addr(2, 0), None, dirty=True)
        dirty = {address for address, _ in cache.dirty_lines()}
        assert dirty == {_addr(0, 0), _addr(2, 0)}

    def test_lines_in_set_then_lru_order(self, cache):
        cache.insert(_addr(1, 0), b"\x01" * 64, dirty=True)
        cache.insert(_addr(0, 1), None)
        cache.insert(_addr(0, 0), None)
        assert list(cache.lines()) == [
            (_addr(0, 1), None, False),
            (_addr(0, 0), None, False),
            (_addr(1, 0), b"\x01" * 64, True),
        ]

    def test_set_occupancy(self, cache):
        cache.insert(_addr(3, 0), None)
        assert cache.set_occupancy(3) == 1
        assert cache.set_occupancy(0) == 0

    def test_clear(self, cache):
        cache.insert(0, None, dirty=True)
        cache.clear()
        assert len(cache) == 0
        assert cache.dirty == set()
