"""Property-based tests: set-associative LRU cache vs a reference model."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import MISS, SetAssociativeCache
from repro.common.config import CacheConfig

NUM_SETS = 4
WAYS = 2
CONFIG = CacheConfig("prop", NUM_SETS * WAYS * 64, WAYS, 1)

addresses = st.integers(0, 31).map(lambda i: i * 64)
operations = st.lists(
    st.tuples(st.sampled_from(["insert", "insert-dirty", "lookup",
                               "invalidate", "clean"]), addresses),
    max_size=200)


class _ReferenceLru:
    """An obviously-correct LRU model: one OrderedDict per set, mapping
    each resident address to its dirty bit."""

    def __init__(self):
        self.sets = [OrderedDict() for _ in range(NUM_SETS)]

    def _set(self, address):
        return self.sets[(address // 64) % NUM_SETS]

    def insert(self, address, dirty=False):
        s = self._set(address)
        if address in s:
            s[address] = dirty
            s.move_to_end(address)
            return None
        victim = None
        if len(s) >= WAYS:
            victim = s.popitem(last=False)
        s[address] = dirty
        return victim

    def lookup(self, address):
        s = self._set(address)
        if address in s:
            s.move_to_end(address)
            return True
        return False

    def invalidate(self, address):
        return self._set(address).pop(address, None) is not None

    def clean(self, address):
        s = self._set(address)
        if address in s:
            s[address] = False

    def contents(self):
        return [list(s.keys()) for s in self.sets]

    def dirty(self):
        return {a for s in self.sets for a, dirty in s.items() if dirty}


class TestLruEquivalence:
    @given(operations)
    @settings(max_examples=100)
    def test_matches_reference_model(self, ops):
        cache = SetAssociativeCache(CONFIG)
        model = _ReferenceLru()
        for op, address in ops:
            if op.startswith("insert"):
                dirty = op == "insert-dirty"
                victim = cache.insert(address, None, dirty)
                expected = model.insert(address, dirty)
                assert ((victim[0], victim[2]) if victim else None) \
                    == expected
            elif op == "lookup":
                assert (cache.lookup(address) is not MISS) == \
                    model.lookup(address)
            elif op == "clean":
                cache.clean(address)
                model.clean(address)
            else:
                assert (cache.invalidate(address) is not None) == \
                    model.invalidate(address)
        # Final state: same lines, same LRU order, per set; same dirty set.
        actual = [list(cache.sets[i]) for i in range(NUM_SETS)]
        assert actual == model.contents()
        assert cache.dirty == model.dirty()

    @given(operations)
    @settings(max_examples=50)
    def test_occupancy_never_exceeds_ways(self, ops):
        cache = SetAssociativeCache(CONFIG)
        for op, address in ops:
            if op.startswith("insert"):
                cache.insert(address, None)
            for i in range(NUM_SETS):
                assert cache.set_occupancy(i) <= WAYS

    @given(st.lists(addresses, min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_most_recent_insert_is_always_resident(self, addrs):
        cache = SetAssociativeCache(CONFIG)
        for address in addrs:
            cache.insert(address, None)
            assert cache.contains(address)
