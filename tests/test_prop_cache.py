"""Property-based tests: set-associative LRU cache vs a reference model,
and the hierarchy's bulk recovery refill vs per-line inserts."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import MISS, SetAssociativeCache
from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import CacheConfig, SystemConfig
from repro.common.errors import AddressError, ReproError
from tests.conftest import examples

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


# A hierarchy whose LLC is the 4-set, 2-way CONFIG geometry.
TINY_SYSTEM = SystemConfig(l1=CacheConfig("L1", 128, 2, 1),
                           l2=CacheConfig("L2", 256, 2, 1),
                           llc=CacheConfig("LLC", NUM_SETS * WAYS * 64,
                                           WAYS, 1))


class _FailingWriteback(ReproError):
    """Raised by the recorder on its chosen victim address."""


def _recording_hierarchy(fail_on):
    """A tiny hierarchy whose writebacks are logged in order; a writeback of
    ``fail_on`` raises after being logged."""
    hierarchy = CacheHierarchy(TINY_SYSTEM)
    calls = []

    def writeback(address, data):
        calls.append((address, data))
        if address == fail_on:
            raise _FailingWriteback(f"{address:#x}")

    hierarchy.attach(fetch=lambda address: bytes(64), writeback=writeback)
    return hierarchy, calls


def _lanes(hierarchy):
    llc = hierarchy.llc
    return [list(cache_set.items()) for cache_set in llc.sets], \
        set(llc.dirty)


#: Aligned addresses, four per two-way set, so sets overflow and addresses
#: repeat.
line_addresses = st.integers(0, 15).map(lambda i: i * 64)


@st.composite
def refills(draw):
    """``(resident, lines, fail_on)``: LLC lines present beforehand as
    ``(address, dirty)``, the refill's ``(address, payload)`` lines
    (sometimes with one misaligned or negative address spliced in), and
    the address whose writeback fails, if any."""
    resident = draw(st.lists(st.tuples(line_addresses, st.booleans()),
                             max_size=8))
    lines = draw(st.lists(st.tuples(line_addresses,
                                    st.binary(min_size=1, max_size=2)),
                          min_size=4, max_size=40))
    if draw(st.integers(0, 3)) == 0:
        bad = draw(st.sampled_from([8, 64 * 5 + 1, -64]))
        lines.insert(draw(st.integers(0, len(lines))), (bad, b"bad"))
    fail_on = draw(st.one_of(st.none(), st.sampled_from(
        [address for address, _ in resident + lines])))
    return resident, lines, fail_on


class TestRestoreDirtyMatchesInsert:
    """``CacheHierarchy.restore_dirty`` against its per-line spec: each
    line ``llc.insert(address, data, dirty=True)``, then the writeback of
    a dirty victim, stopping at the first error."""

    @given(case=refills())
    @settings(max_examples=examples(200))
    def test_matches_per_line_inserts(self, case):
        resident, lines, fail_on = case
        bulk, bulk_calls = _recording_hierarchy(fail_on)
        spec, spec_calls = _recording_hierarchy(fail_on)
        for hierarchy in (bulk, spec):
            for address, dirty in resident:
                hierarchy.llc.insert(address, b"old", dirty)

        def per_line():
            for address, data in lines:
                victim = spec.llc.insert(address, data, dirty=True)
                if victim is not None and victim[2]:
                    spec._do_writeback(victim[0], victim[1])

        outcomes = []
        for run in (lambda: bulk.restore_dirty([a for a, _ in lines],
                                               [d for _, d in lines]),
                    per_line):
            try:
                run()
            except (AddressError, _FailingWriteback) as exc:
                outcomes.append((type(exc), str(exc)))
            else:
                outcomes.append(None)
        assert outcomes[0] == outcomes[1]
        assert _lanes(bulk) == _lanes(spec)
        assert bulk_calls == spec_calls

    def test_full_set_writes_back_its_dirty_lru_line(self):
        hierarchy, calls = _recording_hierarchy(None)
        stride = NUM_SETS * 64                       # same set every time
        hierarchy.llc.insert(0, b"clean")
        hierarchy.restore_dirty([stride, 2 * stride, 3 * stride],
                                [b"a", b"b", b"c"])
        # The clean line leaves silently; the first refilled line is then
        # the dirty LRU victim of the third.
        assert calls == [(stride, b"a")]
        assert _lanes(hierarchy)[0][0] == [(2 * stride, b"b"),
                                           (3 * stride, b"c")]

    def test_failing_writeback_leaves_the_line_installed(self):
        """The victim is written back after its replacement went in, so
        a writeback error leaves the refill stopped just past that line."""
        stride = NUM_SETS * 64
        hierarchy, calls = _recording_hierarchy(fail_on=stride)
        with pytest.raises(_FailingWriteback):
            hierarchy.restore_dirty([stride, 2 * stride, 3 * stride,
                                     4 * stride], [b"a", b"b", b"c", b"d"])
        assert calls == [(stride, b"a")]
        assert _lanes(hierarchy) == (
            [[(2 * stride, b"b"), (3 * stride, b"c")], [], [], []],
            {2 * stride, 3 * stride})

    def test_rejects_mismatched_lengths(self):
        hierarchy, _ = _recording_hierarchy(None)
        with pytest.raises(ReproError):
            hierarchy.restore_dirty([0, 64], [b"a"])
        assert len(hierarchy.llc) == 0
