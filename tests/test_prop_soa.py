"""Property-based equivalence: the fused epoch pass vs the scalar spec.

The scalar :class:`~repro.cache.hierarchy.CacheHierarchy` read/write loop
is the specification; :meth:`~repro.cache.hierarchy.CacheHierarchy.replay_epoch`
runs the same ops straight on the same level lanes and must leave
*identical* observables on every op sequence — hit/miss counters,
``access_counts``, per-set LRU→MRU orders, payloads, dirty bits, the
emitted memory-op stream (order included), and the memory image after
applying it.  Degenerate geometries (single way, single set), duplicate
addresses, arbitrary epoch boundaries, and scalar calls interleaved between
epochs are exactly where a transcription bug would hide, so the strategies
bias hard toward them.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.cache import decompose_sets
from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import CacheConfig, MemoryConfig, SystemConfig
from repro.common.constants import CACHE_LINE_SIZE
from repro.crypto import arena
from tests.conftest import examples

LINE = CACHE_LINE_SIZE


def _config(l1_lines: int, l1_ways: int, l2_lines: int, l2_ways: int,
            llc_lines: int, llc_ways: int) -> SystemConfig:
    return SystemConfig(
        l1=CacheConfig("L1", l1_lines * LINE, l1_ways, 2),
        l2=CacheConfig("L2", l2_lines * LINE, l2_ways, 20),
        llc=CacheConfig("LLC", llc_lines * LINE, llc_ways, 32),
        memory=MemoryConfig(size=llc_lines * LINE * 4))


#: Small inclusive geometries, including the degenerate extremes: direct
#: mapped everywhere (1 way) and fully associative everywhere (1 set).
GEOMETRIES = {
    "mixed": _config(4, 2, 8, 2, 16, 4),
    "direct-mapped": _config(2, 1, 4, 1, 8, 1),
    "single-set": _config(2, 2, 4, 4, 8, 8),
}


class _Memory:
    """Memory side that records its op stream in issue order."""

    def __init__(self):
        self.store: dict[int, bytes] = {}
        self.log: list = []

    def fetch(self, address: int) -> bytes:
        data = self.store.get(address, bytes(LINE))
        self.log.append(("r", address))
        return data

    def writeback(self, address: int, data: bytes) -> None:
        self.log.append(("w", address))
        self.store[address] = data


def _attached(config: SystemConfig) -> tuple[CacheHierarchy, _Memory]:
    hierarchy = CacheHierarchy(config)
    memory = _Memory()
    hierarchy.attach(memory.fetch, memory.writeback)
    return hierarchy, memory


def _apply_mem_ops(memory: _Memory, mem_ops) -> list:
    """Run an epoch's deferred memory stream exactly as emitted."""
    fetched = []
    for kind, address, data in mem_ops:
        if kind == "r":
            fetched.append(memory.fetch(address))
        else:
            memory.writeback(address, data)
    return fetched


def _state(hierarchy: CacheHierarchy, memory: _Memory) -> dict:
    for level in hierarchy.levels:
        resident = {address for lane in level.sets for address in lane}
        assert level.dirty <= resident, "dirty lane names an absent line"
    return {
        "levels": [(level.name, level.hits, level.misses)
                   for level in hierarchy.levels],
        "access": dict(hierarchy.access_counts),
        "sets": [
            [[(address, bytes(data), address in level.dirty)
              for address, data in lane.items()]
             for lane in level.sets]
            for level in hierarchy.levels],
        "store": dict(memory.store),
        "log": list(memory.log),
    }


@st.composite
def op_sequences(draw, pool_lines: int, min_size=0, max_size=40):
    """Op tuples over a pool sized to force conflicts and duplicates."""
    pool = [i * LINE for i in range(pool_lines)]
    size = draw(st.integers(min_size, max_size))
    ops = []
    for i in range(size):
        address = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            ops.append(("w", address, bytes([i % 251]) * LINE))
        else:
            ops.append(("r", address, None))
    return ops


def _scalar_ops(hierarchy: CacheHierarchy, ops) -> None:
    for kind, address, data in ops:
        if kind == "w":
            hierarchy.write(address, data)
        else:
            hierarchy.read(address)


def _epoch(hierarchy: CacheHierarchy, memory: _Memory, ops) -> None:
    mem_ops, fills = hierarchy.replay_epoch(list(ops))
    hierarchy.resolve_pending(fills, _apply_mem_ops(memory, mem_ops))


def _run_scalar(config: SystemConfig, ops) -> dict:
    hierarchy, memory = _attached(config)
    _scalar_ops(hierarchy, ops)
    return _state(hierarchy, memory)


def _run_epochs(config: SystemConfig, ops, epoch_ops: int) -> dict:
    hierarchy, memory = _attached(config)
    for start in range(0, len(ops), epoch_ops):
        _epoch(hierarchy, memory, ops[start:start + epoch_ops])
    return _state(hierarchy, memory)


class TestEpochMatchesScalar:
    """replay_epoch vs the per-op read/write loop, state for state."""

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @given(ops=op_sequences(pool_lines=24), epoch_ops=st.integers(1, 9))
    @settings(max_examples=examples(40), deadline=None)
    def test_identical_observables(self, geometry, ops, epoch_ops):
        config = GEOMETRIES[geometry]
        assert _run_epochs(config, ops, epoch_ops) == \
            _run_scalar(config, ops)

    @given(ops=op_sequences(pool_lines=3, max_size=30))
    @settings(max_examples=examples(25), deadline=None)
    def test_duplicate_heavy_sequences(self, ops):
        """A three-address pool: nearly every op revisits a line, so LRU
        touches, merge-without-touch stores, and same-epoch refills all
        trigger constantly."""
        config = GEOMETRIES["direct-mapped"]
        assert _run_epochs(config, ops, 4) == _run_scalar(config, ops)

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @given(ops=op_sequences(pool_lines=24, min_size=1),
           epoch_ops=st.integers(1, 9),
           fused=st.lists(st.booleans(), min_size=1, max_size=6))
    @settings(max_examples=examples(40), deadline=None)
    def test_scalar_calls_between_epochs(self, geometry, ops, epoch_ops,
                                         fused):
        """One hierarchy alternates fused epochs with scalar read()/write()
        chunks (``fused`` cycles over the chunks) and still matches a
        scalar-only run: both act on the one lane state, so no boundary
        sits between them."""
        config = GEOMETRIES[geometry]
        hierarchy, memory = _attached(config)
        for chunk, start in enumerate(range(0, len(ops), epoch_ops)):
            part = ops[start:start + epoch_ops]
            if fused[chunk % len(fused)]:
                _epoch(hierarchy, memory, part)
            else:
                _scalar_ops(hierarchy, part)
        assert _state(hierarchy, memory) == _run_scalar(config, ops)


class TestDecomposeSets:
    @pytest.mark.parametrize("numpy_less", [False, True],
                             ids=["lanes", "pure"])
    @given(addresses=st.lists(st.integers(0, 2**64 - 1), max_size=24),
           geometries=st.lists(
               st.tuples(st.sampled_from([32, 64, 128, 256]),
                         st.sampled_from([1, 2, 8, 64])),
               min_size=1, max_size=3))
    @settings(max_examples=examples(100),
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_scalar_formula(self, monkeypatch, numpy_less,
                                    addresses, geometries):
        """Setting the arena's numpy handle to None is exactly a
        numpy-less install; the patch is the same for every example, so
        it is not reset between them."""
        if numpy_less:
            monkeypatch.setattr(arena, "_np", None)
        assert decompose_sets(addresses, geometries) == [
            [a // line_size % num_sets for a in addresses]
            for line_size, num_sets in geometries]

    def test_oversized_addresses_fall_back(self):
        """Anything numpy u64 cannot hold takes the pure-Python path and
        still decomposes correctly."""
        addresses = [2**70, 5 * LINE, 2**64]
        assert decompose_sets(addresses, [(64, 8)]) == [
            [a // 64 % 8 for a in addresses]]

    def test_empty_and_singleton(self):
        assert decompose_sets([], [(64, 8)]) == [[]]
        assert decompose_sets([128], [(64, 8)]) == [[2]]
