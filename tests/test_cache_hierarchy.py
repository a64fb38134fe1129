"""Three-level inclusive cache hierarchy."""

import pytest

from repro.cache import hierarchy as hierarchy_module
from repro.cache.fill import page_of, worst_case_addresses
from repro.cache.hierarchy import CacheHierarchy
from repro.common.errors import ConfigError


@pytest.fixture
def hierarchy(tiny_config) -> CacheHierarchy:
    return CacheHierarchy(tiny_config)


class _MemoryStub:
    """Minimal memory side for run-time tests."""

    def __init__(self):
        self.store: dict[int, bytes] = {}
        self.fetches = 0
        self.writebacks = 0

    def fetch(self, address: int) -> bytes:
        self.fetches += 1
        return self.store.get(address, bytes(64))

    def writeback(self, address: int, data: bytes) -> None:
        self.writebacks += 1
        self.store[address] = data


@pytest.fixture
def attached(hierarchy):
    stub = _MemoryStub()
    hierarchy.attach(stub.fetch, stub.writeback)
    return hierarchy, stub


class TestWorstCaseFill:
    def test_fill_count_is_sum_of_levels(self, hierarchy, tiny_config):
        filled = hierarchy.fill_worst_case(seed=1)
        assert filled == tiny_config.total_cache_lines
        assert len(hierarchy.l1) == tiny_config.l1.num_lines
        assert len(hierarchy.l2) == tiny_config.l2.num_lines
        assert len(hierarchy.llc) == tiny_config.llc.num_lines

    def test_everything_is_dirty(self, hierarchy, tiny_config):
        hierarchy.fill_worst_case(seed=1)
        assert hierarchy.dirty_line_count() == tiny_config.total_cache_lines

    def test_inclusion_holds(self, hierarchy):
        hierarchy.fill_worst_case(seed=1)
        for upper in (hierarchy.l1, hierarchy.l2):
            for address, _, _ in upper.lines():
                assert hierarchy.llc.contains(address)

    def test_llc_lines_have_unique_counter_pages(self, hierarchy):
        hierarchy.fill_worst_case(seed=1)
        pages = [page_of(address) for address, _, _ in hierarchy.llc.lines()]
        assert len(set(pages)) == len(pages)

    def test_overflowing_fill_fails_like_the_scalar_fill(self, tiny_config,
                                                         monkeypatch):
        """A fill with one line too many for a set raises at the same
        insert on both paths and leaves the same lines and dirty lanes."""
        def overflowing(config, allocator):
            addresses = list(worst_case_addresses(config, allocator))
            # Same set as the first line, far from every fill address.
            return addresses + [addresses[0]
                                + config.num_sets * config.line_size * 2**20]

        monkeypatch.setattr(hierarchy_module, "worst_case_addresses_bulk",
                            overflowing)
        monkeypatch.setattr(hierarchy_module, "worst_case_addresses",
                            overflowing)
        outcomes = []
        for batched in (True, False):
            hierarchy = CacheHierarchy(tiny_config)
            with pytest.raises(ConfigError, match="must not evict") as info:
                hierarchy.fill_worst_case(seed=1, batched=batched)
            outcomes.append((str(info.value),
                             [list(level.lines()) for level in hierarchy.levels],
                             [level.dirty for level in hierarchy.levels]))
        assert outcomes[0] == outcomes[1]
        assert 0 < len(outcomes[0][1][2]) < tiny_config.llc.num_lines + 1

    def test_fill_is_deterministic_per_seed(self, tiny_config):
        a = CacheHierarchy(tiny_config)
        b = CacheHierarchy(tiny_config)
        a.fill_worst_case(seed=7)
        b.fill_worst_case(seed=7)
        assert ([address for address, _, _ in a.llc.lines()]
                == [address for address, _, _ in b.llc.lines()])


class TestDrainStream:
    def test_drain_covers_every_dirty_line(self, hierarchy, tiny_config):
        hierarchy.fill_worst_case(seed=1)
        drained = list(hierarchy.drain_lines(seed=2))
        assert len(drained) == tiny_config.total_cache_lines

    def test_drain_order_is_shuffled_but_deterministic(self, hierarchy):
        hierarchy.fill_worst_case(seed=1)
        order_a = [address for address, _ in hierarchy.drain_lines(seed=3)]
        order_b = [address for address, _ in hierarchy.drain_lines(seed=3)]
        order_c = [address for address, _ in hierarchy.drain_lines(seed=4)]
        assert order_a == order_b
        assert order_a != order_c

    def test_duplicates_match_upper_level_content(self, hierarchy):
        hierarchy.fill_worst_case(seed=1)
        from collections import Counter
        counts = Counter(address
                         for address, _ in hierarchy.drain_lines(seed=2))
        extra_flushes = sum(c - 1 for c in counts.values())
        upper_lines = len(hierarchy.l1) + len(hierarchy.l2)
        assert extra_flushes == upper_lines


class TestRuntimePath:
    def test_read_miss_fetches_and_fills_all_levels(self, attached):
        hierarchy, stub = attached
        stub.store[0] = b"\x2a" * 64
        assert hierarchy.read(0) == b"\x2a" * 64
        assert stub.fetches == 1
        assert hierarchy.l1.contains(0)
        assert hierarchy.l2.contains(0)
        assert hierarchy.llc.contains(0)

    def test_read_hit_does_not_fetch_again(self, attached):
        hierarchy, stub = attached
        hierarchy.read(0)
        hierarchy.read(0)
        assert stub.fetches == 1

    def test_write_marks_l1_dirty(self, attached):
        hierarchy, _ = attached
        hierarchy.write(64, b"\x01" * 64)
        assert hierarchy.l1.lookup(64, touch=False) == b"\x01" * 64
        assert 64 in hierarchy.l1.dirty

    def test_write_visible_through_read(self, attached):
        hierarchy, _ = attached
        hierarchy.write(128, b"\x07" * 64)
        assert hierarchy.read(128) == b"\x07" * 64

    def test_capacity_pressure_writes_back_dirty_data(self, attached,
                                                      tiny_config):
        hierarchy, stub = attached
        lines = tiny_config.llc.num_lines + tiny_config.llc.num_sets
        for i in range(lines):
            hierarchy.write(i * 64, i.to_bytes(8, "little") * 8)
        assert stub.writebacks > 0
        # Every written-back block must carry the exact data written.
        for address, data in stub.store.items():
            assert data == (address // 64).to_bytes(8, "little") * 8

    def test_write_rejects_wrong_payload_size(self, attached):
        hierarchy, stub = attached
        with pytest.raises(ValueError, match="64 B"):
            hierarchy.write(0, b"short")
        assert stub.fetches == 0
        assert len(hierarchy) == 0 and not hierarchy.access_counts

    def test_detached_hierarchy_raises(self, hierarchy):
        with pytest.raises(ConfigError):
            hierarchy.read(0)


class TestRestore:
    def test_restore_dirty_places_line_in_llc(self, hierarchy):
        hierarchy.restore_dirty([4096], [b"\x11" * 64])
        assert hierarchy.llc.lookup(4096, touch=False) == b"\x11" * 64
        assert 4096 in hierarchy.llc.dirty

    def test_invalidate_all(self, hierarchy):
        hierarchy.fill_worst_case(seed=1)
        hierarchy.invalidate_all()
        assert len(hierarchy) == 0


class _OrderedMemory:
    """Memory stub that records the exact ordered op stream it sees."""

    def __init__(self):
        self.store: dict[int, bytes] = {}
        self.calls: list[tuple[str, int, bytes | None]] = []

    def fetch(self, address: int) -> bytes:
        self.calls.append(("r", address, None))
        return self.store.get(address, bytes(64))

    def writeback(self, address: int, data: bytes) -> None:
        self.calls.append(("w", address, data))
        self.store[address] = data


def _mixed_ops(seed: int, num_ops: int, pool_blocks: int):
    import random
    rng = random.Random(seed)
    ops = []
    for i in range(num_ops):
        address = rng.randrange(pool_blocks) * 64
        if rng.random() < 0.4:
            ops.append(("w", address, (i + 1).to_bytes(8, "little") * 8))
        else:
            ops.append(("r", address, None))
    return ops


class TestReplayEpochEquivalence:
    """The fused ``replay_epoch`` path must be indistinguishable from the
    scalar read/write loop — same memory-side op stream (in order), same
    memory contents, same hit/miss counters and resident lines."""

    @staticmethod
    def _observe(hierarchy):
        return {
            "counts": dict(hierarchy.access_counts),
            "levels": [(level.name, level.hits, level.misses)
                       for level in hierarchy.levels],
            "lines": [sorted(level.lines()) for level in hierarchy.levels],
        }

    def _run_both(self, tiny_config, ops, epoch_ops):
        scalar = CacheHierarchy(tiny_config)
        scalar_mem = _OrderedMemory()
        scalar.attach(scalar_mem.fetch, scalar_mem.writeback)
        for kind, address, data in ops:
            if kind == "w":
                scalar.write(address, data)
            else:
                scalar.read(address)

        batched = CacheHierarchy(tiny_config)
        batched_mem = _OrderedMemory()
        for start in range(0, len(ops), epoch_ops):
            mem_ops, fills = batched.replay_epoch(ops[start:start + epoch_ops])
            fetched = []
            for kind, address, data in mem_ops:
                if kind == "r":
                    fetched.append(batched_mem.fetch(address))
                else:
                    batched_mem.writeback(address, data)
            batched.resolve_pending(fills, fetched)

        assert scalar_mem.calls == batched_mem.calls
        assert scalar_mem.store == batched_mem.store
        assert self._observe(scalar) == self._observe(batched)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mixed_workload_matches_scalar(self, tiny_config, seed):
        self._run_both(tiny_config, _mixed_ops(seed, 3000, 800),
                       epoch_ops=512)

    def test_all_hit_regime(self, tiny_config):
        # Pool far smaller than L1: after warmup every op hits.
        self._run_both(tiny_config, _mixed_ops(6, 2000, 16), epoch_ops=4096)

    def test_thrash_regime_with_tiny_epochs(self, tiny_config):
        # Pool far larger than the LLC: every epoch spills and refills.
        self._run_both(tiny_config, _mixed_ops(7, 2000, 20000), epoch_ops=64)

    def test_degenerate_epochs(self, tiny_config):
        self._run_both(tiny_config, [], epoch_ops=8)
        self._run_both(tiny_config, [("w", 0, b"\x05" * 64)], epoch_ops=8)
