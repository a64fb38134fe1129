"""Worst-case fill patterns: the property that drives the whole paper."""

import pytest

from repro.cache.fill import (
    PageAllocator,
    make_allocator,
    page_of,
    worst_case_addresses,
    worst_case_addresses_bulk,
)
from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.crypto import arena


class TestPageAllocator:
    def test_never_repeats(self):
        allocator = PageAllocator(1000)
        pages = [allocator.allocate() for _ in range(100)]
        assert len(set(pages)) == 100

    def test_congruence_is_honored(self):
        allocator = PageAllocator(10000)
        for _ in range(20):
            assert allocator.allocate(residue=3, period=8) % 8 == 3

    def test_mixed_periods_never_collide(self):
        allocator = PageAllocator(10000)
        pages = [allocator.allocate(0, 1) for _ in range(50)]
        pages += [allocator.allocate(0, 8) for _ in range(50)]
        pages += [allocator.allocate(2, 4) for _ in range(50)]
        assert len(set(pages)) == 150

    def test_exhaustion_raises(self):
        allocator = PageAllocator(4)
        for _ in range(4):
            allocator.allocate()
        with pytest.raises(ConfigError):
            allocator.allocate()


class TestWorstCaseAddresses:
    @pytest.fixture(scope="class", params=[512, 128])
    def config(self, request) -> SystemConfig:
        return SystemConfig.scaled(request.param)

    def test_fills_every_set_exactly(self, config):
        cache = config.llc
        addresses = list(worst_case_addresses(cache, make_allocator(config)))
        assert len(addresses) == cache.num_lines
        per_set: dict[int, int] = {}
        for addr in addresses:
            s = (addr // 64) % cache.num_sets
            per_set[s] = per_set.get(s, 0) + 1
        assert set(per_set.values()) == {cache.ways}
        assert len(per_set) == cache.num_sets

    def test_every_line_in_its_own_counter_page(self, config):
        """THE worst-case property: no two lines share a 4 KiB counter page,
        so every flushed line misses in the counter cache."""
        addresses = list(worst_case_addresses(config.llc,
                                              make_allocator(config)))
        pages = [page_of(a) for a in addresses]
        assert len(set(pages)) == len(pages)

    def test_addresses_stay_in_data_region(self, config):
        for addr in worst_case_addresses(config.llc, make_allocator(config)):
            assert 0 <= addr < config.memory.size
            assert addr % 64 == 0

    def test_shared_allocator_keeps_levels_disjoint(self, config):
        allocator = make_allocator(config)
        llc = set(worst_case_addresses(config.llc, allocator))
        l2 = set(worst_case_addresses(config.l2, allocator))
        assert not llc & l2
        assert len({page_of(a) for a in llc | l2}) == len(llc) + len(l2)


class TestWorstCaseAddressesBulk:
    """The closed-form bulk fill vs the scalar generator spec."""

    @pytest.mark.parametrize("scale", [512, 128, 16])
    @pytest.mark.parametrize("level", ["l1", "l2", "llc"])
    def test_bulk_equals_generator(self, scale, level):
        config = SystemConfig.scaled(scale)
        scalar_alloc = make_allocator(config)
        bulk_alloc = make_allocator(config)
        level_config = getattr(config, level)
        expected = list(worst_case_addresses(level_config, scalar_alloc))
        got = worst_case_addresses_bulk(level_config, bulk_alloc)
        assert got == expected
        assert bulk_alloc.used == scalar_alloc.used
        assert bulk_alloc._taken == scalar_alloc._taken
        assert bulk_alloc._next_free == scalar_alloc._next_free

    def test_used_allocator_falls_back_and_stays_identical(self):
        """A non-fresh allocator has cursors the closed form cannot
        reconstruct; the bulk form must still match the generator."""
        config = SystemConfig.scaled(128)
        scalar_alloc = make_allocator(config)
        bulk_alloc = make_allocator(config)
        for allocator in (scalar_alloc, bulk_alloc):
            allocator.allocate(0, 1)
        assert not bulk_alloc.fresh
        expected = list(worst_case_addresses(config.llc, scalar_alloc))
        assert worst_case_addresses_bulk(config.llc, bulk_alloc) == expected
        assert bulk_alloc._taken == scalar_alloc._taken

    @pytest.mark.parametrize("scale", [512, 256, 128, 64])
    def test_pure_python_leg_matches(self, monkeypatch, scale):
        """A numpy-less install (the pure-python CI leg) produces the same
        fill, and both equal the scalar generator."""
        config = SystemConfig.scaled(scale)
        fast = worst_case_addresses_bulk(config.llc, make_allocator(config))
        monkeypatch.setattr(arena, "_np", None)
        pure = worst_case_addresses_bulk(config.llc, make_allocator(config))
        assert pure == fast
        assert pure == list(worst_case_addresses(config.llc,
                                                 make_allocator(config)))

    def test_fresh_flag(self):
        allocator = make_allocator(SystemConfig.scaled(128))
        assert allocator.fresh
        allocator.allocate()
        assert not allocator.fresh
