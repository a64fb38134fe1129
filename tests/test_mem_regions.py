"""Physical address-space layout."""

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import AddressError
from repro.mem.regions import MemoryLayout, tree_level_sizes


@pytest.fixture(scope="module")
def layout() -> MemoryLayout:
    return MemoryLayout(SystemConfig.scaled(512))


@pytest.fixture(scope="module")
def paper_layout() -> MemoryLayout:
    return MemoryLayout(SystemConfig.paper())


class TestTreeLevelSizes:
    def test_single_leaf(self):
        assert tree_level_sizes(1) == [1]

    def test_exact_power(self):
        assert tree_level_sizes(64) == [8, 1]
        assert tree_level_sizes(512) == [64, 8, 1]

    def test_rounds_up_partial_levels(self):
        assert tree_level_sizes(9) == [2, 1]
        assert tree_level_sizes(65) == [9, 2, 1]

    def test_paper_scale_tree_depth(self, paper_layout):
        """32 GB / 4 KiB pages = 8M counter blocks; with the counter level
        and the on-chip root that is the paper's 10-level structure."""
        assert paper_layout.num_counter_blocks == 8 * 1024 * 1024
        # node levels: 1M, 128K, 16K, 2K, 256, 32, 4, 1
        assert paper_layout.num_tree_levels == 8
        assert paper_layout.tree_levels[0] == 1024 * 1024
        assert paper_layout.tree_levels[-1] == 1


class TestRegionDisjointness:
    def test_regions_are_contiguous_and_disjoint(self, layout):
        regions = sorted(layout.regions, key=lambda r: r.base)
        for a, b in zip(regions, regions[1:]):
            assert a.end <= b.base or a.end == b.base
        assert regions[0].base == 0
        assert regions[-1].end == layout.total_size

    def test_classify_each_region(self, layout):
        for region in layout.regions:
            if region.size:
                assert layout.classify(region.base) == region.name

    def test_classify_rejects_out_of_range(self, layout):
        with pytest.raises(AddressError):
            layout.classify(layout.total_size)

    @pytest.mark.parametrize("config", [SystemConfig.scaled(512),
                                        SystemConfig.paper()],
                             ids=["scaled-512", "paper"])
    def test_classify_matches_a_linear_region_scan(self, config):
        """The bisection over region bases names the same region as a scan
        of ``Region.contains``, and fails the same way outside them all."""
        layout = MemoryLayout(config)

        def linear(address):
            for region in layout.regions:
                if region.contains(address):
                    return region.name
            raise AddressError(f"{address:#x} outside all regions")

        probes = [-64]
        for region in layout.regions:
            probes += [region.base, region.end - 64, region.end]
        for address in probes:
            try:
                expected = linear(address)
            except AddressError as exc:
                with pytest.raises(AddressError, match=str(exc)):
                    layout.classify(address)
            else:
                assert layout.classify(address) == expected, hex(address)


class TestCounterMapping:
    def test_one_counter_block_per_4k_page(self, layout):
        assert layout.counter_block_address(0) == \
            layout.counter_block_address(4095 // 64 * 64)
        assert layout.counter_block_address(0) != \
            layout.counter_block_address(4096)

    def test_counter_slot_walks_the_page(self, layout):
        assert layout.counter_slot(0) == 0
        assert layout.counter_slot(64) == 1
        assert layout.counter_slot(63 * 64) == 63
        assert layout.counter_slot(4096) == 0

    def test_counter_addresses_land_in_counter_region(self, layout):
        for data in (0, 4096, 1 << 20):
            assert layout.counters.contains(layout.counter_block_address(data))

    def test_rejects_non_data_address(self, layout):
        with pytest.raises(AddressError):
            layout.counter_block_address(layout.counters.base)


class TestMacMapping:
    def test_eight_macs_per_block(self, layout):
        base = layout.mac_block_address(0)
        for i in range(8):
            assert layout.mac_block_address(i * 64) == base
            assert layout.mac_slot(i * 64) == i
        assert layout.mac_block_address(8 * 64) == base + 64

    def test_mac_addresses_land_in_mac_region(self, layout):
        assert layout.macs.contains(layout.mac_block_address(0))


class TestTreeNodeAddressing:
    def test_coords_roundtrip(self, layout):
        for level in range(1, layout.num_tree_levels + 1):
            for index in (0, layout.tree_levels[level - 1] - 1):
                addr = layout.tree_node_address(level, index)
                assert layout.tree_node_coords(addr) == (level, index)

    def test_parent_of_counter_block(self, layout):
        cb0 = layout.counters.base
        cb9 = layout.counters.base + 9 * 64
        assert layout.parent_of_counter_block(cb0) == (1, 0, 0)
        assert layout.parent_of_counter_block(cb9) == (1, 1, 1)

    def test_parent_chain_reaches_root(self, layout):
        level, index = 1, layout.tree_levels[0] - 1
        seen = 0
        while level < layout.num_tree_levels:
            level, index, slot = layout.parent_of_tree_node(level, index)
            assert 0 <= slot < 8
            seen += 1
        assert index == 0  # the root
        assert seen == layout.num_tree_levels - 1

    def test_root_has_no_parent(self, layout):
        with pytest.raises(AddressError):
            layout.parent_of_tree_node(layout.num_tree_levels, 0)

    def test_rejects_bad_level_or_index(self, layout):
        with pytest.raises(AddressError):
            layout.tree_node_address(0, 0)
        with pytest.raises(AddressError):
            layout.tree_node_address(1, layout.tree_levels[0])


class TestChvSizing:
    def test_chv_covers_every_flushable_block(self, layout):
        config = layout.config
        capacity_needed = (config.total_cache_lines
                           + config.metadata_cache_size // 64)
        # data + 1/8 addresses + 1/8 MACs, in bytes
        assert layout.chv.size >= capacity_needed * 80
