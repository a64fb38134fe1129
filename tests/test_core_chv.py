"""CHV layout and sizing."""

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import AddressError
from repro.common.constants import ADDRESSES_PER_BLOCK
from repro.core.chv import (
    MAC_GROUP_DLM,
    MAC_GROUP_SLM,
    ChvLayout,
    VaultRotation,
    expected_chv_bytes,
)
from repro.mem.regions import MemoryLayout


@pytest.fixture(scope="module")
def chv(tiny_config) -> ChvLayout:
    return ChvLayout.for_layout(MemoryLayout(tiny_config))


class TestCapacity:
    def test_capacity_covers_hierarchy_plus_metadata(self, chv, tiny_config):
        needed = (tiny_config.total_cache_lines
                  + tiny_config.metadata_cache_size // 64)
        # Rounded up to a whole 64-position (DLM) coalescing group.
        assert chv.capacity == -(-needed // 64) * 64

    def test_section_4d_sizing_formula(self, tiny_config):
        """CHV ~= 1.25 x cache + 1.125 x metadata cache for SLM."""
        layout = MemoryLayout(tiny_config)
        assert layout.chv.size >= expected_chv_bytes(tiny_config) * 0.99

    def test_mac_groups(self):
        assert MAC_GROUP_SLM == 8
        assert MAC_GROUP_DLM == 64


class TestPositionalAddressing:
    def test_data_slots_are_contiguous(self, chv):
        assert chv.data_address(1) - chv.data_address(0) == 64
        assert chv.data_address(0) == chv.region.base

    def test_areas_do_not_overlap(self, chv):
        last_data = chv.data_address(chv.capacity - 1)
        first_addr_block = chv.address_block_address(0)
        first_mac_block = chv.mac_block_address(0)
        assert last_data < first_addr_block < first_mac_block

    def test_address_block_covers_eight_positions(self, chv):
        assert chv.address_block_address(0) == chv.address_block_address(0)
        assert (chv.address_block_address(1)
                - chv.address_block_address(0)) == 64

    def test_everything_stays_inside_the_region(self, chv):
        assert chv.region.contains(chv.data_address(chv.capacity - 1))
        last_group = (chv.capacity - 1) // 8
        assert chv.region.contains(chv.address_block_address(last_group))
        assert chv.region.contains(chv.mac_block_address(last_group))

    def test_out_of_capacity_raises(self, chv):
        with pytest.raises(AddressError):
            chv.data_address(chv.capacity)
        with pytest.raises(AddressError):
            chv.data_address(-1)


class TestBulkGroupAddresses:
    """The drain's and recovery's whole-episode group address lists equal
    the per-group scalar chains they replace."""

    @pytest.mark.parametrize("group_size", [MAC_GROUP_SLM, MAC_GROUP_DLM],
                             ids=["slm", "dlm"])
    @pytest.mark.parametrize("rotated", [False, True],
                             ids=["plain", "rotated"])
    @pytest.mark.parametrize("blocks", [1, 63, 65, -1, 0],
                             ids=["one", "63", "65", "capacity-1",
                                  "capacity"])
    def test_bulk_forms_equal_scalar_chains(self, chv, group_size, rotated,
                                            blocks):
        """SLM and DLM, rotated and not; 63, 65 and capacity-1 blocks end
        in a partial final group."""
        count = blocks if blocks > 0 else chv.capacity + blocks
        rotation = VaultRotation.for_episode(chv, 1, rotated,
                                             group_align=group_size)
        assert bool(rotation.offset) is rotated
        address_blocks = -(-count // ADDRESSES_PER_BLOCK)
        mac_blocks = -(-count // group_size)

        groups = rotation.groups(address_blocks, ADDRESSES_PER_BLOCK)
        assert groups == [rotation.address_group(g)
                          for g in range(address_blocks)]
        assert chv.address_block_addresses(groups) == [
            chv.address_block_address(group) for group in groups]

        groups = rotation.groups(mac_blocks, group_size)
        assert groups == [rotation.mac_group(g, group_size)
                          for g in range(mac_blocks)]
        assert chv.mac_block_addresses(groups, group_size) == [
            chv.mac_block_address(group, group_size) for group in groups]

    def test_unrotated_groups_wrap_like_scalar(self, chv):
        rotation = VaultRotation.for_episode(chv, 0, False)
        count = chv.capacity // ADDRESSES_PER_BLOCK + 3
        assert rotation.groups(count, ADDRESSES_PER_BLOCK) == [
            rotation.address_group(g) for g in range(count)]
        assert rotation.groups(count, MAC_GROUP_SLM) == [
            rotation.mac_group(g, MAC_GROUP_SLM) for g in range(count)]

    @pytest.mark.parametrize("group_size", [MAC_GROUP_SLM, MAC_GROUP_DLM],
                             ids=["slm", "dlm"])
    @pytest.mark.parametrize("edge", ["past-end", "negative"])
    def test_out_of_range_group_raises_like_scalar(self, chv, group_size,
                                                   edge):
        """One bad group anywhere in a batch raises the scalar form's
        AddressError, before any address is formed."""
        bulk_cases = (
            (chv.address_block_addresses, chv.address_block_address,
             -(-chv.capacity // ADDRESSES_PER_BLOCK), ()),
            (chv.mac_block_addresses, chv.mac_block_address,
             -(-chv.capacity // group_size), (group_size,)),
        )
        for bulk, scalar, groups, extra in bulk_cases:
            bad = groups if edge == "past-end" else -1
            with pytest.raises(AddressError) as expected:
                scalar(bad, *extra)
            with pytest.raises(AddressError) as raised:
                bulk([0, bad, 1], *extra)
            assert str(raised.value) == str(expected.value)
            assert bulk([], *extra) == []


class TestScaling:
    def test_chv_grows_with_llc(self):
        from repro.common.units import mib
        small = ChvLayout.for_layout(
            MemoryLayout(SystemConfig.scaled(64, llc_size=mib(8))))
        large = ChvLayout.for_layout(
            MemoryLayout(SystemConfig.scaled(64, llc_size=mib(32))))
        assert large.capacity > small.capacity
