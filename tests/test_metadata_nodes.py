"""Tree nodes and sparse defaults."""

import pytest

from repro.common.errors import AddressError
from repro.crypto.primitives import compute_mac
from repro.metadata.nodes import DefaultNodes, TreeNode


class TestTreeNode:
    def test_fresh_node_is_zeroed(self):
        node = TreeNode()
        assert node.to_bytes() == bytes(64)
        assert node.get_slot(0) == bytes(8)

    def test_slot_roundtrip(self):
        node = TreeNode()
        node.set_slot(3, b"\x01" * 8)
        assert node.get_slot(3) == b"\x01" * 8
        assert node.get_slot(2) == bytes(8)

    def test_slots_map_to_byte_ranges(self):
        node = TreeNode()
        node.set_slot(0, b"A" * 8)
        node.set_slot(7, b"B" * 8)
        raw = node.to_bytes()
        assert raw[:8] == b"A" * 8
        assert raw[56:] == b"B" * 8

    def test_rejects_bad_slots_and_sizes(self):
        node = TreeNode()
        with pytest.raises(AddressError):
            node.get_slot(8)
        with pytest.raises(AddressError):
            node.set_slot(-1, bytes(8))
        with pytest.raises(AddressError):
            node.set_slot(0, bytes(7))
        with pytest.raises(AddressError):
            TreeNode(bytes(63))

    def test_equality(self):
        node, twin = TreeNode(), TreeNode()
        node.set_slot(1, b"\x42" * 8)
        twin.set_slot(1, b"\x42" * 8)
        assert twin == node
        twin.set_slot(1, bytes(8))
        assert twin != node


class TestDefaultNodes:
    KEY = b"test-default-key"

    def test_level0_default_is_zero_counter_block(self):
        defaults = DefaultNodes(self.KEY, num_levels=3)
        assert defaults.content(0) == bytes(64)
        assert defaults.mac(0) == compute_mac(self.KEY, bytes(64))

    def test_each_level_is_eight_copies_of_child_mac(self):
        defaults = DefaultNodes(self.KEY, num_levels=3)
        for level in range(1, 4):
            expected = defaults.mac(level - 1) * 8
            assert defaults.content(level) == expected
            assert defaults.mac(level) == compute_mac(
                self.KEY, defaults.content(level))

    def test_levels_differ(self):
        defaults = DefaultNodes(self.KEY, num_levels=4)
        macs = {defaults.mac(level) for level in range(5)}
        assert len(macs) == 5
