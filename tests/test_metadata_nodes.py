"""Sparse tree-node defaults."""

from repro.crypto.primitives import MacDomain, compute_mac
from repro.metadata.nodes import DefaultNodes


class TestDefaultNodes:
    KEY = b"test-default-key"

    def test_level0_default_is_zero_counter_block(self):
        defaults = DefaultNodes(self.KEY, num_levels=3)
        assert defaults.content(0) == bytes(64)
        assert defaults.mac(0) == compute_mac(self.KEY, bytes(64),
                                             domain=MacDomain.NODE)

    def test_each_level_is_eight_copies_of_child_mac(self):
        defaults = DefaultNodes(self.KEY, num_levels=3)
        for level in range(1, 4):
            expected = defaults.mac(level - 1) * 8
            assert defaults.content(level) == expected
            assert defaults.mac(level) == compute_mac(
                self.KEY, defaults.content(level), domain=MacDomain.NODE)

    def test_levels_differ(self):
        defaults = DefaultNodes(self.KEY, num_levels=4)
        macs = {defaults.mac(level) for level in range(5)}
        assert len(macs) == 5
