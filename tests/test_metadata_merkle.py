"""Generic in-memory Merkle tree."""

import pytest

from repro.common.errors import ConfigError
from repro.metadata.merkle import InMemoryMerkleTree


def _leaves(n: int) -> list[bytes]:
    return [i.to_bytes(8, "little") * 8 for i in range(n)]


class TestConstruction:
    def test_single_leaf(self):
        tree = InMemoryMerkleTree(_leaves(1))
        assert tree.num_leaves == 1
        assert tree.num_levels == 1
        assert len(tree.root) == 8

    def test_level_structure_8ary(self):
        tree = InMemoryMerkleTree(_leaves(64))
        assert tree.num_leaves == 64
        # 64 leaf hashes -> 8 -> 1
        assert tree.num_levels == 3
        assert tree.num_hashes == 64 + 8 + 1

    def test_partial_levels_round_up(self):
        tree = InMemoryMerkleTree(_leaves(9))
        assert tree.num_leaves == 9
        # 9 leaf hashes -> 2 group hashes -> 1 root
        assert tree.num_levels == 3
        assert tree.num_hashes == 9 + 2 + 1

    def test_arity_changes_shape(self):
        binary = InMemoryMerkleTree(_leaves(8), arity=2)
        assert binary.num_levels == 4  # 8 -> 4 -> 2 -> 1

    def test_rejects_empty_and_bad_arity(self):
        with pytest.raises(ConfigError):
            InMemoryMerkleTree([])
        with pytest.raises(ConfigError):
            InMemoryMerkleTree(_leaves(2), arity=1)


class TestRootProperties:
    def test_deterministic(self):
        assert InMemoryMerkleTree(_leaves(20)).root == \
            InMemoryMerkleTree(_leaves(20)).root

    def test_any_leaf_change_changes_root(self):
        base = InMemoryMerkleTree(_leaves(20)).root
        for index in (0, 10, 19):
            leaves = _leaves(20)
            leaves[index] = b"\xff" * 64
            assert InMemoryMerkleTree(leaves).root != base

    def test_leaf_order_matters(self):
        leaves = _leaves(16)
        swapped = list(leaves)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        assert InMemoryMerkleTree(leaves).root != \
            InMemoryMerkleTree(swapped).root

    def test_key_separation(self):
        assert InMemoryMerkleTree(_leaves(4), key=b"k1").root != \
            InMemoryMerkleTree(_leaves(4), key=b"k2").root
