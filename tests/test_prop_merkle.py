"""Property-based tests: the in-memory Merkle tree."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metadata.merkle import InMemoryMerkleTree

leaf = st.binary(min_size=64, max_size=64)
leaf_lists = st.lists(leaf, min_size=1, max_size=40)


class TestMerkleProperties:
    @given(leaf_lists)
    @settings(max_examples=50)
    def test_build_is_deterministic(self, leaves):
        assert InMemoryMerkleTree(leaves).root == \
            InMemoryMerkleTree(leaves).root

    @given(leaf_lists, st.data())
    @settings(max_examples=50)
    def test_any_leaf_mutation_changes_root(self, leaves, data):
        tree = InMemoryMerkleTree(leaves)
        index = data.draw(st.integers(0, len(leaves) - 1))
        mutated = list(leaves)
        flipped = bytearray(mutated[index])
        flipped[0] ^= 0x01
        mutated[index] = bytes(flipped)
        assert InMemoryMerkleTree(mutated).root != tree.root

    @given(st.lists(leaf, min_size=2, max_size=40), st.data())
    @settings(max_examples=50)
    def test_leaf_transposition_changes_root(self, leaves, data):
        i = data.draw(st.integers(0, len(leaves) - 2))
        if leaves[i] == leaves[i + 1]:
            return  # identical leaves commute trivially
        swapped = list(leaves)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        assert InMemoryMerkleTree(leaves).root != \
            InMemoryMerkleTree(swapped).root

    @given(leaf_lists, st.integers(2, 16))
    @settings(max_examples=50)
    def test_hash_count_matches_level_structure(self, leaves, arity):
        tree = InMemoryMerkleTree(leaves, arity=arity)
        expected, level = 0, len(leaves)
        expected += level
        while level > 1:
            level = -(-level // arity)
            expected += level
        if len(leaves) == 1:
            expected = 1
        assert tree.num_hashes == expected
