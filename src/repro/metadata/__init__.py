"""Security-metadata substrate: sparse tree-node defaults, Merkle trees.

The metadata caches themselves are data-cache lanes
(:class:`~repro.cache.cache.SetAssociativeCache`) owned by the secure
controller; tree nodes and MAC blocks live there as 64 B ``bytes``.
"""

from repro.metadata.merkle import InMemoryMerkleTree
from repro.metadata.nodes import DefaultNodes

__all__ = [
    "InMemoryMerkleTree",
    "DefaultNodes",
]
