"""Generic in-memory N-ary Merkle tree.

Used for the Anubis-style small tree over the metadata cache (Section II-C)
and as a reference implementation for property-based tests of the
NVM-resident Bonsai tree logic in :mod:`repro.secure`.
"""

from collections.abc import Sequence

from repro.common.errors import ConfigError
from repro.crypto.primitives import MacDomain, compute_mac


class InMemoryMerkleTree:
    """An eager hash tree, every node stored, over a list of leaf payloads."""

    def __init__(self, leaves: Sequence[bytes], arity: int = 8,
                 key: bytes = b"repro-merkle") -> None:
        if arity < 2:
            raise ConfigError(f"arity must be >= 2, got {arity}")
        if not leaves:
            raise ConfigError("tree needs at least one leaf")
        self._arity = arity
        self._key = key
        self._leaves = [bytes(leaf) for leaf in leaves]
        self._levels: list[list[bytes]] = []
        self._build()

    def _hash_group(self, group: Sequence[bytes]) -> bytes:
        return compute_mac(self._key, *group, domain=MacDomain.NODE)

    def _build(self) -> None:
        self._levels = [[self._hash_group([leaf]) for leaf in self._leaves]]
        while len(self._levels[-1]) > 1:
            below = self._levels[-1]
            level = [
                self._hash_group(below[i:i + self._arity])
                for i in range(0, len(below), self._arity)
            ]
            self._levels.append(level)

    @property
    def num_leaves(self) -> int:
        return len(self._leaves)

    @property
    def num_levels(self) -> int:
        """Hash levels including the root level."""
        return len(self._levels)

    @property
    def root(self) -> bytes:
        return self._levels[-1][0]

    @property
    def num_hashes(self) -> int:
        """Total MAC computations an eager build performs (for accounting)."""
        return sum(len(level) for level in self._levels)
