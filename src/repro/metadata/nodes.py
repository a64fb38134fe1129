"""Sparse integrity-tree defaults.

A tree node is one 64 B ``bytes`` value holding 8 slots of 8 B MACs — slot
``j`` of node ``(level, i)`` authenticates child ``8*i + j`` one level down
(counter blocks below level 1).

Because the simulated NVM is sparse, nodes that were never written must read
back as their *default* content: the node value of an all-zero-counter
subtree.  :class:`DefaultNodes` precomputes, per level, that default content
and its MAC, so a 32 GB address space needs no materialization.
"""

from repro.common.constants import CACHE_LINE_SIZE, MACS_PER_BLOCK
from repro.crypto.primitives import MacDomain, compute_mac


class DefaultNodes:
    """Default (all-zero-subtree) node content and MAC per tree level.

    Level 0 is the counter-block level: its default content is an all-zero
    counter block.  Level ``l >= 1`` defaults to a node whose 8 slots all hold
    the default MAC of level ``l - 1``.  These are computed once with the MAC
    key, outside any accounted episode (boot-time initialization).
    """

    def __init__(self, mac_key: bytes, num_levels: int) -> None:
        self._contents: list[bytes] = [bytes(CACHE_LINE_SIZE)]
        self._macs: list[bytes] = [self._digest(mac_key, self._contents[0])]
        for _ in range(num_levels):
            content = self._macs[-1] * MACS_PER_BLOCK
            self._contents.append(content)
            self._macs.append(self._digest(mac_key, content))

    @staticmethod
    def _digest(key: bytes, content: bytes) -> bytes:
        # Tree-node domain: defaults must be interchangeable with the MACs
        # the engine computes for live nodes, and with nothing else.
        return compute_mac(key, content, domain=MacDomain.NODE)

    def content(self, level: int) -> bytes:
        """Default 64 B content of a node at ``level`` (0 = counter block)."""
        return self._contents[level]

    def mac(self, level: int) -> bytes:
        """MAC of the default content at ``level``."""
        return self._macs[level]
