"""Anubis-style protection and recovery of the metadata-cache content.

With the lazy update scheme the main tree root is stale at a crash, so the
drained metadata-cache image in the shadow region is the authoritative state.
:class:`ShadowRecovery` reads the image back, rebuilds the small cache tree,
compares it with the on-chip root register, and re-installs every line in its
metadata cache — after which the system is exactly as consistent as it was at
the instant of the crash.
"""

from repro.common.constants import CACHE_LINE_SIZE
from repro.common.errors import IntegrityError, RecoveryError
from repro.mem.regions import tree_level_sizes
from repro.metadata.merkle import InMemoryMerkleTree
from repro.stats.events import MacKind, ReadKind


class ShadowRecovery:
    """Restores metadata caches from the shadow dump written at drain time."""

    def __init__(self, controller):
        self._controller = controller
        self.step_hook = None
        """Optional callback ``step_hook(position)`` invoked before each
        restored line (after the whole dump verified).  The campaign engine
        uses it to model a nested power cut
        (:class:`~repro.faults.plan.PowerInterrupt`) mid-restore; the
        shadow count is only cleared once every line is back, so an
        interrupted restore re-runs from the persistent dump."""

    def recover(self) -> int:
        """Read, verify, and restore the dump; returns lines restored."""
        controller = self._controller
        count = controller.shadow_count
        if count == 0:
            return 0
        if controller.cache_tree_root is None:
            raise RecoveryError("no cache-tree root was persisted at drain")

        shadow = controller.layout.shadow
        contents = [
            controller.nvm.read(shadow.block_at(i), ReadKind.SHADOW)
            for i in range(count)
        ]
        address_blocks = -(-count // 8)
        address_payloads: list[bytes] = []
        addresses: list[int] = []
        for i in range(address_blocks):
            raw = controller.nvm.read(shadow.block_at(count + i),
                                      ReadKind.SHADOW)
            address_payloads.append(raw)
            for j in range(8):
                addresses.append(
                    int.from_bytes(raw[j * 8:(j + 1) * 8], "little"))
        addresses = addresses[:count]

        # The address payload blocks are verified leaves alongside the
        # contents (see LazyUpdateScheme.flush_metadata): a tampered or torn
        # address block must fail verification, not re-home a line.
        arity = controller.layout.config.security.tree_arity
        num_leaves = count + address_blocks
        num_macs = num_leaves + sum(tree_level_sizes(num_leaves, arity))
        controller.stats.record_mac(MacKind.CACHE_TREE, num_macs)
        root = InMemoryMerkleTree(contents + address_payloads, arity).root
        if root != controller.cache_tree_root:
            raise IntegrityError(
                "metadata-cache shadow image failed verification")

        for position, (address, content) in enumerate(zip(addresses,
                                                          contents)):
            if self.step_hook is not None:
                self.step_hook(position)
            if len(content) != CACHE_LINE_SIZE:
                raise RecoveryError("short shadow block")
            controller.restore_metadata_line(address, content)
        controller.shadow_count = 0
        return count
