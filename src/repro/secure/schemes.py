"""Integrity-tree update schemes (Section II-C).

*Eager*: every data write propagates fresh MACs up the whole tree path, so
the on-chip root is always consistent with memory — simple recovery, many MAC
computations.

*Lazy*: a write only dirties the cached counter block; parents are updated
when dirty children are evicted.  Fast at run time, but the root is stale at
a crash, so draining must protect the metadata-cache content with a small
eagerly-maintained tree (Anubis-style) and dump it to a reserved region.

The scheme objects hold no state of their own; they are strategy hooks the
:class:`~repro.secure.controller.SecureMemoryController` calls at the three
points where the schemes differ.
"""

from abc import ABC, abstractmethod

from repro.mem.regions import tree_level_sizes
from repro.metadata.merkle import InMemoryMerkleTree
from repro.stats.events import MacKind, WriteKind


class UpdateScheme(ABC):
    """Strategy interface for integrity-tree maintenance."""

    name: str = "abstract"

    @abstractmethod
    def on_data_write(self, controller, cb_address: int) -> None:
        """Called after a data write stored its incremented counter block,
        resident at ``cb_address`` in the counter cache."""

    @abstractmethod
    def needs_parent_update_on_writeback(self) -> bool:
        """Whether a dirty metadata writeback must refresh its parent slot."""

    @abstractmethod
    def flush_metadata(self, controller) -> None:
        """Drain-time step 2: make the metadata-cache state recoverable."""


class EagerUpdateScheme(UpdateScheme):
    """Update the whole path to the root on every write."""

    name = "eager"

    def on_data_write(self, controller, cb_address: int) -> None:
        controller.counter_cache.dirty.add(cb_address)
        controller.propagate_to_root(cb_address)

    def needs_parent_update_on_writeback(self) -> bool:
        return False

    def flush_metadata(self, controller) -> None:
        """The root is current: dirty metadata flushes to its home addresses."""
        for cache, kind in (
            (controller.counter_cache, WriteKind.COUNTER),
            (controller.tree_cache, WriteKind.TREE_NODE),
            (controller.mac_cache, WriteKind.DATA_MAC),
        ):
            flush_dirty(controller, cache, kind)


class LazyUpdateScheme(UpdateScheme):
    """Defer parent updates to dirty evictions; Anubis-protect the cache."""

    name = "lazy"

    def on_data_write(self, controller, cb_address: int) -> None:
        controller.counter_cache.dirty.add(cb_address)

    def needs_parent_update_on_writeback(self) -> bool:
        return True

    def flush_metadata(self, controller) -> None:
        """Hash the metadata-cache content with a small eager tree and dump
        it (content + addresses) to the reserved shadow region.

        The address payload blocks are tree leaves too: the address is what
        tells recovery *where* a line belongs, so an unauthenticated address
        block would let a crash (or adversary) silently re-home restored
        metadata.
        """
        addresses: list[int] = []
        leaves: list[bytes] = []
        for cache in controller.metadata_caches:
            for address, content, _ in controller.metadata_lines(cache):
                addresses.append(address)
                leaves.append(content)
        if not leaves:
            controller.cache_tree_root = None
            return
        count = len(leaves)

        # One 64 B block of 8 original addresses per 8 dumped lines, so
        # recovery can put the content back where it belongs.
        for start in range(0, count, 8):
            payload = b"".join(address.to_bytes(8, "little")
                               for address in addresses[start:start + 8])
            leaves.append(payload.ljust(64, b"\0"))

        arity = controller.layout.config.security.tree_arity
        num_leaves = len(leaves)
        num_macs = num_leaves + sum(tree_level_sizes(num_leaves, arity))
        controller.stats.record_mac(MacKind.CACHE_TREE, num_macs)
        controller.cache_tree_root = InMemoryMerkleTree(leaves, arity).root

        shadow = controller.layout.shadow
        for index, payload in enumerate(leaves):
            controller.nvm.write(shadow.block_at(index), payload,
                                 WriteKind.SHADOW)
        controller.shadow_count = count


def flush_dirty(controller, cache, kind: WriteKind) -> None:
    """Write ``cache``'s dirty lines to their home addresses, in set order
    then LRU order, each marked clean once written."""
    for address, content, dirty in controller.metadata_lines(cache):
        if dirty:
            controller.nvm.write(address, content, kind)
            cache.dirty.discard(address)


def make_scheme(name: str) -> UpdateScheme:
    """Factory: ``"lazy"`` or ``"eager"``."""
    schemes = {"lazy": LazyUpdateScheme, "eager": EagerUpdateScheme}
    try:
        return schemes[name]()
    except KeyError:
        raise ValueError(
            f"unknown update scheme {name!r}; expected one of {sorted(schemes)}"
        ) from None
