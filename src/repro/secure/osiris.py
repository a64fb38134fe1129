"""Osiris-style counter recovery (paper ref [34], used per Section II-C).

Osiris observes that encryption counters need not be persisted on every
write: with a *stop-loss* of K, the NVM copy of a counter is at most K
increments stale, and the correct value is recoverable after a crash by
trying the K+1 candidates against the data block's MAC (which is computed
over ciphertext, address, and counter, so exactly one candidate verifies).

This gives the lazy scheme an alternative to the Anubis-style shadow dump:
nothing extra is written at drain time, at the price of a recovery pass that
(1) trial-verifies counters and (2) rebuilds the integrity tree over every
written counter block — the availability-vs-drain-budget trade-off the
paper's goals enumerate.

:class:`OsirisLazyScheme` adds the stop-loss write-through to the lazy
scheme; :class:`OsirisRecovery` performs the post-crash reconstruction.
"""

from dataclasses import dataclass

from repro.common.constants import CACHE_LINE_SIZE, COUNTER_BLOCK_COVERAGE
from repro.common.errors import ConfigError, RecoveryError
from repro.crypto.counters import SplitCounterBlock
from repro.crypto.primitives import MacDomain
from repro.secure.schemes import LazyUpdateScheme
from repro.stats.counters import SimStats
from repro.stats.events import MacKind, ReadKind, WriteKind

DEFAULT_STOP_LOSS = 8


class OsirisLazyScheme(LazyUpdateScheme):
    """Lazy tree updates + stop-loss counter write-through, no shadow dump."""

    name = "osiris"

    def __init__(self, stop_loss: int = DEFAULT_STOP_LOSS):
        if stop_loss <= 0:
            raise ConfigError("stop-loss must be positive")
        self.stop_loss = stop_loss

    def on_data_write(self, controller, counter_line) -> None:
        counter_line.dirty = True
        block = counter_line.value
        # Persist the counter block every stop_loss-th update, so the NVM
        # copy is never more than stop_loss-1 increments behind; also force
        # a persist right after a minor-counter overflow (the page was just
        # re-encrypted under a new major, and recovery's candidate trial
        # must never have to cross a minor-counter wrap).
        # Persist every stop_loss-th update of the block.  A never-persisted
        # block reads back as all-zero counters, which is itself a valid
        # stale state within stop-loss of the truth — recovery enumerates
        # touched counter blocks from the written *data* addresses, so
        # nothing needs to persist on first touch.
        total = sum(block.minors) + block.major
        just_overflowed = block.major > 0 and max(block.minors) == 0
        if total % self.stop_loss == 0 or just_overflowed:
            controller.nvm.write(counter_line.address,
                                 block.to_bytes(), WriteKind.COUNTER)

    def flush_metadata(self, controller) -> None:
        """No shadow dump — but the data MACs are the recovery oracle, so
        dirty MAC blocks flush to their home addresses (cheap: 8 data MACs
        per block).  Counters and tree nodes are reconstructed instead."""
        for line in controller.mac_cache.dirty_lines():
            controller.nvm.write(line.address, controller.line_bytes(line),
                                 WriteKind.DATA_MAC)
            line.dirty = False
        controller.cache_tree_root = None
        controller.shadow_count = 0


@dataclass(frozen=True)
class OsirisRecoveryReport:
    """What the reconstruction pass did."""

    counters_recovered: int
    trials: int
    tree_nodes_rebuilt: int
    stats: SimStats


class OsirisRecovery:
    """Post-crash counter reconstruction + full tree rebuild."""

    def __init__(self, controller, stop_loss: int = DEFAULT_STOP_LOSS):
        if stop_loss <= 0:
            raise ConfigError("stop-loss must be positive")
        self._controller = controller
        self._stop_loss = stop_loss

    def recover(self) -> OsirisRecoveryReport:
        controller = self._controller
        before = controller.stats.copy()
        recovered, trials = self._recover_counters()
        rebuilt = self._rebuild_tree()
        return OsirisRecoveryReport(
            counters_recovered=recovered,
            trials=trials,
            tree_nodes_rebuilt=rebuilt,
            stats=controller.stats.diff(before),
        )

    # ------------------------------------------------------------------

    def _written_counter_addresses(self) -> list[int]:
        """Counter blocks covering any written data block.

        Derived from the data region (not from persisted counter blocks):
        a block that was never stop-loss-persisted legitimately reads back
        as all-zero counters and still needs recovery and a tree slot.
        """
        controller = self._controller
        layout = controller.layout
        covered = {
            layout.counter_block_address(address)
            for address in controller.nvm.backend.written_addresses()
            if layout.data.contains(address)
        }
        return sorted(covered)

    def _recover_counters(self) -> tuple[int, int]:
        """Advance each stale NVM counter to the value that verifies."""
        controller = self._controller
        layout = controller.layout
        recovered = 0
        trials = 0
        for cb_address in self._written_counter_addresses():
            raw = controller.nvm.read(cb_address, ReadKind.COUNTER)
            block = SplitCounterBlock.from_bytes(raw)
            changed = False
            page_base = ((cb_address - layout.counters.base)
                         // CACHE_LINE_SIZE) * COUNTER_BLOCK_COVERAGE
            for slot in range(64):
                data_address = page_base + slot * CACHE_LINE_SIZE
                if not controller.nvm.backend.is_written(data_address):
                    continue
                ciphertext = controller.nvm.read(data_address, ReadKind.DATA)
                stored_mac = self._stored_mac(data_address)
                base_value = block.counter_for(slot)
                # The forced persist on overflow guarantees the true value
                # lies within the same minor-counter epoch.
                max_delta = min(self._stop_loss, 127 - block.minors[slot])
                for delta in range(max_delta + 1):
                    trials += 1
                    candidate = base_value + delta
                    mac = controller.mac.block_mac(
                        MacKind.VERIFY, ciphertext, data_address, candidate,
                        domain=MacDomain.DATA)
                    if stored_mac == mac:
                        if delta:
                            self._apply_delta(block, slot, delta)
                            changed = True
                        recovered += 1
                        break
                else:
                    raise RecoveryError(
                        f"no counter candidate within stop-loss verified "
                        f"{data_address:#x} (tampering or loss beyond K)")
            if changed:
                controller.nvm.write(cb_address, block.to_bytes(),
                                     WriteKind.COUNTER)
        return recovered, trials

    def _stored_mac(self, data_address: int) -> bytes:
        controller = self._controller
        raw = controller.nvm.read(
            controller.layout.mac_block_address(data_address), ReadKind.MAC)
        slot = controller.layout.mac_slot(data_address)
        return raw[slot * 8:(slot + 1) * 8]

    @staticmethod
    def _apply_delta(block: SplitCounterBlock, slot: int, delta: int) -> None:
        for _ in range(delta):
            block.increment(slot)

    # ------------------------------------------------------------------

    def _rebuild_tree(self) -> int:
        """Recompute every tree node on the path of any written counter
        block, bottom-up, and refresh the on-chip root.

        The rebuild trusts nothing on-NVM above the (now-verified) counter
        blocks; every recomputed node is written back, so the system comes
        back with an eagerly-consistent tree.
        """
        controller = self._controller
        layout = controller.layout
        mac = controller.mac

        # Level 1 slots from recovered counter blocks.
        dirty_nodes: dict[tuple[int, int], dict[int, bytes]] = {}
        for cb_address in self._written_counter_addresses():
            raw = controller.nvm.read(cb_address, ReadKind.COUNTER)
            level, index, slot = layout.parent_of_counter_block(cb_address)
            dirty_nodes.setdefault((level, index), {})[slot] = \
                mac.digest_mac(MacKind.TREE_UPDATE, raw,
                               domain=MacDomain.NODE)

        rebuilt = 0
        level = 1
        while True:
            this_level = {key: slots for key, slots in dirty_nodes.items()
                          if key[0] == level}
            if not this_level and level > layout.num_tree_levels:
                break
            next_nodes: dict[tuple[int, int], dict[int, bytes]] = {}
            for (node_level, index), slots in this_level.items():
                address = layout.tree_node_address(node_level, index)
                raw = controller.nvm.read(address, ReadKind.TREE_NODE)
                if not controller.nvm.backend.is_written(address):
                    raw = controller._defaults.content(node_level)
                node = bytearray(raw)
                for slot, value in slots.items():
                    node[slot * 8:(slot + 1) * 8] = value
                content = bytes(node)
                controller.nvm.write(address, content, WriteKind.TREE_NODE)
                rebuilt += 1
                node_mac = mac.digest_mac(MacKind.TREE_UPDATE, content,
                                          domain=MacDomain.NODE)
                if node_level == layout.num_tree_levels:
                    controller.root_mac = node_mac
                else:
                    plevel, pindex, pslot = layout.parent_of_tree_node(
                        node_level, index)
                    next_nodes.setdefault((plevel, pindex), {})[pslot] = \
                        node_mac
            dirty_nodes = {key: slots for key, slots in dirty_nodes.items()
                           if key[0] != level}
            dirty_nodes.update(next_nodes)
            level += 1
            if level > layout.num_tree_levels and not dirty_nodes:
                break
        return rebuilt
