"""Every block the medium moves is a request SimStats counts.

Drain time, energy and every figure derive from the
:class:`~repro.stats.counters.SimStats` counters, so a read or write that
reaches the backing store without a matching count moves data the timing
model never sees.  These tests wrap the block I/O of
:class:`~repro.mem.backend.SparseMemory` and hold each scheme's replay,
drain and recovery, on the batched and on the scalar path, to one equation
per direction: the blocks the backend read, plus the reads a batched
controller served from its own copy (:meth:`NvmDevice.account_reads
<repro.mem.nvm.NvmDevice.account_reads>`), equal the reads SimStats
counted, and the blocks it wrote equal the writes.  A raw backend call
reached through an alias or a parameter breaks the equation as surely as a
literal ``nvm.backend.read_block(...)`` does.
"""

from collections import Counter

import pytest

from repro.core.system import SecureEpdSystem
from repro.experiments.suite import DRAIN_SEED, FILL_SEED
from repro.mem.backend import SparseMemory
from repro.mem.nvm import NvmDevice
from repro.workloads.generators import kvstore_trace
from repro.workloads.replay import replay

EPISODES = {
    "nosec": {"scheme": "nosec"},
    "nosec-non-inclusive": {"scheme": "nosec", "inclusive": False},
    "base-lu": {"scheme": "base-lu"},
    "base-lu-osiris": {"scheme": "base-lu", "osiris_stop_loss": 8},
    "base-eu": {"scheme": "base-eu"},
    "horus-slm": {"scheme": "horus-slm"},
    "horus-slm-non-inclusive": {"scheme": "horus-slm", "inclusive": False,
                                "recovery_mode": "writeback"},
    "horus-dlm": {"scheme": "horus-dlm"},
    "horus-dlm-rotated": {"scheme": "horus-dlm", "rotate_vault": True},
}
"""Every scheme, plus the variants whose drain or recovery takes its own
code: Osiris stop-loss counter recovery (``osiris_stop_loss=8``, as
``ablation-availability`` runs it), the non-inclusive drains with
write-back recovery, and the rotated vault."""

PATHS = {"batched": True, "scalar": False}


@pytest.fixture
def moved(monkeypatch) -> Counter:
    """Blocks the backend reads and writes from now on, by direction."""
    tally: Counter = Counter()

    def count(name, direction, blocks):
        original = getattr(SparseMemory, name)

        def counted(self, *args, **kwargs):
            tally[direction] += blocks(*args)
            return original(self, *args, **kwargs)
        monkeypatch.setattr(SparseMemory, name, counted)

    def one(*_args):
        return 1

    def each(addresses, *_args):
        return len(addresses)

    count("read_block", "reads", one)
    count("read_blocks", "reads", each)
    count("read_arena", "reads", each)
    count("write_block", "writes", one)
    count("write_arena", "writes", each)
    count("corrupt_block", "writes", one)

    account_reads = NvmDevice.account_reads

    def served_from_a_copy(self, kind, count_):
        tally["reads"] += count_
        return account_reads(self, kind, count_)
    monkeypatch.setattr(NvmDevice, "account_reads", served_from_a_copy)
    return tally


def assert_every_phase_accounted(system, moved, phases) -> None:
    stats = system.nvm.stats
    for phase, run in phases:
        moved.clear()
        before = stats.copy()
        run()
        counted = stats.diff(before)
        assert (moved["reads"], moved["writes"]) == \
            (counted.total_reads, counted.total_writes), (
            f"{phase}: the backend moved {moved['reads']} reads and "
            f"{moved['writes']} writes, SimStats counted "
            f"{counted.total_reads} and {counted.total_writes}")


@pytest.mark.parametrize("path", list(PATHS))
@pytest.mark.parametrize("episode", list(EPISODES))
class TestBlocksMovedAreCounted:
    def test_replay_drain_and_recovery(self, tiny_config, moved, episode,
                                       path):
        """A key-value trace four times the hierarchy's footprint, then
        the drain of what it left dirty, then recovery."""
        system = SecureEpdSystem(tiny_config, batched=PATHS[path],
                                 **EPISODES[episode])
        trace = kvstore_trace(3000, footprint_blocks=4096, seed=7)
        assert_every_phase_accounted(system, moved, (
            ("replay", lambda: replay(system, trace)),
            ("drain", lambda: system.crash(seed=DRAIN_SEED)),
            ("recovery", system.recover),
        ))

    def test_worst_case_drain_and_recovery(self, tiny_config, moved,
                                           episode, path):
        """The paper's drain: every line of the hierarchy dirty."""
        system = SecureEpdSystem(tiny_config, batched=PATHS[path],
                                 **EPISODES[episode])
        assert_every_phase_accounted(system, moved, (
            ("fill", lambda: system.fill_worst_case(seed=FILL_SEED)),
            ("drain", lambda: system.crash(seed=DRAIN_SEED)),
            ("recovery", system.recover),
        ))


def test_a_raw_backend_read_breaks_the_equation(tiny_config, moved):
    """The tally sees what a syntactic rule would have looked for: a
    read that bypasses the device moves a block SimStats never counts."""
    system = SecureEpdSystem(tiny_config, scheme="horus-slm")
    before = system.nvm.stats.copy()
    moved.clear()
    system.nvm.backend.read_block(0)
    assert moved["reads"] == 1
    assert system.nvm.stats.diff(before).total_reads == 0
