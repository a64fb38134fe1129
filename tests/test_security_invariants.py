"""The security invariants, checked on the code paths that run them.

Horus's security argument rests on three invariants: tenant and master
key domains stay apart, no plaintext reaches the persistent medium, and
encryption counters only move forward.  This module holds the last two on
every secure variant, batched and scalar, through replay, a minor-counter
overflow, crash and recovery.  The first is held where the two key
domains meet, in
``tests/test_sharding_differential.py::TestShardVsSoloIdentity::
test_tenant_keys_change_the_persisted_image``: a tenant-keyed fleet and a
master-keyed fleet replay one mix, and their media must agree on every
counter block, tree node and root register and differ on every tenant
data block and the MAC blocks over them.

Payloads are distinct random 64 B blocks from a seeded generator, so a
payload found on the medium is a leak, not chance.
"""

import random
from collections import Counter

import pytest

from repro.cache.fill import page_of
from repro.common.config import SystemConfig
from repro.common.constants import (
    CACHE_LINE_SIZE,
    COUNTER_BLOCK_COVERAGE,
    MINOR_COUNTER_BITS,
    MINOR_COUNTERS_PER_BLOCK,
)
from repro.core.system import SecureEpdSystem
from repro.crypto.counters import counter_for
from repro.epd.adr import AdrSecureSystem
from repro.epd.bbb import BbbSecureSystem
from repro.epd.dolos import DolosAdrSystem
from repro.experiments.suite import DRAIN_SEED
from repro.stats.events import AesKind
from repro.workloads.replay import replay
from repro.workloads.trace import MemoryOp, OpKind

CONFIG = SystemConfig.scaled(128)
LLC_LINES = CONFIG.llc.size // CACHE_LINE_SIZE

VARIANTS = {
    "base-lu": {"scheme": "base-lu"},
    "base-lu-osiris": {"scheme": "base-lu", "osiris_stop_loss": 8},
    "base-eu": {"scheme": "base-eu"},
    "horus-slm": {"scheme": "horus-slm"},
    "horus-slm-writeback": {"scheme": "horus-slm",
                            "recovery_mode": "writeback"},
    "horus-dlm": {"scheme": "horus-dlm"},
    "horus-dlm-rotated": {"scheme": "horus-dlm", "rotate_vault": True},
}
"""Every secure scheme, plus the variants whose drain or recovery takes
its own code: Osiris stop-loss counter recovery, write-back recovery and
the rotated vault."""

RECOVERIES = ("base-lu", "base-lu-osiris", "base-eu", "horus-slm",
              "horus-dlm")
"""One variant per way counters come back after a crash: Base-LU's shadow
dump, Osiris's trial decryption, Base-EU's persisted tree and the two Horus
vaults."""

PATHS = {"batched": True, "scalar": False}

ADR_FAMILY = {"adr": AdrSecureSystem, "bbb": BbbSecureSystem,
              "dolos": DolosAdrSystem}

OVERFLOW_WRITES = 140
"""Writes to one line: more than the 128 values of a 7-bit minor counter,
so one of them overflows it and re-encrypts the line's page."""


class Payloads:
    """Distinct random 64 B payloads; every one handed out is kept."""

    def __init__(self, seed: int = 2029) -> None:
        self._rng = random.Random(seed)
        self.issued: set[bytes] = set()

    def __call__(self) -> bytes:
        payload = self._rng.randbytes(CACHE_LINE_SIZE)
        assert payload not in self.issued
        self.issued.add(payload)
        return payload


def mixed_trace(payloads: Payloads, ops: int = 8192) -> list[MemoryOp]:
    """Half writes, half reads, over four times the LLC's lines, spread
    over sixteen times as many: dirty lines reach the medium during the
    replay, and pages hold several written lines each."""
    rng = random.Random(7)
    footprint = [line * CACHE_LINE_SIZE
                 for line in rng.sample(range(16 * LLC_LINES), 4 * LLC_LINES)]
    trace = []
    for _ in range(ops):
        address = rng.choice(footprint)
        if rng.random() < 0.5:
            trace.append(MemoryOp(OpKind.WRITE, address, payloads()))
        else:
            trace.append(MemoryOp(OpKind.READ, address))
    return trace


def overflow_one_line(system, payloads: Payloads) -> None:
    """Run :data:`OVERFLOW_WRITES` writes to the first line of the page
    with the most lines on the medium, through the controller's batched
    entry point (the per-op loop on a scalar system), and check that a
    page re-encryption ran."""
    data_size = system.layout.data.size
    pages = Counter(page_of(address)
                    for address in system.nvm.backend.written_addresses()
                    if address < data_size)
    target = pages.most_common(1)[0][0] * COUNTER_BLOCK_COVERAGE
    decrypts = system.stats.aes[AesKind.DECRYPT]
    system.controller.run_ops_batch(
        [("w", target, payloads()) for _ in range(OVERFLOW_WRITES)])
    assert system.stats.aes[AesKind.DECRYPT] > decrypts, \
        "the overflow re-encrypted no line of its page"


def assert_no_payload_on_the_medium(system, payloads: Payloads,
                                    phase: str) -> None:
    leaked = payloads.issued & set(system.nvm.backend.image().values())
    assert not leaked, \
        f"after {phase}: {len(leaked)} written payload(s) on the medium"


class TestNoPlaintextOnTheMedium:
    """The medium outlives the power cut, so an adversary reads it at
    will: no block the simulator persists may equal a payload the program
    wrote, at run time, at the drain or at recovery."""

    @pytest.mark.parametrize("path", list(PATHS))
    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_no_payload_reaches_the_medium(self, variant, path):
        payloads = Payloads()
        system = SecureEpdSystem(CONFIG, batched=PATHS[path],
                                 **VARIANTS[variant])
        trace = mixed_trace(payloads)
        for phase, run in (
                ("replay", lambda: replay(system, trace)),
                ("overflow", lambda: overflow_one_line(system, payloads)),
                ("crash", lambda: system.crash(seed=DRAIN_SEED)),
                ("recovery", system.recover),
                ("second crash", lambda: system.crash(seed=DRAIN_SEED))):
            run()
            assert_no_payload_on_the_medium(system, payloads, phase)

    @pytest.mark.parametrize("model", list(ADR_FAMILY))
    def test_no_payload_reaches_the_medium_through_a_persist(self, model):
        """The ADR-family models persist at run time: ADR and Dolos on an
        explicit persist after each write, BBB on each write-through from
        its battery-backed buffer.  Dolos also stages ciphertext in its
        ring and replays it at recovery."""
        payloads = Payloads()
        system = ADR_FAMILY[model](CONFIG)
        persist = getattr(system, "persist", None)
        trace = mixed_trace(payloads)

        def run_trace() -> None:
            for op in trace:
                if op.kind is OpKind.WRITE:
                    system.write(op.address, op.data)
                    if persist is not None:
                        persist(op.address)
                else:
                    system.read(op.address)

        phases = [("persists", run_trace),
                  ("overflow", lambda: overflow_one_line(system, payloads)),
                  ("crash", system.crash)]
        if hasattr(system, "recover"):
            phases += [("recovery", system.recover),
                       ("second crash", system.crash)]
        for phase, run in phases:
            run()
            assert_no_payload_on_the_medium(system, payloads, phase)

    @pytest.mark.parametrize("path", list(PATHS))
    def test_nosec_puts_payloads_on_the_medium(self, path):
        """The positive control: the same trace leaves its payloads on an
        unencrypted medium, at run time and more at the drain, so the
        checks above would see a leak."""
        payloads = Payloads()
        system = SecureEpdSystem(CONFIG, scheme="nosec",
                                 batched=PATHS[path])
        replay(system, mixed_trace(payloads))
        replayed = len(payloads.issued
                       & set(system.nvm.backend.image().values()))
        system.crash(seed=DRAIN_SEED)
        drained = len(payloads.issued
                      & set(system.nvm.backend.image().values()))
        assert 0 < replayed < drained


def page_counters(controller, page: int) -> list[int]:
    """The encryption counter of every line of a page, read through the
    verified counter fetch.  A fetch can park dirty metadata victims; they
    drain here, as at the end of any public operation, so a later crash
    finds the controller between operations."""
    block = controller.get_counter(page * COUNTER_BLOCK_COVERAGE)
    controller.drain_victims()
    return [counter_for(block, slot)
            for slot in range(MINOR_COUNTERS_PER_BLOCK)]


def assert_counters_advanced(before: dict[int, list[int]],
                             after: dict[int, list[int]],
                             written: set[int], step: str) -> None:
    """Every written line's counter is strictly above its earlier value,
    and no line's counter is below it."""
    for page, old in before.items():
        new = after[page]
        lower = [slot for slot in range(MINOR_COUNTERS_PER_BLOCK)
                 if new[slot] < old[slot]]
        assert not lower, \
            f"{step}: counters of page {page} fell at slots {lower}"
    for address in written:
        page = page_of(address)
        slot = address // CACHE_LINE_SIZE % MINOR_COUNTERS_PER_BLOCK
        assert after[page][slot] > before[page][slot], \
            f"{step}: the write to {address:#x} left its counter at " \
            f"{after[page][slot]}"


def data_path_ops(payloads: Payloads) -> list[tuple[str, int, bytes | None]]:
    """Writes and reads over eight lines in each of three pages, then
    :data:`OVERFLOW_WRITES` writes to one of those lines."""
    rng = random.Random(11)
    lines = [page * COUNTER_BLOCK_COVERAGE + slot * CACHE_LINE_SIZE
             for page in (0, 5, 77) for slot in rng.sample(range(64), 8)]
    ops: list[tuple[str, int, bytes | None]] = []
    for _ in range(240):
        address = rng.choice(lines)
        if rng.random() < 0.75:
            ops.append(("w", address, payloads()))
        else:
            ops.append(("r", address, None))
    ops += [("w", lines[0], payloads()) for _ in range(OVERFLOW_WRITES)]
    return ops


def majors(counters: dict[int, list[int]]) -> dict[int, int]:
    return {page: values[0] >> MINOR_COUNTER_BITS
            for page, values in counters.items()}


class TestCountersOnlyAdvance:
    """A counter-mode pad is ``PRF(key, address || counter)``, so a line's
    counter must move forward on every write and never move back, at run
    time or across a crash.

    This is the counter-monotonicity property on the data path.  It does
    not claim whole-system pad uniqueness, that no (key, address, counter)
    triple ever encrypts two different plaintexts: that is the stateful
    model's invariant (ROADMAP.md), and it fails today, because a Horus
    vault pad can equal the run-time pad of the line it vaults (ROADMAP.md,
    "Vault pads collide with run-time pads")."""

    @pytest.mark.parametrize("variant", RECOVERIES)
    def test_each_scalar_write_advances_its_counter(self, variant):
        payloads = Payloads()
        controller = SecureEpdSystem(CONFIG, **VARIANTS[variant]).controller
        overflows = 0
        for kind, address, data in data_path_ops(payloads):
            if kind == "r":
                controller.read(address)
                continue
            page = page_of(address)
            before = {page: page_counters(controller, page)}
            controller.write(address, data)
            after = {page: page_counters(controller, page)}
            assert_counters_advanced(before, after, {address},
                                     f"write to {address:#x}")
            overflows += majors(after) != majors(before)
        assert overflows == 1

    @pytest.mark.parametrize("variant", RECOVERIES)
    def test_each_batched_call_advances_its_counters(self, variant):
        """Calls of 40 ops through the batched segment, the last of which
        breaks its segment on a minor overflow and finishes the
        overflowing write on the scalar tail."""
        payloads = Payloads()
        controller = SecureEpdSystem(CONFIG, batched=True,
                                     **VARIANTS[variant]).controller
        ops = data_path_ops(payloads)
        calls = [ops[start:start + 40] for start in range(0, 240, 40)]
        calls.append(ops[240:])
        for number, call in enumerate(calls):
            pages = {page_of(address) for _, address, _ in call}
            before = {page: page_counters(controller, page)
                      for page in pages}
            controller.run_ops_batch(call)
            after = {page: page_counters(controller, page)
                     for page in pages}
            assert_counters_advanced(
                before, after,
                {address for kind, address, _ in call if kind == "w"},
                f"batched call {number}")
        assert majors(after) != majors(before), \
            "the last call's segment did not break on an overflow"

    @pytest.mark.parametrize("path", list(PATHS))
    @pytest.mark.parametrize("variant", RECOVERIES)
    def test_recovery_never_lowers_a_counter(self, variant, path):
        payloads = Payloads()
        system = SecureEpdSystem(CONFIG, batched=PATHS[path],
                                 **VARIANTS[variant])
        trace = mixed_trace(payloads)
        replay(system, trace)
        overflow_one_line(system, payloads)
        pages = sorted({page_of(op.address) for op in trace
                        if op.kind is OpKind.WRITE})
        controller = system.controller
        before = {page: page_counters(controller, page) for page in pages}
        system.crash(seed=DRAIN_SEED)
        system.recover()
        after = {page: page_counters(controller, page) for page in pages}
        assert_counters_advanced(before, after, set(), "crash and recovery")
