"""Property-based equivalence: batched crypto primitives vs the scalar spec.

The scalar primitives in :mod:`repro.crypto.primitives` are the
specification; everything in :mod:`repro.crypto.batch` (and the batch
methods of the timed engines) must match them byte for byte on every input
— including the awkward ones: empty batches, singletons, and work lists
that repeat the same address (the drain never produces those, but the
primitives must not care).
"""

import importlib
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.constants import CACHE_LINE_SIZE, MAJOR_COUNTER_BITS
from repro.crypto import batch
from repro.crypto.arena import frame_buffer
from repro.crypto.counters import major
from repro.crypto.engine import AesEngine, MacEngine
from repro.crypto.primitives import (
    MacDomain,
    compute_mac,
    encrypt_block,
    generate_pad,
    int_field,
)
from repro.stats.counters import SimStats
from repro.stats.events import MacKind
from tests.conftest import examples, install_counter_block

BATCH_COVERAGE = {
    # Every public *_batch/*_blocks method in src/repro must appear here
    # (reprolint rule R3), naming the scalar-equivalence evidence that holds
    # it to its scalar twin.  The differential oracle (repro/core/oracle.py)
    # additionally compares whole batched-vs-scalar episodes end to end.
    "AesEngine.encrypt_batch":
        "TestEngineBatchEquivalence.test_aes_engine_batch_matches_scalar",
    "AesEngine.decrypt_batch":
        "TestEngineBatchEquivalence.test_aes_engine_batch_matches_scalar",
    "MacEngine.block_mac_batch":
        "TestEngineBatchEquivalence.test_mac_engine_batch_matches_scalar",
    "MacEngine.digest_mac_batch":
        "TestEngineBatchEquivalence"
        ".test_digest_mac_engine_batch_matches_scalar (all MacDomains)",
    "NvmDevice.read_batch":
        "oracle drain/recovery stats + tests/test_mem_nvm.py",
    "NvmDevice.write_batch":
        "a plain in-order NvmDevice.write loop (the scalar issue itself)",
    "SparseMemory.read_blocks": "oracle NVM image + tests/test_mem_backend.py",
    "SecureMemoryController.run_ops_batch":
        "TestRunOpsEquivalence + oracle replay "
        "(repro.core.oracle.run_replay_differential) + failure parity, "
        "the rollback and scalar re-run: "
        "tests/test_epd_drain.py::TestBatchedDrainFailureParity"
        "::test_tampered_metadata_fails_like_the_write_loop, "
        "tests/test_controller_edges.py::TestReadFailureParity"
        "::test_failing_read_matches_the_op_loop, "
        "tests/test_controller_edges.py::TestVerifyFailureParity"
        "::test_failing_verify_matches_the_op_loop, "
        "tests/test_controller_edges.py::TestSchemeHookFailureParity"
        "::test_failure_in_the_hook_matches_the_write_loop, "
        "tests/test_controller_edges.py::TestReparkedVictimFailureParity"
        "::test_reparked_victim_failure_matches_the_write_loop",
    "CacheHierarchy.replay_epoch":
        "tests/test_prop_soa.py (fused-vs-scalar identity over arbitrary "
        "op sequences) + oracle replay + tests/test_golden_replay.py",
    "TenantKeyedAes.encrypt_batch":
        "tests/test_sharding_keys.py::TestKeyGroupedBatches"
        "::test_aes_batches_match_scalar",
    "TenantKeyedAes.decrypt_batch":
        "tests/test_sharding_keys.py::TestKeyGroupedBatches"
        "::test_aes_batches_match_scalar",
    "TenantKeyedMac.block_mac_batch":
        "tests/test_sharding_keys.py::TestKeyGroupedBatches"
        "::test_block_mac_batches_match_scalar",
    "NvmDevice.read_arena":
        "oracle drain/recovery stats + tests/test_mem_nvm.py arena tests",
    "NvmDevice.write_arena":
        "oracle NVM image + tests/test_mem_nvm.py scalar-fallback tests",
    "SparseMemory.read_arena":
        "oracle NVM image + tests/test_mem_backend.py arena tests",
    "SparseMemory.write_arena":
        "oracle NVM image + tests/test_mem_backend.py arena tests",
}



class TestBatchCoverageEvidence:
    """The evidence BATCH_COVERAGE cites must exist.  Reprolint's R3 checks
    only that every batch method has an entry, so a misspelt test name in
    one would pass it silently."""

    ROOT = Path(__file__).resolve().parent.parent

    def test_every_cited_test_and_path_resolves(self):
        for method, evidence in BATCH_COVERAGE.items():
            for path in re.findall(r"tests/[\w/]+\.py", evidence):
                assert (self.ROOT / path).is_file(), (method, path)
            for path, cls, test in re.findall(
                    r"(tests/[\w/]+)\.py::(\w+)::(\w+)", evidence):
                module = importlib.import_module(path.replace("/", "."))
                assert hasattr(getattr(module, cls, None), test), \
                    (method, f"{path}.py::{cls}::{test}")
            for cls, test in re.findall(r"\b(Test\w+)\.(test_\w+)",
                                        evidence):
                assert hasattr(globals().get(cls), test), \
                    (method, f"{cls}.{test}")


keys = st.binary(min_size=1, max_size=64)
addresses = st.integers(0, 2**64 - 1)
counters = st.integers(0, 2**128 - 1)
blocks = st.binary(min_size=CACHE_LINE_SIZE, max_size=CACHE_LINE_SIZE)
domains = st.sampled_from(MacDomain)


@st.composite
def work_lists(draw, min_size=0, max_size=12):
    """(addresses, counters) of equal length; duplicates are likely.

    Addresses draw from a tiny pool so that most multi-element lists
    repeat at least one address — the degenerate case the batch forms must
    handle identically to scalar iteration.
    """
    pool = draw(st.lists(addresses, min_size=1, max_size=3))
    size = draw(st.integers(min_size, max_size))
    addr_list = draw(st.lists(st.sampled_from(pool), min_size=size,
                              max_size=size))
    ctr_list = draw(st.lists(counters, min_size=size, max_size=size))
    return addr_list, ctr_list


class TestPadEquivalence:
    @given(key=keys, work=work_lists())
    @settings(max_examples=examples(100))
    def test_generate_pads_matches_scalar(self, key, work):
        addrs, ctrs = work
        pads = batch.generate_pads(key, addrs, ctrs)
        assert len(pads) == CACHE_LINE_SIZE * len(addrs)
        for i, (address, counter) in enumerate(zip(addrs, ctrs)):
            assert pads[i * 64:(i + 1) * 64] == \
                generate_pad(key, address, counter)

    @given(key=keys, work=work_lists())
    @settings(max_examples=examples(50))
    def test_shared_frames_change_nothing(self, key, work):
        addrs, ctrs = work
        frames = frame_buffer(addrs, ctrs)
        assert batch.generate_pads(key, addrs, ctrs, frames) == \
            batch.generate_pads(key, addrs, ctrs)


class TestEncryptionEquivalence:
    @given(key=keys, work=work_lists(), data=st.data())
    @settings(max_examples=examples(100))
    def test_encrypt_blocks_matches_scalar(self, key, work, data):
        addrs, ctrs = work
        plain = [data.draw(blocks) for _ in addrs]
        ciphertext = batch.encrypt_blocks(key, addrs, ctrs, b"".join(plain))
        for i, (address, counter) in enumerate(zip(addrs, ctrs)):
            assert ciphertext[i * 64:(i + 1) * 64] == \
                encrypt_block(key, address, counter, plain[i])

    @given(key=keys, work=work_lists(), data=st.data())
    @settings(max_examples=examples(50))
    def test_decrypt_inverts_encrypt(self, key, work, data):
        addrs, ctrs = work
        plain = b"".join(data.draw(blocks) for _ in addrs)
        ciphertext = batch.encrypt_blocks(key, addrs, ctrs, plain)
        assert batch.decrypt_blocks(key, addrs, ctrs, ciphertext) == plain


class TestMacEquivalence:
    @given(key=keys, domain=domains, work=work_lists(), data=st.data())
    @settings(max_examples=examples(100))
    def test_compute_block_macs_matches_scalar(self, key, domain, work,
                                               data):
        addrs, ctrs = work
        buffer = b"".join(data.draw(blocks) for _ in addrs)
        macs = batch.compute_block_macs(key, buffer, addrs, ctrs, domain)
        assert len(macs) == len(addrs)
        for i, (address, counter) in enumerate(zip(addrs, ctrs)):
            assert macs[i] == compute_mac(
                key, buffer[i * 64:(i + 1) * 64], int_field(address),
                int_field(counter, 16), domain=domain)

    @given(key=keys, domain=domains,
           contents=st.lists(st.binary(max_size=80), max_size=8))
    @settings(max_examples=examples(100))
    def test_compute_digest_macs_matches_scalar(self, key, domain,
                                                contents):
        macs = batch.compute_digest_macs(key, contents, domain=domain)
        assert macs == [compute_mac(key, content, domain=domain)
                        for content in contents]

    @given(key=keys, domain=domains, address=addresses, counter=counters,
           block=blocks)
    @settings(max_examples=examples(50))
    def test_domains_separate_batched_macs(self, key, domain, address,
                                           counter, block):
        """Equal inputs under different domains never collide (the scalar
        guarantee, preserved by the batch form)."""
        values = {batch.compute_block_macs(key, block, [address], [counter],
                                           d)[0]
                  for d in MacDomain}
        assert len(values) == len(MacDomain)


class TestEngineBatchEquivalence:
    """The timed engines' batch methods: same bytes, same accounting."""

    @given(work=work_lists(), data=st.data())
    @settings(max_examples=examples(50))
    def test_aes_engine_batch_matches_scalar(self, work, data):
        addrs, ctrs = work
        plain = [data.draw(blocks) for _ in addrs]
        scalar_stats, batch_stats = SimStats(), SimStats()
        scalar_engine = AesEngine(scalar_stats)
        batch_engine = AesEngine(batch_stats)
        expected = [scalar_engine.encrypt(a, c, p)
                    for a, c, p in zip(addrs, ctrs, plain)]
        ciphertext = batch_engine.encrypt_batch(addrs, ctrs,
                                                b"".join(plain))
        assert batch.split_blocks(ciphertext) == expected
        assert batch_stats.snapshot() == scalar_stats.snapshot()

    @given(kind=st.sampled_from([MacKind.CHV_DATA, MacKind.DATA_PROTECT]),
           domain=st.sampled_from(list(MacDomain)),
           work=work_lists(), data=st.data())
    @settings(max_examples=examples(50))
    def test_mac_engine_batch_matches_scalar(self, kind, domain, work, data):
        addrs, ctrs = work
        cipher = [data.draw(blocks) for _ in addrs]
        scalar_stats, batch_stats = SimStats(), SimStats()
        scalar_engine = MacEngine(scalar_stats)
        batch_engine = MacEngine(batch_stats)
        expected = [scalar_engine.block_mac(kind, block, a, c, domain=domain)
                    for block, a, c in zip(cipher, addrs, ctrs)]
        macs = batch_engine.block_mac_batch(kind, b"".join(cipher),
                                            addrs, ctrs, domain=domain)
        assert macs == expected
        assert batch_stats.snapshot() == scalar_stats.snapshot()

    @given(kind=st.sampled_from([MacKind.CHV_LEVEL2, MacKind.VERIFY]),
           domain=st.sampled_from(list(MacDomain)),
           macs=st.binary(max_size=20 * 8).map(
               lambda raw: raw[:len(raw) - len(raw) % 8]))
    @settings(max_examples=examples(50))
    def test_digest_mac_engine_batch_matches_scalar(self, kind, domain,
                                                    macs):
        """DLM second-level digests over :func:`batch.split_blocks`
        records — whole groups plus a partial tail — equal one scalar
        ``digest_mac`` per group, with the same accounting."""
        scalar_stats, batch_stats = SimStats(), SimStats()
        groups = [macs[i:i + CACHE_LINE_SIZE]
                  for i in range(0, len(macs), CACHE_LINE_SIZE)]
        expected = [MacEngine(scalar_stats).digest_mac(kind, group,
                                                       domain=domain)
                    for group in groups]
        digests = MacEngine(batch_stats).digest_mac_batch(
            kind, batch.split_blocks(macs), domain=domain)
        assert digests == expected
        assert batch_stats.snapshot() == scalar_stats.snapshot()


class TestSplitBlocks:
    @given(parts=st.lists(blocks, max_size=12))
    @settings(max_examples=examples(50))
    def test_split_inverts_join(self, parts):
        assert batch.split_blocks(b"".join(parts)) == parts

    @given(raw=st.binary(max_size=12 * CACHE_LINE_SIZE))
    @settings(max_examples=examples(50))
    def test_split_keeps_the_partial_tail(self, raw):
        assert batch.split_blocks(raw) == [
            raw[i:i + CACHE_LINE_SIZE]
            for i in range(0, len(raw), CACHE_LINE_SIZE)]


# -- run_ops_batch vs the scalar op loop --------------------------------------

def _make_controller(batched: bool, scheme: str):
    from repro.common.config import SystemConfig
    from repro.mem.nvm import NvmDevice
    from repro.mem.regions import MemoryLayout
    from repro.secure.controller import SecureMemoryController

    config = SystemConfig.scaled(512)
    layout = MemoryLayout(config)
    stats = SimStats()
    nvm = NvmDevice(layout.total_size, stats)
    return SecureMemoryController(config, nvm, layout, stats,
                                  scheme=scheme, batched=batched)


def _arm_overflow(controller) -> None:
    """Install a fresh block for page 0 whose slot 0 sits one below the
    minor limit: the second write to address 0 overflows it."""
    assert controller.get_counter(0) == 0
    install_counter_block(controller, 0, 126 << MAJOR_COUNTER_BITS)


def _controller_state(controller) -> dict:
    return {
        "image": controller.nvm.backend.image(),
        "stats": controller.stats.snapshot(),
        "hit rates": [(cache.name, cache.hits, cache.misses)
                      for cache in controller.metadata_caches],
        "meta lines": [sorted(controller.metadata_lines(cache))
                       for cache in controller.metadata_caches],
        "root": controller.root_mac,
        "lost": list(controller.nvm.lost_writes),
    }


# Addresses draw from a pool spanning several counter/MAC blocks but small
# enough that most op lists revisit an address — the duplicate and
# read-after-write cases the epoch batching must phase correctly.
_OP_ADDRESSES = tuple(i * CACHE_LINE_SIZE for i in range(0, 260, 13))


@st.composite
def op_lists(draw, min_size=0, max_size=24):
    pool = draw(st.lists(st.sampled_from(_OP_ADDRESSES), min_size=1,
                         max_size=4, unique=True))
    size = draw(st.integers(min_size, max_size))
    ops = []
    for i in range(size):
        address = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            ops.append(("w", address, bytes([i % 251]) * CACHE_LINE_SIZE))
        else:
            ops.append(("r", address, None))
    return ops


class TestRunOpsEquivalence:
    """The controller's epoch entry point: same results, same state.

    ``run_ops`` (the scalar per-op loop) is the specification;
    ``run_ops_batch`` phases the same stream through the batched crypto and
    grouped NVM paths, so every observable — read results, NVM image, stats,
    metadata-cache hit/miss/LRU/content, tree root — must match on every op
    list, including empty ones, singletons, duplicate addresses, and
    read-after-write within one epoch.
    """

    @pytest.mark.parametrize("scheme", ["lazy", "eager"])
    @given(ops=op_lists())
    @settings(max_examples=examples(25), deadline=None)
    def test_batch_matches_scalar(self, scheme, ops):
        scalar = _make_controller(False, scheme)
        batched = _make_controller(True, scheme)
        assert scalar.run_ops(list(ops)) == batched.run_ops_batch(list(ops))
        assert _controller_state(scalar) == _controller_state(batched)

    @pytest.mark.parametrize("size", [0, 1])
    def test_degenerate_batch_sizes(self, size):
        ops = [("w", 0, bytes(64))][:size]
        scalar = _make_controller(False, "lazy")
        batched = _make_controller(True, "lazy")
        assert scalar.run_ops(list(ops)) == batched.run_ops_batch(list(ops))
        assert _controller_state(scalar) == _controller_state(batched)

    def test_read_after_write_within_one_batch(self):
        """A read of an address written earlier in the same op list must
        return the new ciphertext's plaintext on both paths."""
        data = bytes(range(64))
        ops = [("w", 128, data), ("r", 128, None), ("w", 128, data[::-1]),
               ("r", 128, None), ("r", 64, None)]
        scalar = _make_controller(False, "lazy")
        batched = _make_controller(True, "lazy")
        results_s = scalar.run_ops(list(ops))
        results_b = batched.run_ops_batch(list(ops))
        assert results_s == results_b
        assert results_b[1] == data
        assert results_b[3] == data[::-1]
        assert results_b[4] == bytes(CACHE_LINE_SIZE)  # never written

    @given(ops=op_lists(min_size=1))
    @settings(max_examples=examples(25), deadline=None)
    def test_fetches_stream_aligns_with_reads(self, ops):
        """``fetches=True`` returns exactly the read results, in op order —
        the fill-aligned stream ``resolve_pending`` consumes directly.
        Regression pin for the epoch replay path, which used to re-filter
        the full result stream against the op list (a misalignment hazard
        once writes stopped producing entries)."""
        scalar = _make_controller(False, "lazy")
        batched = _make_controller(True, "lazy")
        reference = scalar.run_ops(list(ops))
        fetched = batched.run_ops_batch(list(ops), fetches=True)
        assert fetched == [result for op, result in zip(ops, reference)
                           if op[0] == "r"]

    def test_fetches_alignment_survives_overflow_fallback(self):
        """The mid-segment scalar fallback (minor-counter overflow) must
        keep the fetches stream aligned too."""
        scalar = _make_controller(False, "lazy")
        batched = _make_controller(True, "lazy")
        for controller in (scalar, batched):
            _arm_overflow(controller)
        ops = [("w", 0, bytes([i]) * 64) for i in range(4)] \
            + [("r", 0, None), ("w", 64, bytes(64)), ("r", 64, None),
               ("r", 128, None)]
        reference = scalar.run_ops(list(ops))
        fetched = batched.run_ops_batch(list(ops), fetches=True)
        assert fetched == [result for op, result in zip(ops, reference)
                           if op[0] == "r"]
        for controller in (scalar, batched):
            assert major(controller.get_counter(0)) == 1

    @pytest.mark.parametrize("scheme", ["lazy", "eager"])
    def test_minor_counter_overflow_stays_equivalent(self, scheme):
        """Force a minor-counter overflow mid-batch: the batch must fall
        back to the scalar overflow path with identical observables."""
        scalar = _make_controller(False, scheme)
        batched = _make_controller(True, scheme)
        for controller in (scalar, batched):
            _arm_overflow(controller)
        ops = [("w", 0, bytes([i]) * 64) for i in range(4)] \
            + [("r", 0, None), ("w", 64, bytes(64)), ("r", 64, None)]
        assert scalar.run_ops(list(ops)) == batched.run_ops_batch(list(ops))
        assert _controller_state(scalar) == _controller_state(batched)
        for controller in (scalar, batched):
            assert major(controller.get_counter(0)) == 1
