"""Non-inclusive (NINE) hierarchy mode and its drain/recovery semantics."""

import pytest

from repro.cache.fill import page_of
from repro.cache.hierarchy import CacheHierarchy
from repro.common.errors import ConfigError
from repro.core.system import SecureEpdSystem
from repro.workloads.generators import kvstore_trace, replay


@pytest.fixture
def nine(tiny_config) -> CacheHierarchy:
    return CacheHierarchy(tiny_config, inclusive=False)


class _MemoryStub:
    def __init__(self):
        self.store: dict[int, bytes] = {}

    def fetch(self, address: int) -> bytes:
        return self.store.get(address, bytes(64))

    def writeback(self, address: int, data: bytes) -> None:
        self.store[address] = data


class TestNonInclusiveFill:
    def test_fill_count_is_sum_of_levels(self, nine, tiny_config):
        assert nine.fill_worst_case(seed=1) == tiny_config.total_cache_lines

    def test_levels_hold_disjoint_addresses(self, nine):
        nine.fill_worst_case(seed=1)
        l1 = {address for address, _, _ in nine.l1.lines()}
        l2 = {address for address, _, _ in nine.l2.lines()}
        llc = {address for address, _, _ in nine.llc.lines()}
        assert not l1 & l2 and not l1 & llc and not l2 & llc

    def test_unique_counter_pages_across_all_levels(self, nine):
        nine.fill_worst_case(seed=1)
        pages = [page_of(address)
                 for level in nine.levels for address, _, _ in level.lines()]
        assert len(set(pages)) == len(pages)

    def test_drain_stream_has_no_duplicates(self, nine, tiny_config):
        nine.fill_worst_case(seed=1)
        drained = [address for address, _ in nine.drain_lines(seed=2)]
        assert len(drained) == tiny_config.total_cache_lines
        assert len(set(drained)) == len(drained)


class TestNonInclusiveRuntime:
    @pytest.fixture
    def attached(self, nine):
        stub = _MemoryStub()
        nine.attach(stub.fetch, stub.writeback)
        return nine, stub

    def test_miss_fills_l1_only(self, attached):
        hierarchy, stub = attached
        stub.store[0] = b"\x2a" * 64
        assert hierarchy.read(0) == b"\x2a" * 64
        assert hierarchy.l1.contains(0)
        assert not hierarchy.l2.contains(0)
        assert not hierarchy.llc.contains(0)

    def test_dirty_victims_trickle_down(self, attached, tiny_config):
        hierarchy, _ = attached
        # Overflow one L1 set: its victims must land in L2, not vanish.
        num_sets = tiny_config.l1.num_sets
        ways = tiny_config.l1.ways
        addresses = [(i * num_sets) * 64 for i in range(ways + 2)]
        for i, address in enumerate(addresses):
            hierarchy.write(address, i.to_bytes(8, "little") * 8)
        spilled = [a for a in addresses if not hierarchy.l1.contains(a)]
        assert spilled
        for address in spilled:
            assert hierarchy.l2.contains(address)

    def test_writes_read_back_through_all_levels(self, attached,
                                                 tiny_config):
        hierarchy, _ = attached
        lines = tiny_config.l1.num_lines * 4
        for i in range(lines):
            hierarchy.write(i * 64, (i % 199).to_bytes(1, "little") * 64)
        for i in range(lines):
            assert hierarchy.read(i * 64) == \
                (i % 199).to_bytes(1, "little") * 64


class TestNonInclusiveSecureSystem:
    def test_refill_recovery_is_rejected(self, tiny_config):
        with pytest.raises(ConfigError):
            SecureEpdSystem(tiny_config, scheme="horus-slm", inclusive=False)

    @pytest.mark.parametrize("scheme", ["horus-slm", "horus-dlm"])
    def test_crash_recover_cycle(self, tiny_config, scheme):
        system = SecureEpdSystem(tiny_config, scheme=scheme,
                                 inclusive=False,
                                 recovery_mode="writeback")
        trace = kvstore_trace(300, footprint_blocks=96, seed=51)
        expected = replay(system, trace)
        report = system.crash(seed=3)
        assert report.flushed_blocks > 0
        system.recover()
        for address, data in expected.items():
            assert system.read(address) == data

    def test_worst_case_drain_flushes_distinct_lines(self, tiny_config):
        system = SecureEpdSystem(tiny_config, scheme="horus-slm",
                                 inclusive=False,
                                 recovery_mode="writeback")
        system.fill_worst_case(seed=1)
        report = system.crash(seed=2)
        assert report.flushed_blocks == tiny_config.total_cache_lines

    def test_nosec_non_inclusive(self, tiny_config):
        system = SecureEpdSystem(tiny_config, scheme="nosec",
                                 inclusive=False)
        system.fill_worst_case(seed=1)
        report = system.crash(seed=2)
        assert report.total_writes == tiny_config.total_cache_lines
