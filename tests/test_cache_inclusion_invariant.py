"""Inclusion invariants under conflict-heavy run-time traffic.

Regression suite for a bug found at paper scale: an L2 conflict eviction
dropped a clean line while L1 still held (and later dirtied) its copy,
breaking the inclusive invariant the write-back path relies on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import SystemConfig
from repro.core.system import SecureEpdSystem
from tests.conftest import examples

CONFIG = SystemConfig.scaled(512)


def _assert_inclusive(hierarchy):
    for address, _, _ in hierarchy.l1.lines():
        assert hierarchy.l2.contains(address), \
            f"L1 line {address:#x} missing from L2"
        assert hierarchy.llc.contains(address)
    for address, _, _ in hierarchy.l2.lines():
        assert hierarchy.llc.contains(address), \
            f"L2 line {address:#x} missing from LLC"


class TestInclusionInvariant:
    def test_l2_conflict_eviction_back_invalidates_l1(self):
        """The exact paper-scale failure shape: dirty an L1 line, then
        force its L2 set to overflow with other addresses."""
        system = SecureEpdSystem(CONFIG, scheme="nosec")
        h = system.hierarchy
        l2_sets = CONFIG.l2.num_sets
        target = 0
        system.write(target, b"\x77" * 64)   # resident+dirty in L1
        # Addresses that conflict with `target` in L2 but not in L1.
        for way in range(CONFIG.l2.ways + 2):
            system.read((way + 1) * l2_sets * 64)
        _assert_inclusive(h)
        # The target must have left L1 along with L2 — and its data
        # must survive wherever it went.
        assert system.read(target) == b"\x77" * 64

    def test_sustained_conflict_traffic_holds_the_invariant(self):
        system = SecureEpdSystem(CONFIG, scheme="nosec")
        l2_sets = CONFIG.l2.num_sets
        for i in range(200):
            address = (i % 24) * l2_sets * 64
            if i % 3:
                system.write(address, (i % 251).to_bytes(1, "little") * 64)
            else:
                system.read(address)
            if i % 20 == 0:
                _assert_inclusive(system.hierarchy)
        _assert_inclusive(system.hierarchy)

    @given(ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 60)), min_size=1,
        max_size=150))
    @settings(max_examples=examples(25))
    def test_invariant_under_random_conflict_streams(self, ops):
        """Random traffic over a deliberately conflict-dense address set
        (multiples of the L2 set count) with a data-correctness oracle."""
        system = SecureEpdSystem(CONFIG, scheme="nosec")
        stride = CONFIG.l2.num_sets * 64
        reference = {}
        for is_write, slot in ops:
            address = slot * stride
            if address >= CONFIG.memory.size:
                continue
            if is_write:
                payload = slot.to_bytes(2, "little") * 32
                system.write(address, payload)
                reference[address] = payload
            else:
                assert system.read(address) == reference.get(
                    address, bytes(64))
        _assert_inclusive(system.hierarchy)
        for address, expected in reference.items():
            assert system.read(address) == expected
