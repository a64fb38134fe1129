"""Rotating-vault wear-leveling extension (beyond paper, Section IV-D)."""

import pytest

from repro.common.errors import AddressError
from repro.core.chv import ChvLayout, VaultRotation
from repro.core.system import SecureEpdSystem
from repro.mem.regions import MemoryLayout
from repro.mem.wear import WearTracker


@pytest.fixture(scope="module")
def chv(tiny_config) -> ChvLayout:
    return ChvLayout.for_layout(MemoryLayout(tiny_config))


class TestVaultRotationArithmetic:
    def test_disabled_rotation_is_identity(self, chv):
        rotation = VaultRotation.for_episode(chv, 12345, enabled=False)
        assert rotation.offset == 0
        assert rotation.data_slot(17) == 17
        assert rotation.address_group(2) == 2

    def test_offset_is_group_aligned(self, chv):
        for dc in (0, 1, 63, 64, 65, 1000, chv.capacity + 7):
            rotation = VaultRotation.for_episode(chv, dc, enabled=True)
            assert rotation.offset % 64 == 0
            assert 0 <= rotation.offset < chv.capacity

    def test_slots_stay_unique_and_in_range(self, chv):
        rotation = VaultRotation.for_episode(chv, 777, enabled=True)
        slots = {rotation.data_slot(p) for p in range(chv.capacity)}
        assert len(slots) == chv.capacity
        assert min(slots) == 0 and max(slots) == chv.capacity - 1

    def test_group_rotation_tracks_data_rotation(self, chv):
        """Position p's address group must contain p's rotated slot."""
        rotation = VaultRotation.for_episode(chv, 2048, enabled=True)
        for position in (0, 7, 8, 63, 64, 100):
            slot = rotation.data_slot(position)
            group = rotation.address_group(position // 8)
            assert slot // 8 == group

    def test_capacity_is_dlm_group_aligned(self, chv):
        assert chv.capacity % 64 == 0


class TestEpisodeDataAddresses:
    """``ChvLayout.data_addresses`` builds an episode's slot addresses as
    at most two runs; it must equal the per-position spec."""

    @pytest.mark.parametrize("dc, rotate", [(0, False), (777, True)],
                             ids=["unrotated", "rotated"])
    def test_matches_the_per_position_spec(self, chv, dc, rotate):
        rotation = VaultRotation.for_episode(chv, dc, enabled=rotate)
        # Rotated, the episodes past capacity - offset wrap to slot 0.
        assert (rotation.offset > 0) == rotate
        counts = [0, 1, 13, chv.capacity]
        if rotate:
            counts.append(chv.capacity - rotation.offset + 5)
        for count in counts:
            assert chv.data_addresses(count, rotation) == [
                chv.data_address(rotation.data_slot(position))
                for position in range(count)], count

    @pytest.mark.parametrize("dc, rotate", [(0, False), (777, True)],
                             ids=["unrotated", "rotated"])
    def test_count_past_capacity_raises_as_data_address(self, chv, dc,
                                                        rotate):
        rotation = VaultRotation.for_episode(chv, dc, enabled=rotate)
        with pytest.raises(AddressError) as expected:
            chv.data_address(chv.capacity)
        with pytest.raises(AddressError) as raised:
            chv.data_addresses(chv.capacity + 1, rotation)
        assert str(raised.value) == str(expected.value)


class TestRotatedSystem:
    @pytest.mark.parametrize("scheme", ["horus-slm", "horus-dlm"])
    def test_crash_recover_with_rotation(self, tiny_config, scheme):
        system = SecureEpdSystem(tiny_config, scheme=scheme,
                                 rotate_vault=True)
        system.fill_worst_case(seed=1)
        expected = {address: data
                    for address, data, _ in system.hierarchy.llc.lines()}
        system.crash(seed=2)
        system.recover()
        restored = {address: data
                    for address, data, _ in system.hierarchy.llc.lines()}
        assert restored == expected

    def test_multiple_episodes_recover_correctly(self, tiny_config):
        """Each episode rotates differently (DC advanced); every one must
        still recover bit-exactly."""
        system = SecureEpdSystem(tiny_config, scheme="horus-dlm",
                                 rotate_vault=True)
        for cycle in range(3):
            system.write(cycle * 4096, bytes([cycle + 1]) * 64)
            system.crash(seed=10 + cycle)
            system.recover()
        for cycle in range(3):
            assert system.read(cycle * 4096) == bytes([cycle + 1]) * 64

    def test_rotation_spreads_wear_across_episodes(self, tiny_config):
        """The point of the extension: with a small episode (a few dirty
        lines), repeated drains must not hammer the same CHV blocks."""
        def chv_max_wear(rotate: bool) -> int:
            system = SecureEpdSystem(tiny_config, scheme="horus-slm",
                                     rotate_vault=rotate)
            system.nvm.wear = WearTracker(system.layout)
            for cycle in range(6):
                system.write(0, bytes([cycle]) * 64)
                system.crash(seed=20 + cycle)
                system.recover()
            return system.nvm.wear.wear_of("chv").max_writes_per_block

        assert chv_max_wear(rotate=False) > chv_max_wear(rotate=True)

    def test_tamper_detection_survives_rotation(self, tiny_config):
        """Rotation must not open a relocation hole: tampering the rotated
        slot of any position still trips its MAC check."""
        from repro.attacks.adversary import Adversary
        from repro.common.errors import IntegrityError
        system = SecureEpdSystem(tiny_config, scheme="horus-dlm",
                                 rotate_vault=True)
        system.write(0, b"\x31" * 64)
        system.crash(seed=1)
        system.recover()
        system.write(64, b"\x32" * 64)   # second episode: non-zero offset
        system.crash(seed=2)
        rotation = system.drain_engine._rotation
        assert rotation.offset != 0
        chv = system.drain_engine._chv
        Adversary(system.nvm).tamper(
            chv.data_address(rotation.data_slot(0)))
        with pytest.raises(IntegrityError):
            system.recover()

    def test_rotation_cost_is_zero(self, tiny_config):
        """Rotation is pure address arithmetic: operation counts match the
        fixed-base vault exactly."""
        def drain_stats(rotate: bool):
            system = SecureEpdSystem(tiny_config, scheme="horus-dlm",
                                     rotate_vault=rotate)
            system.fill_worst_case(seed=1)
            return system.crash(seed=2)

        fixed = drain_stats(False)
        rotated = drain_stats(True)
        assert rotated.total_memory_requests == fixed.total_memory_requests
        assert rotated.total_macs == fixed.total_macs
