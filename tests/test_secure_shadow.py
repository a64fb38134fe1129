"""Anubis-style metadata-cache shadow dump and recovery (lazy scheme)."""

import pytest

from repro.attacks.adversary import Adversary
from repro.common.errors import IntegrityError, RecoveryError
from repro.secure.cache_tree import ShadowRecovery
from repro.secure.schemes import make_scheme
from tests.test_secure_controller import make_controller, payload


def _crashed_lazy_controller(num_writes: int = 20):
    controller = make_controller("lazy")
    for i in range(num_writes):
        controller.write(i * 4096, payload(i))
    controller.flush_metadata()
    controller.drop_volatile_state()
    return controller


class TestShadowDump:
    def test_dump_covers_all_resident_lines_plus_addresses(self):
        controller = make_controller("lazy")
        for i in range(10):
            controller.write(i * 4096, payload(i))
        resident = sum(len(c) for c in controller.metadata_caches)
        before = controller.stats.writes.copy()
        controller.flush_metadata()
        from repro.stats.events import WriteKind
        shadow_writes = controller.stats.writes[WriteKind.SHADOW] \
            - before[WriteKind.SHADOW]
        assert shadow_writes == resident + -(-resident // 8)

    def test_empty_cache_dump_is_a_noop(self):
        controller = make_controller("lazy")
        controller.flush_metadata()
        assert controller.shadow_count == 0
        assert controller.cache_tree_root is None


class TestShadowRecovery:
    def test_restores_metadata_and_data_is_readable(self):
        controller = _crashed_lazy_controller()
        restored = ShadowRecovery(controller).recover()
        assert restored > 0
        for i in range(20):
            assert controller.read(i * 4096) == payload(i)

    def test_restored_lines_are_dirty(self):
        controller = _crashed_lazy_controller()
        ShadowRecovery(controller).recover()
        assert any(dirty for _, _, dirty in controller.counter_cache.lines())

    def test_tampered_shadow_image_is_detected(self):
        controller = _crashed_lazy_controller()
        Adversary(controller.nvm).tamper(controller.layout.shadow.block_at(0))
        with pytest.raises(IntegrityError):
            ShadowRecovery(controller).recover()

    def test_recover_without_root_raises(self):
        controller = make_controller("lazy")
        controller.shadow_count = 5
        controller.cache_tree_root = None
        with pytest.raises(RecoveryError):
            ShadowRecovery(controller).recover()

    def test_recover_with_nothing_drained_returns_zero(self):
        controller = make_controller("lazy")
        assert ShadowRecovery(controller).recover() == 0


class TestSchemeFactory:
    def test_known_schemes(self):
        assert make_scheme("lazy").name == "lazy"
        assert make_scheme("eager").name == "eager"

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            make_scheme("bogus")

    def test_writeback_policy_flags(self):
        assert make_scheme("lazy").needs_parent_update_on_writeback()
        assert not make_scheme("eager").needs_parent_update_on_writeback()
