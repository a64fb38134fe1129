"""Shared fixtures: scaled-down configurations and ready-made systems.

``tiny`` configurations keep whole-system tests in the millisecond range
while preserving the paper's structure (same stride ratio, same tree arity,
same cache organization).

Hypothesis is configured here once, through settings profiles, instead of
per-file ``settings(deadline=None, ...)`` copies:

``ci`` (the default)
    no deadline (whole-system examples legitimately take tens of
    milliseconds) and the ``too_slow`` health check suppressed;
``nightly``
    same, plus every :func:`examples` budget multiplied by 10 — select it
    with ``HYPOTHESIS_PROFILE=nightly`` on scheduled runs.
"""

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.common.config import SystemConfig
from repro.core.system import SecureEpdSystem
from repro.crypto.engine import MacEngine
from repro.stats.events import MacKind

HYPOTHESIS_PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "ci")

settings.register_profile(
    "ci", deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.register_profile(
    "nightly", deadline=None, max_examples=1000,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile(HYPOTHESIS_PROFILE)


def controller_state(controller) -> dict:
    """What a secure controller leaves behind — NVM image, stats, metadata
    caches in set then LRU order with hit/miss counters, victim buffer in
    FIFO order, root register — for comparing a batched run with the
    per-op loop."""
    return {
        "NVM image": controller.nvm.backend.image(),
        "root register": controller.root_mac,
        "stats": controller.stats.snapshot(),
        "metadata caches": [list(controller.metadata_lines(cache))
                            for cache in controller.metadata_caches],
        "cache hits/misses": [(cache.hits, cache.misses)
                              for cache in controller.metadata_caches],
        "victim buffer": [(address, kind, content)
                          for address, (content, kind)
                          in controller._victims.items()],
    }


def install_counter_block(controller, data_address: int, block: int) -> None:
    """Put ``block`` in the counter-cache lane of ``data_address``'s counter
    block, which must be resident; its LRU place and dirty bit stay."""
    cache = controller.counter_cache
    cb_address = controller.layout.counter_block_address(data_address)
    cache_set = cache.sets[cache.set_index(cb_address)]
    assert cb_address in cache_set
    cache_set[cb_address] = block


def corrupt_batched_verify_macs(monkeypatch) -> None:
    """Zero the last MAC of every batched VERIFY call, leaving the scalar
    MAC engine intact: a mismatch only a batched path can see."""
    real = MacEngine.block_mac_batch

    def corrupted(self, kind, *args, **kwargs):
        macs = real(self, kind, *args, **kwargs)
        if kind is MacKind.VERIFY and macs:
            macs[-1] = bytes(len(macs[-1]))
        return macs

    monkeypatch.setattr(MacEngine, "block_mac_batch", corrupted)


def examples(count: int) -> int:
    """Per-test example budget: ``count`` in CI, 10x on ``nightly``."""
    return count * (10 if HYPOTHESIS_PROFILE == "nightly" else 1)


@pytest.fixture(scope="session")
def tiny_config() -> SystemConfig:
    """1/512-scale Table I configuration (~600 flushed lines)."""
    return SystemConfig.scaled(512)


@pytest.fixture(scope="session")
def small_config() -> SystemConfig:
    """1/128-scale Table I configuration (~2300 flushed lines)."""
    return SystemConfig.scaled(128)


@pytest.fixture
def horus_system(tiny_config) -> SecureEpdSystem:
    return SecureEpdSystem(tiny_config, scheme="horus-slm")


@pytest.fixture
def horus_dlm_system(tiny_config) -> SecureEpdSystem:
    return SecureEpdSystem(tiny_config, scheme="horus-dlm")


@pytest.fixture
def base_lu_system(tiny_config) -> SecureEpdSystem:
    return SecureEpdSystem(tiny_config, scheme="base-lu")


@pytest.fixture
def base_eu_system(tiny_config) -> SecureEpdSystem:
    return SecureEpdSystem(tiny_config, scheme="base-eu")


@pytest.fixture
def nosec_system(tiny_config) -> SecureEpdSystem:
    return SecureEpdSystem(tiny_config, scheme="nosec")
