"""The persistent experiment/episode result cache.

Covers the key scheme (config, scheme, seeds, code version), hit/miss
accounting, invalidation, corruption tolerance, and the ``--refresh`` /
``--no-cache`` escape hatches — plus the runner integration: a warm rerun
serves every experiment from disk.
"""

import pickle

import pytest

from repro.common.config import SystemConfig
from repro.experiments import cache as cache_mod
from repro.experiments.cache import (
    ResultCache,
    code_version,
    episode_key,
    experiment_key,
)
from repro.experiments.runner import run_experiments_profiled
from repro.experiments.suite import DRAIN_SEED, FILL_SEED, DrainSuite

SCALE = 256


@pytest.fixture(autouse=True)
def _fresh_code_version():
    code_version.cache_clear()
    yield
    code_version.cache_clear()


@pytest.fixture
def cache(tmp_path) -> ResultCache:
    return ResultCache(root=tmp_path / "cache")


def _key(config=None, scheme="nosec") -> str:
    config = config or SystemConfig.scaled(SCALE)
    return episode_key(config, scheme, "sparse", FILL_SEED, DRAIN_SEED)


class TestKeying:
    def test_same_inputs_same_key(self):
        assert _key() == _key()

    def test_config_field_change_changes_key(self):
        from dataclasses import replace
        base = SystemConfig.scaled(SCALE)
        grown = replace(base, security=replace(
            base.security,
            counter_cache_size=base.security.counter_cache_size * 2))
        assert _key(base) != _key(grown)

    def test_scheme_seeds_and_fill_change_key(self):
        config = SystemConfig.scaled(SCALE)
        baseline = episode_key(config, "nosec", "sparse",
                               FILL_SEED, DRAIN_SEED)
        assert episode_key(config, "base-lu", "sparse",
                           FILL_SEED, DRAIN_SEED) != baseline
        assert episode_key(config, "nosec", "sequential",
                           FILL_SEED, DRAIN_SEED) != baseline
        assert episode_key(config, "nosec", "sparse",
                           FILL_SEED + 1, DRAIN_SEED) != baseline
        assert episode_key(config, "nosec", "sparse",
                           FILL_SEED, DRAIN_SEED + 1) != baseline

    def test_code_version_change_invalidates(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "v1")
        first = _key()
        code_version.cache_clear()
        monkeypatch.setenv("REPRO_CODE_VERSION", "v2")
        assert _key() != first

    def test_experiment_key_separates_experiments(self):
        config = SystemConfig.scaled(SCALE)
        a = experiment_key("fig11", config, SCALE, True,
                           FILL_SEED, DRAIN_SEED)
        b = experiment_key("fig12", config, SCALE, True,
                           FILL_SEED, DRAIN_SEED)
        assert a != b
        # Experiment and episode namespaces never collide.
        assert a != _key(config)


class TestStoreAndLoad:
    def test_miss_then_hit(self, cache):
        assert cache.get("k" * 64) is None
        cache.put("k" * 64, {"value": 1})
        assert cache.get("k" * 64) == {"value": 1}
        assert cache.counters() == {"hits": 1, "misses": 1, "stores": 1,
                                    "corrupt": 0}

    def test_disabled_cache_never_stores_or_hits(self, tmp_path):
        disabled = ResultCache(root=tmp_path, enabled=False)
        disabled.put("key", 42)
        assert disabled.get("key") is None
        assert disabled.stores == 0
        assert not list(tmp_path.glob("*.pkl"))

    def test_refresh_ignores_existing_but_still_stores(self, tmp_path):
        warm = ResultCache(root=tmp_path)
        warm.put("key", "old")
        refreshing = ResultCache(root=tmp_path, refresh=True)
        assert refreshing.get("key") is None
        refreshing.put("key", "new")
        assert ResultCache(root=tmp_path).get("key") == "new"

    def test_corrupted_file_is_a_miss_and_removed(self, cache):
        cache.put("key", "payload")
        path = cache._path("key")
        path.write_bytes(b"not a pickle")
        assert cache.get("key") is None
        assert not path.exists()
        # Recompute-and-store works afterwards.
        cache.put("key", "payload")
        assert cache.get("key") == "payload"

    def test_wrong_key_inside_file_is_a_miss(self, cache):
        cache.put("other", "payload")
        entry = pickle.loads(cache._path("other").read_bytes())
        cache._path("stolen").write_bytes(pickle.dumps(entry))
        assert cache.get("stolen") is None

    def test_stale_format_is_a_miss(self, cache):
        cache._path("key").parent.mkdir(parents=True, exist_ok=True)
        cache._path("key").write_bytes(pickle.dumps(
            {"format": -1, "key": "key", "payload": "old"}))
        assert cache.get("key") is None

    def test_corrupt_entry_is_counted_and_logged(self, cache, caplog):
        cache.put("key", "payload")
        cache._path("key").write_bytes(b"\x80\x05garbage")
        with caplog.at_level("WARNING", logger="repro.experiments.cache"):
            assert cache.get("key") is None
        assert cache.corrupt == 1
        assert cache.misses == 1
        assert cache.counters()["corrupt"] == 1
        assert any("corrupt entry" in record.getMessage()
                   for record in caplog.records)

    def test_truncated_entry_is_a_miss_not_a_crash(self, cache):
        cache.put("key", "payload")
        path = cache._path("key")
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get("key") is None
        assert cache.corrupt == 1
        assert not path.exists()

    def test_clean_miss_is_not_counted_as_corrupt(self, cache):
        assert cache.get("never-stored") is None
        assert cache.corrupt == 0

    def test_programming_errors_still_propagate(self, cache, monkeypatch):
        # The broad `except Exception` this path used to have would have
        # classified a simulator bug as a cache miss; only the documented
        # (de)serialization/IO errors may become misses.
        cache.put("key", "payload")

        def explode(*args, **kwargs):
            raise RuntimeError("bug in the simulator, not in the cache file")

        monkeypatch.setattr(pickle, "load", explode)
        with pytest.raises(RuntimeError):
            cache.get("key")
        assert cache.corrupt == 0

    def test_absorb_counters_folds_corrupt(self, cache):
        cache.absorb_counters({"hits": 2, "misses": 3, "stores": 1,
                               "corrupt": 1})
        assert cache.corrupt == 1
        assert cache.counters() == {"hits": 2, "misses": 3, "stores": 1,
                                    "corrupt": 1}


class TestDrainSuiteIntegration:
    def test_episode_cached_across_suites(self, cache):
        first = DrainSuite(scale=SCALE, cache=cache)
        report = first.drain("nosec")
        assert cache.stores == 1
        second = DrainSuite(scale=SCALE, cache=cache)
        cached = second.drain("nosec")
        assert cache.hits == 1
        assert cached.flushed_blocks == report.flushed_blocks
        assert cached.stats.snapshot() == report.stats.snapshot()

    def test_refresh_recomputes_episodes(self, tmp_path):
        DrainSuite(scale=SCALE,
                   cache=ResultCache(root=tmp_path)).drain("nosec")
        refreshing = ResultCache(root=tmp_path, refresh=True)
        DrainSuite(scale=SCALE, cache=refreshing).drain("nosec")
        assert refreshing.hits == 0
        assert refreshing.stores == 1


class TestRunnerIntegration:
    def test_warm_rerun_serves_experiments_from_cache(self, tmp_path):
        names = ["fig11", "ablation-coalescing"]
        cold_cache = ResultCache(root=tmp_path)
        cold, cold_profile = run_experiments_profiled(
            names, scale=SCALE, jobs=1, cache=cold_cache)
        assert all(r.source == "computed" for r in cold_profile.records)

        warm_cache = ResultCache(root=tmp_path)
        warm, warm_profile = run_experiments_profiled(
            names, scale=SCALE, jobs=1, cache=warm_cache)
        assert all(r.source == "cache" for r in warm_profile.records)
        assert [r.to_dict() for r in warm] == [r.to_dict() for r in cold]

    def test_warm_parallel_run_matches_too(self, tmp_path):
        names = ["fig11"]
        cold = run_experiments_profiled(
            names, scale=SCALE, jobs=1, cache=ResultCache(root=tmp_path))[0]
        warm, profile = run_experiments_profiled(
            names, scale=SCALE, jobs=2, cache=ResultCache(root=tmp_path))
        assert [r.to_dict() for r in warm] == [r.to_dict() for r in cold]
        assert profile.cached_records == len(profile.records)


class TestCodeFingerprint:
    """The mtime fingerprint, and the ``REPRO_CODE_VERSION`` pin."""

    def _source_file(self):
        import repro
        from pathlib import Path
        return Path(repro.__file__).resolve().parent / "__init__.py"

    def test_mtime_mode_sees_mtime_changes(self):
        import os
        before = code_version()
        path = self._source_file()
        stat = path.stat()
        try:
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1000))
            code_version.cache_clear()
            assert code_version() != before
        finally:
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))

    def test_version_pin_overrides_fingerprint(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "pinned")
        assert code_version() == "pinned"

    def test_fingerprint_is_a_stable_hex_digest_prefix(self, monkeypatch):
        monkeypatch.delenv("REPRO_CODE_VERSION", raising=False)
        fingerprint = code_version()
        assert len(fingerprint) == 16
        int(fingerprint, 16)  # hex digest prefix
        code_version.cache_clear()
        assert code_version() == fingerprint

    def test_empty_pin_falls_back_to_fingerprint(self, monkeypatch):
        monkeypatch.delenv("REPRO_CODE_VERSION", raising=False)
        computed = code_version()
        code_version.cache_clear()
        monkeypatch.setenv("REPRO_CODE_VERSION", "")
        assert code_version() == computed

    @pytest.mark.parametrize("mode", ["content", "sideways"])
    def test_no_mode_variable_is_consulted(self, monkeypatch, mode):
        """The fingerprint has one mode; a stale ``REPRO_CODE_FINGERPRINT``
        in a user's environment changes nothing and raises nothing."""
        monkeypatch.delenv("REPRO_CODE_VERSION", raising=False)
        monkeypatch.delenv("REPRO_CODE_FINGERPRINT", raising=False)
        computed = code_version()
        code_version.cache_clear()
        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", mode)
        assert code_version() == computed
