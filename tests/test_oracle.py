"""The differential oracle: sampling semantics and zero divergence.

The headline acceptance check for the batched hot paths: across every
scheme variant the fault matrix sweeps (including vault rotation and
writeback recovery), running the same seeded episode scalar and batched
produces zero observable divergence — and when a divergence *is* planted,
the oracle catches it and names the field.
"""

import inspect

import pytest

from repro.attacks.adversary import Adversary
from repro.cache.hierarchy import CacheHierarchy
from repro.campaigns.scenarios import SCHEME_VARIANTS
from repro.common.config import SystemConfig
from repro.common.errors import OracleDivergenceError
from repro.core import oracle
from repro.core.horus import HorusDrainEngine
from repro.core.recovery import HorusRecovery
from repro.core.system import SecureEpdSystem
from repro.crypto import batch
from repro.secure.controller import SecureMemoryController
from repro.sharding.pool import ShardRunSpec
from repro.sharding.system import ShardedSecureSystem
from repro.stats.counters import SimStats

CONFIG = SystemConfig.scaled(512)


def variant_id(variant):
    scheme, rotate = variant
    return f"{scheme}+rot" if rotate else scheme


class TestZeroDivergence:
    @pytest.mark.parametrize("variant", SCHEME_VARIANTS, ids=variant_id)
    def test_fault_matrix_schemes_never_diverge(self, variant):
        scheme, rotate = variant
        kwargs = {"rotate_vault": True} if rotate else {}
        outcome = oracle.run_differential(CONFIG, scheme, recover=True,
                                          **kwargs)
        assert outcome.drain is not None
        assert outcome.checks >= 7

    @pytest.mark.parametrize("fill", ["sparse", "sequential"])
    def test_fill_modes_never_diverge(self, fill):
        outcome = oracle.run_differential(CONFIG, "horus-slm", fill=fill,
                                          recover=True)
        assert outcome.drain is not None

    def test_writeback_recovery_never_diverges(self):
        outcome = oracle.run_differential(CONFIG, "horus-dlm", recover=True,
                                          recovery_mode="writeback")
        assert outcome.recovery is not None

    @pytest.mark.parametrize("scheme, kwargs", [
        ("base-lu", {}),
        ("base-eu", {}),
        ("base-lu", {"osiris_stop_loss": 8}),
    ], ids=["base-lu", "base-eu", "base-lu+osiris"])
    def test_multi_chunk_baseline_drain_never_diverges(self, scheme, kwargs):
        """Scale 64 drains 4,624 lines: the batched Base-LU/EU drain spans
        two controller chunks and must still match the per-line loop."""
        config = SystemConfig.scaled(64)
        outcome = oracle.run_differential(config, scheme, recover=True,
                                          **kwargs)
        assert outcome.drain.flushed_blocks == config.total_cache_lines
        assert outcome.drain.flushed_blocks > 4096

    def test_planted_divergence_is_caught(self, monkeypatch):
        """Corrupt one batched MAC: the oracle must refuse the episode and
        name a diverging observable."""
        real = batch.compute_block_macs

        def corrupted(key, buffer, addresses, counters, domain,
                      frames=None):
            macs = real(key, buffer, addresses, counters, domain, frames)
            if macs:
                macs[-1] = bytes(len(macs[-1]))
            return macs

        monkeypatch.setattr(batch, "compute_block_macs", corrupted)
        with pytest.raises(OracleDivergenceError, match="diverged on"):
            oracle.run_differential(CONFIG, "horus-slm", recover=True)


def _tamper_vault(system):
    Adversary(system.nvm).tamper(system.drain_engine._chv.data_address(37))


class TestFailedRecoveryStats:
    """A failed recovery is compared like a passing one, ``total stats``
    included (``tests/test_recovery_edges.py`` runs the tampered vaults
    that never diverge)."""

    def test_unrewound_failure_stats_are_caught(self, monkeypatch):
        """A batched recovery that kept its failed attempt's counts
        diverges on the stats alone."""
        monkeypatch.setattr(SimStats, "rewind", lambda self, earlier: None)
        with pytest.raises(OracleDivergenceError,
                           match="diverged on 'total stats'"):
            oracle.run_differential(CONFIG, "horus-slm", recover=True,
                                    before_recover=_tamper_vault)


class TestReplayZeroDivergence:
    """Runtime twin of the drain sweep: scalar vs epoch-batched replay."""

    SCHEMES = ("base-lu", "base-eu", "horus-slm", "horus-dlm")

    @staticmethod
    def _trace(workload: str, num_ops: int = 1200):
        from repro.workloads.ycsb import ycsb_trace
        return ycsb_trace(workload, num_ops=num_ops,
                          footprint_blocks=CONFIG.llc.num_lines * 2,
                          seed=87)

    @pytest.mark.parametrize("workload", list("abcdef"))
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_ycsb_sweep_never_diverges(self, scheme, workload):
        outcome = oracle.run_replay_differential(
            CONFIG, scheme, self._trace(workload), epoch_ops=256)
        assert outcome.expected is not None
        assert outcome.checks >= 8

    def test_nosec_replay_never_diverges(self):
        """The grouped-NVM (controller-less) path is held equal too."""
        outcome = oracle.run_replay_differential(
            CONFIG, "nosec", self._trace("a"), epoch_ops=256)
        assert outcome.expected is not None

    def test_planted_divergence_is_caught(self, monkeypatch):
        """Corrupt one batched MAC: a later read of that address fails
        verification only on the batched side, and the oracle names it."""
        real = batch.compute_block_macs

        def corrupted(key, buffer, addresses, counters, domain,
                      frames=None):
            macs = real(key, buffer, addresses, counters, domain, frames)
            if macs:
                macs[-1] = bytes(len(macs[-1]))
            return macs

        monkeypatch.setattr(batch, "compute_block_macs", corrupted)
        with pytest.raises(OracleDivergenceError, match="diverged on"):
            oracle.run_replay_differential(CONFIG, "horus-dlm",
                                           self._trace("a"), epoch_ops=256)

    def test_outcome_is_the_batched_run(self):
        outcome = oracle.run_replay_differential(
            CONFIG, "horus-slm", self._trace("b", num_ops=300),
            epoch_ops=128)
        assert outcome.system.batched is True


BATCHED_ENTRY_POINTS = {
    "system": SecureEpdSystem,
    "controller": SecureMemoryController,
    "horus-drain": HorusDrainEngine,
    "horus-recovery": HorusRecovery,
    "fill-worst-case": CacheHierarchy.fill_worst_case,
    "shard-run-spec": ShardRunSpec,
    "sharded-system": ShardedSecureSystem,
}


class TestBatchedByDefault:
    """Every entry point that can run either path takes ``batched: bool =
    True``; no environment variable picks the path behind the caller's
    back (the oracle passes ``batched`` explicitly per side)."""

    @pytest.mark.parametrize("entry", list(BATCHED_ENTRY_POINTS))
    def test_signature_defaults_to_batched(self, entry):
        parameter = inspect.signature(
            BATCHED_ENTRY_POINTS[entry]).parameters["batched"]
        assert parameter.default is True
        assert parameter.annotation in (bool, "bool")

    @pytest.mark.parametrize("scheme", ["nosec", "base-lu", "base-eu",
                                        "horus-slm", "horus-dlm"])
    def test_default_system_runs_batched_whatever_the_environment(
            self, monkeypatch, scheme):
        monkeypatch.setenv("REPRO_BATCH", "0")
        system = SecureEpdSystem(CONFIG, scheme=scheme)
        engines = [system.drain_engine, system.recovery_engine]
        if scheme != "nosec":
            engines.append(system.controller)
        flags = {engine.batched for engine in engines
                 if engine is not None and hasattr(engine, "batched")}
        assert system.batched is True
        # The nosec drain has one path, so its system's engines carry no
        # flag at all.
        assert flags == (set() if scheme == "nosec" else {True})


class TestSampling:
    @pytest.fixture(autouse=True)
    def _reset_counter(self, monkeypatch):
        monkeypatch.setattr(oracle, "_EPISODES_SEEN", 0)

    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_ORACLE", raising=False)
        assert oracle.oracle_interval() == 0
        assert not oracle.should_check()

    def test_zero_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_ORACLE", "0")
        assert not any(oracle.should_check() for _ in range(5))

    def test_one_checks_every_episode(self, monkeypatch):
        monkeypatch.setenv("REPRO_ORACLE", "1")
        assert all(oracle.should_check() for _ in range(5))

    def test_interval_checks_every_nth(self, monkeypatch):
        monkeypatch.setenv("REPRO_ORACLE", "3")
        decisions = [oracle.should_check() for _ in range(9)]
        assert decisions == [False, False, True] * 3

    def test_non_integer_means_every_episode(self, monkeypatch):
        monkeypatch.setenv("REPRO_ORACLE", "yes")
        assert oracle.oracle_interval() == 1


class TestRunEpisodeIntegration:
    def test_sampled_episode_substitutes_transparently(self, monkeypatch):
        """A differential run returns the same report a plain run would."""
        from repro.experiments.suite import run_episode

        monkeypatch.delenv("REPRO_ORACLE", raising=False)
        plain = run_episode(CONFIG, "horus-dlm")
        monkeypatch.setenv("REPRO_ORACLE", "1")
        monkeypatch.setattr(oracle, "_EPISODES_SEEN", 0)
        checked = run_episode(CONFIG, "horus-dlm")
        assert checked.flushed_blocks == plain.flushed_blocks
        assert checked.metadata_blocks == plain.metadata_blocks
        assert checked.cycles == plain.cycles
        assert checked.stats.snapshot() == plain.stats.snapshot()

    def test_sampled_replay_substitutes_transparently(self, monkeypatch):
        """A differential replay returns the same contents and stats a
        plain one would."""
        from repro.experiments.suite import run_replay_episode
        from repro.workloads.ycsb import ycsb_trace

        trace = ycsb_trace("a", num_ops=600,
                           footprint_blocks=CONFIG.llc.num_lines * 2,
                           seed=87)
        monkeypatch.delenv("REPRO_ORACLE", raising=False)
        plain_system, plain_expected = run_replay_episode(
            CONFIG, "horus-slm", trace, epoch_ops=128)
        monkeypatch.setenv("REPRO_ORACLE", "1")
        monkeypatch.setattr(oracle, "_EPISODES_SEEN", 0)
        checked_system, checked_expected = run_replay_episode(
            CONFIG, "horus-slm", trace, epoch_ops=128)
        assert checked_expected == plain_expected
        assert (checked_system.stats.snapshot()
                == plain_system.stats.snapshot())
        assert (checked_system.nvm.backend.image()
                == plain_system.nvm.backend.image())
