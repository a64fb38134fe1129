"""Recovery edge geometry: partial coalescing groups and the rotated wrap.

The DLM verify path buffers a whole 64-position group before trusting any of
it, and the rotated vault places episodes at a moving, group-aligned offset
— both have boundary cases (final partial group, episode straddling the
vault end) that only show up at block counts that are *not* multiples of the
register sizes.  A tampered vault is an edge too: the batched path must fail
exactly as the scalar loop does, stats included."""

import pytest

from repro.attacks.adversary import Adversary
from repro.common.constants import CACHE_LINE_SIZE, MACS_PER_BLOCK
from repro.common.errors import IntegrityError, OracleDivergenceError
from repro.core import oracle
from repro.core.system import SecureEpdSystem
from tests.conftest import corrupt_batched_verify_macs

STRIDE = CACHE_LINE_SIZE * 64


def _fill(system, lines):
    expected = {4096 + i * STRIDE: bytes([(7 * i + 13) % 256]) * 64
                for i in range(lines)}
    for address, data in expected.items():
        system.write(address, data)
    return expected


def _round_trip(config, scheme, lines, rotate=False, pre_episodes=0):
    system = SecureEpdSystem(config, scheme=scheme, rotate_vault=rotate)
    for _ in range(pre_episodes):
        system.drain_counter.next()
    expected = _fill(system, lines)
    system.crash(seed=3)
    system.recover()
    for address, data in expected.items():
        assert system.read(address) == data
    return system


class TestPartialGroups:
    """Vaulted-block counts that leave the MAC/address registers half full
    at episode end — including DLM's two register levels."""

    COUNTS = (1, 3, 5, 9, 13, 21)

    @pytest.mark.parametrize("scheme", ["horus-slm", "horus-dlm"])
    def test_odd_counts_round_trip(self, tiny_config, scheme):
        residues_8, residues_64 = set(), set()
        for lines in self.COUNTS:
            system = _round_trip(tiny_config, scheme, lines)
            vaulted = (system.last_drain.flushed_blocks
                       + system.last_drain.metadata_blocks)
            residues_8.add(vaulted % 8)
            residues_64.add(vaulted % 64)
        # The sweep must actually exercise partial final groups at both
        # register levels, not only full-group episodes.
        assert residues_8 - {0}
        assert residues_64 - {0}

    def test_single_block_episode(self, tiny_config):
        _round_trip(tiny_config, "horus-dlm", 1)


class TestRotatedWrap:
    """An episode whose rotated offset starts in the last coalescing group
    wraps around the vault end; drain and recovery must agree on the
    modular slot mapping."""

    @pytest.mark.parametrize("scheme", ["horus-slm", "horus-dlm"])
    def test_wrapped_episode_round_trips(self, tiny_config, scheme):
        probe = SecureEpdSystem(tiny_config, scheme=scheme, rotate_vault=True)
        chv = probe.drain_engine._chv
        align = probe.drain_engine.mac_group
        groups = chv.capacity // align

        system = _round_trip(tiny_config, scheme, lines=2 * align,
                             rotate=True, pre_episodes=groups - 1)
        rotation = system.drain_engine._rotation
        assert rotation.offset == chv.capacity - align
        assert rotation.offset + (2 * align) > chv.capacity

    @pytest.mark.parametrize("scheme", ["horus-slm", "horus-dlm"])
    def test_every_start_group_round_trips(self, small_config, scheme):
        """Sweep the episode start across each rotation group at the small
        scale, covering wrap and non-wrap placements alike."""
        probe = SecureEpdSystem(small_config, scheme=scheme,
                                rotate_vault=True)
        groups = probe.drain_engine._chv.capacity \
            // probe.drain_engine.mac_group
        for start in range(groups):
            _round_trip(small_config, scheme, lines=9, rotate=True,
                        pre_episodes=start)


def _run_time_writes(system):
    """Write-allocate into the full hierarchy: the evictions write back
    through the controller, leaving dirty metadata lines to vault."""
    for i in range(16):
        system.write(i * 4096 + 64, bytes([i + 1]) * CACHE_LINE_SIZE)


class TestBatchedRefillParity:
    """The batched recovery refills the vault's data run in one pass and
    restores the metadata-cache dump after it line by line.  The oracle
    holds it to the scalar loop on every restored lane, in LRU order: the
    hierarchy levels and the metadata caches."""

    @pytest.mark.parametrize("scheme", ["horus-slm", "horus-dlm"])
    def test_vault_with_a_metadata_suffix(self, tiny_config, scheme):
        outcome = oracle.run_differential(tiny_config, scheme, recover=True,
                                          before_crash=_run_time_writes)
        assert outcome.drain.metadata_blocks > 0
        assert outcome.recovery.blocks_restored == \
            outcome.drain.flushed_blocks + outcome.drain.metadata_blocks

    @pytest.mark.parametrize("scheme, message", [
        ("horus-slm", "CHV MAC mismatch at vault position {position} "),
        ("horus-dlm", "second-level MAC mismatch for group ending at vault "
                      "position {group_end}"),
    ])
    def test_tampered_vault_restores_the_same_prefix(self, tiny_config,
                                                     scheme, message):
        """One data block tampered mid-episode: both paths raise the same
        error after restoring the same prefix (every position before it
        for SLM, every whole group before its group for DLM)."""
        systems = []

        def tamper(system):
            position = system.drain_counter.ephemeral // 2 + 3
            Adversary(system.nvm).tamper(
                system.drain_engine._chv.data_address(position))
            systems.append((system, position))

        outcome = oracle.run_differential(tiny_config, scheme, recover=True,
                                          before_crash=_run_time_writes,
                                          before_recover=tamper)
        (batched, position), (scalar, _) = systems
        assert batched.batched and not scalar.batched
        assert outcome.recovery is None
        error, text = outcome.recovery_error
        assert error == IntegrityError.__name__
        group_end = position | (MACS_PER_BLOCK - 1)
        assert message.format(position=position, group_end=group_end) in text
        restored = len(batched.hierarchy.llc)
        assert 0 < restored < batched.last_drain.flushed_blocks


class TestFailedRecoveryParity:
    """A tampered vault slot fails the batched recovery's one whole-vault
    comparison before anything is restored; recovery then rewinds the
    stats and runs the scalar loop, the one failure path.  Both paths
    leave the same error, stats, lanes and NVM image."""

    def _failed_recovery(self, config, scheme: str, position: int,
                         mode: str, rotate: bool, batched: bool) -> dict:
        system = SecureEpdSystem(config, scheme=scheme, batched=batched,
                                 recovery_mode=mode, rotate_vault=rotate)
        for _ in range(3):
            # Earlier episodes move a rotated vault off its base.
            system.drain_counter.next()
        system.fill_worst_case(seed=5)
        system.crash(seed=9)
        engine = system.drain_engine
        assert position < system.drain_counter.ephemeral
        Adversary(system.nvm).tamper(
            engine._chv.data_address(engine._rotation.data_slot(position)))
        with pytest.raises(IntegrityError) as failure:
            system.recover()
        controller = system.controller
        return {
            "exception": str(failure.value),
            "stats": system.stats.snapshot(),
            "hierarchy lanes": [list(level.lines())
                                for level in system.hierarchy.levels],
            "metadata lanes": [list(controller.metadata_lines(cache))
                               for cache in controller.metadata_caches],
            "NVM image": system.nvm.backend.image(),
        }

    @pytest.mark.parametrize("rotate", [False, True],
                             ids=["unrotated", "rotated"])
    @pytest.mark.parametrize("mode", ["refill", "writeback"])
    @pytest.mark.parametrize("position", [0, 37, 300])
    @pytest.mark.parametrize("scheme", ["horus-slm", "horus-dlm"])
    def test_failed_recovery_matches_the_scalar_loop(self, tiny_config,
                                                     scheme, position,
                                                     mode, rotate):
        batched = self._failed_recovery(tiny_config, scheme, position,
                                        mode, rotate, batched=True)
        scalar = self._failed_recovery(tiny_config, scheme, position,
                                       mode, rotate, batched=False)
        for name in scalar:
            assert batched[name] == scalar[name], name

    def test_batched_only_mismatch_is_a_divergence(self, tiny_config,
                                                   monkeypatch):
        """Batched VERIFY MACs corrupted, scalar ones intact: the scalar
        loop restores the whole vault, so the batched mismatch is a bug
        and recovery raises ``OracleDivergenceError``."""
        system = SecureEpdSystem(tiny_config, scheme="horus-slm")
        system.fill_worst_case(seed=5)
        system.crash(seed=9)
        corrupt_batched_verify_macs(monkeypatch)
        with pytest.raises(OracleDivergenceError,
                           match="horus-slm recovery found a MAC mismatch"):
            system.recover()

