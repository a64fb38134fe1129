"""The crash matrix and the exhaustive power-cut position sweep.

The matrix pins the qualitative contract (every scheme × fault class either
recovers exactly, detects, or — for nosec only — loses unprotected); the
sweep is the property-style half: a power cut after *every* NVM write index
of a Horus episode, which places the cut at every vault position and every
data/address-block/MAC-block boundary of the coalescing registers.
"""

import pytest

from repro.campaigns.classify import DETECTED, LOST_UNPROTECTED, RECOVERED
from repro.campaigns.engine import fill_lines
from repro.campaigns.scenarios import FAULT_CLASSES, SCHEME_VARIANTS
from repro.common.errors import IntegrityError, RecoveryError
from repro.core.system import SecureEpdSystem
from repro.experiments.faults import run_matrix

SWEEP_LINES = 10
MATRIX_LINES = 48


@pytest.fixture(scope="module")
def matrix_cells(tiny_config):
    return run_matrix(tiny_config, lines=MATRIX_LINES)


class TestCrashMatrix:
    def test_covers_every_variant_and_fault(self, matrix_cells):
        pairs = {(c.scheme, c.fault) for c in matrix_cells}
        assert len(pairs) == len(matrix_cells)
        for scheme, rotate in SCHEME_VARIANTS:
            name = f"{scheme}+rot" if rotate else scheme
            for fault in FAULT_CLASSES:
                assert (name, fault) in pairs

    def test_zero_silent_corruption_cells(self, matrix_cells):
        assert [c for c in matrix_cells if c.silent] == []

    def test_secure_schemes_detect_or_recover(self, matrix_cells):
        for cell in matrix_cells:
            if cell.scheme.startswith("nosec"):
                continue
            assert cell.outcome in (DETECTED, RECOVERED), cell

    def test_nosec_loses_unprotected(self, matrix_cells):
        nosec = [c for c in matrix_cells if c.scheme == "nosec"]
        assert nosec and all(c.outcome == LOST_UNPROTECTED for c in nosec)

    def test_horus_detects_at_recover_not_first_use(self, matrix_cells):
        """Horus verifies the whole vault before trusting any of it, so the
        error must come from recover(), not from a later read."""
        horus = [c for c in matrix_cells if c.scheme.startswith("horus")]
        assert horus
        for cell in horus:
            assert cell.outcome == DETECTED
            assert cell.detail.startswith("recover:"), cell

    def test_single_cell_runner_matches_matrix(self, tiny_config,
                                               matrix_cells):
        (cell,) = run_matrix(tiny_config, lines=MATRIX_LINES,
                             faults=("bit-flip",),
                             variants=(("horus-slm", False),))
        twin = next(c for c in matrix_cells
                    if c.scheme == "horus-slm" and c.fault == "bit-flip")
        assert (cell.outcome, cell.detail) == (twin.outcome, twin.detail)


class TestPowerCutSweep:
    """Exhaustive cut-position property: for every write index b of a clean
    episode with W writes, cutting power after b writes must be detected
    (b < W) or recover bit-exact (b = W)."""

    @pytest.mark.parametrize("scheme,rotate", [
        ("horus-slm", False),
        ("horus-slm", True),
        ("horus-dlm", False),
        ("horus-dlm", True),
    ])
    def test_every_cut_position(self, tiny_config, scheme, rotate):
        def episode(budget=None):
            system = SecureEpdSystem(tiny_config, scheme=scheme,
                                     rotate_vault=rotate)
            expected = fill_lines(system, SWEEP_LINES)
            if budget is not None:
                system.nvm.write_budget = budget
            system.crash(seed=7)
            system.nvm.write_budget = None
            return system, expected

        clean, _ = episode()
        total = clean.stats.total_writes
        vaulted = clean.drain_counter.ephemeral
        # The sweep must cross every vault position and the coalesced
        # address/MAC block writes, or it proves less than it claims.
        assert total > vaulted > SWEEP_LINES

        for budget in range(total + 1):
            system, expected = episode(budget)
            if budget == total:
                system.recover()
                for address, data in expected.items():
                    assert system.read(address) == data
            else:
                with pytest.raises((IntegrityError, RecoveryError)):
                    system.recover()
