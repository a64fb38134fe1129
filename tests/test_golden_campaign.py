"""Golden campaign-matrix outcomes, pinned with a weakened-MAC teeth test.

The full variants × scenarios × windows grid is deterministic, so every
cell's outcome (and every skip's reason) at the 1/128 hierarchy scale is
committed as ``tests/golden/campaign_matrix.json``.  A scheme tweak, an
applicability change, or a classification drift shows up as a byte-level
fixture diff that must be reviewed and regenerated deliberately:

    REPRO_REGOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_campaign.py

The teeth test proves the grid can actually move: with the MAC engine
weakened to a constant (every block "verifies"), a tamper cell that the
fixture records as detected degrades to silent-corruption — i.e. the
SILENT classification is reachable and the invariant is doing work.
"""

import json
import os
from pathlib import Path

import pytest

from repro.campaigns.classify import DETECTED, SILENT
from repro.campaigns.engine import (
    CAMPAIGN_LINES,
    run_campaign,
    run_campaign_cell,
)
from repro.campaigns.scenarios import (
    DEFAULT_SCENARIOS,
    PRE_RECOVERY,
    SCHEME_VARIANTS,
    WINDOWS,
)
from repro.common.constants import MAC_SIZE
from repro.crypto.engine import MacEngine

GOLDEN_PATH = Path(__file__).parent / "golden" / "campaign_matrix.json"


def current_matrix(config) -> dict:
    result = run_campaign(config)
    return {
        "lines": result.lines,
        "lattice": result.lattice,
        "outcomes": result.outcome_counts(),
        "cells": {f"{c.scheme}|{c.scenario}|{c.window}": c.outcome
                  for c in result.cells},
        "skips": {f"{s.scheme}|{s.scenario}|{s.window}": s.reason
                  for s in result.skips},
    }


@pytest.fixture(scope="module")
def golden(small_config) -> dict:
    if os.environ.get("REPRO_REGOLDEN") == "1":
        matrix = current_matrix(small_config)
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(matrix, indent=2, sort_keys=True) + "\n")
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenCampaignMatrix:
    def test_grid_matches_fixture(self, golden, small_config):
        assert current_matrix(small_config) == golden, (
            "campaign grid drifted from the committed outcomes; "
            "if intentional, regenerate with REPRO_REGOLDEN=1")

    def test_fixture_has_zero_silent_cells(self, golden):
        assert golden["outcomes"].get(SILENT, 0) == 0
        assert all(outcome != SILENT
                   for outcome in golden["cells"].values())

    def test_fixture_is_lattice_complete(self, golden):
        expected = (len(SCHEME_VARIANTS) * len(DEFAULT_SCENARIOS)
                    * len(WINDOWS))
        assert golden["lattice"] == expected
        assert len(golden["cells"]) + len(golden["skips"]) == expected

    def test_fixture_meets_the_cell_floor(self, golden):
        assert len(golden["cells"]) >= 200


class TestWeakenedMacTeeth:
    """Plant the bug the invariant exists to catch and watch a cell flip."""

    @pytest.fixture()
    def weakened_macs(self, monkeypatch):
        constant = b"\xfe" * MAC_SIZE

        def weak_block_mac(self, kind, ciphertext, address, counter,
                           domain=None):
            self._stats.record_mac(kind)
            return constant

        def weak_block_mac_batch(self, kind, buffer, addresses, counters,
                                 domain=None, frames=None):
            self._stats.record_mac(kind, len(addresses))
            return [constant] * len(addresses)

        monkeypatch.setattr(MacEngine, "block_mac", weak_block_mac)
        monkeypatch.setattr(MacEngine, "block_mac_batch",
                            weak_block_mac_batch)

    def _tamper_cell(self, config):
        scenario = next(s for s in DEFAULT_SCENARIOS
                        if s.kind == "attack" and s.action == "tamper"
                        and s.target == "data")
        return run_campaign_cell(config, "base-eu", False, scenario,
                                 PRE_RECOVERY, CAMPAIGN_LINES)

    def test_sound_macs_detect_the_tamper(self, golden, small_config):
        cell = self._tamper_cell(small_config)
        assert cell.outcome == DETECTED
        key = f"{cell.scheme}|{cell.scenario}|{cell.window}"
        assert golden["cells"][key] == DETECTED

    def test_weakened_macs_flip_the_cell_to_silent(self, small_config,
                                                   weakened_macs):
        cell = self._tamper_cell(small_config)
        assert cell.outcome == SILENT, (
            "a constant-MAC engine must turn a detected tamper into "
            f"silent corruption, got {cell.outcome}: {cell.detail}")
