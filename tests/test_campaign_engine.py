"""The adversarial campaign engine: grid shape, invariants, and mechanics.

The module-scoped grid fixture runs the full default lattice once
(variants × scenarios × windows at tiny scale); every invariant test reads
from it.  Mechanics (the injection hooks, the cache, the parallel path, the
CLI) get their own focused cells.
"""

import pytest

from repro.campaigns import (
    CAMPAIGN_LINES,
    DEFAULT_SCENARIOS,
    DETECTED,
    FAULT_CLASSES,
    LOST_UNPROTECTED,
    MID_DRAIN,
    MID_RECOVERY,
    MID_REPLAY,
    RECOVERED,
    SCHEME_VARIANTS,
    SILENT,
    WINDOWS,
    CampaignCell,
    Scenario,
    applicability,
    render_markdown,
    run_campaign,
    run_campaign_cell,
    variant_name,
)
from repro.campaigns.__main__ import main as campaigns_main
from repro.campaigns.engine import _pattern, _pattern2
from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.experiments.cache import ResultCache
from repro.experiments.faults import run_matrix
from repro.faults.plan import AdversaryAt, FaultPlan

CELL_FLOOR = 200


@pytest.fixture(scope="module")
def grid(tiny_config):
    return run_campaign(tiny_config)


class TestGridShape:
    def test_grid_meets_the_cell_floor(self, grid):
        assert len(grid.cells) >= CELL_FLOOR

    def test_lattice_fully_accounted(self, grid):
        # Every combination is a cell or a skip-with-reason, never dropped.
        lattice = (len(SCHEME_VARIANTS) * len(DEFAULT_SCENARIOS)
                   * len(WINDOWS))
        assert grid.lattice == lattice
        assert len(grid.cells) + len(grid.skips) == lattice

    def test_no_duplicate_coordinates(self, grid):
        coords = [(c.scheme, c.scenario, c.window) for c in grid.cells]
        coords += [(s.scheme, s.scenario, s.window) for s in grid.skips]
        assert len(coords) == len(set(coords))

    def test_every_variant_appears(self, grid):
        schemes = {c.scheme for c in grid.cells}
        for scheme, rotate in SCHEME_VARIANTS:
            assert variant_name(scheme, rotate) in schemes

    def test_every_window_appears(self, grid):
        assert {c.window for c in grid.cells} == set(WINDOWS)

    def test_every_scenario_appears(self, grid):
        assert ({c.scenario for c in grid.cells}
                == {s.name for s in DEFAULT_SCENARIOS})

    def test_every_skip_has_a_reason(self, grid):
        assert all(skip.reason for skip in grid.skips)

    def test_grid_dimensions_meet_the_issue_floor(self):
        # >=5 scheme variants x >=5 attack/fault actions x >=5 windows.
        assert len(SCHEME_VARIANTS) >= 5
        actions = {s.action for s in DEFAULT_SCENARIOS}
        assert len(actions) >= 5
        assert len(WINDOWS) >= 5


class TestZeroSilentCorruption:
    def test_no_silent_cells_anywhere(self, grid):
        assert grid.silent_cells() == ()

    def test_outcome_counts_add_up(self, grid):
        counts = grid.outcome_counts()
        assert sum(counts.values()) == len(grid.cells)
        assert counts.get(SILENT, 0) == 0

    def test_secure_schemes_detect_or_recover(self, grid):
        for cell in grid.cells:
            if cell.scheme.startswith("nosec"):
                continue
            assert cell.outcome in (DETECTED, RECOVERED), cell

    def test_nosec_never_detects(self, grid):
        nosec = [c for c in grid.cells if c.scheme == "nosec"]
        assert nosec
        for cell in nosec:
            assert cell.outcome in (RECOVERED, LOST_UNPROTECTED), cell

    def test_nosec_loses_something_somewhere(self, grid):
        # The motivation column: without integrity machinery, attacks land.
        nosec = [c for c in grid.cells if c.scheme == "nosec"]
        assert any(c.outcome == LOST_UNPROTECTED for c in nosec)

    def test_every_secure_variant_detects_somewhere(self, grid):
        for scheme, rotate in SCHEME_VARIANTS:
            if scheme == "nosec":
                continue
            name = variant_name(scheme, rotate)
            assert any(c.scheme == name and c.outcome == DETECTED
                       for c in grid.cells), name


class TestDetectionCoverage:
    """Representative strong cells: the attacks the schemes exist to stop."""

    def test_chv_attacks_detected_across_crash_window(self, grid):
        for cell in grid.cells:
            if (cell.scheme.startswith("horus")
                    and cell.scenario.endswith("-chv")
                    and cell.window in ("pre-recovery", "mid-recovery")):
                assert cell.outcome == DETECTED, cell

    def test_shadow_tamper_detected_by_base_lu(self, grid):
        cells = [c for c in grid.cells
                 if c.scenario == "tamper-shadow"
                 and c.window == "pre-recovery"]
        assert cells and all(c.outcome == DETECTED for c in cells)

    def test_mid_drain_faults_match_fault_classes(self, grid):
        fault_cells = {(c.scheme, c.scenario) for c in grid.cells
                       if c.scenario in FAULT_CLASSES}
        expected = {(variant_name(s, r), f)
                    for s, r in SCHEME_VARIANTS for f in FAULT_CLASSES}
        assert fault_cells == expected

    def test_runtime_detection_happens_mid_replay(self, grid):
        # At least one mid-replay attack is caught *before* the crash, by
        # the epoch's own reads — the strongest detection channel.
        runtime = [c for c in grid.cells
                   if c.window == MID_REPLAY
                   and c.detail.startswith("runtime:")]
        assert runtime
        for cell in runtime:
            assert cell.outcome == DETECTED


class TestApplicability:
    def test_fault_scenarios_only_mid_drain(self):
        scenario = Scenario("power-cut")
        for window in WINDOWS:
            reason = applicability("horus-slm", scenario, window)
            assert (reason is None) == (window == MID_DRAIN)

    def test_nosec_has_no_metadata_to_attack(self):
        assert applicability("nosec", Scenario("tamper", "mac"),
                             "pre-recovery")
        assert applicability("nosec", Scenario("tamper", "counter"),
                             "pre-recovery")

    def test_chv_is_horus_only(self):
        scenario = Scenario("tamper", "chv")
        assert applicability("base-lu", scenario, "pre-recovery")
        assert applicability("nosec", scenario, "pre-recovery")
        assert applicability("horus-slm", scenario, "pre-recovery") is None

    def test_shadow_is_base_lu_only(self):
        scenario = Scenario("tamper", "shadow")
        assert applicability("horus-slm", scenario, "pre-recovery")
        assert applicability("base-lu", scenario, "pre-recovery") is None

    def test_mid_recovery_needs_a_recovery_phase(self):
        scenario = Scenario("tamper", "data")
        assert applicability("nosec", scenario, MID_RECOVERY)
        assert applicability("base-eu", scenario, MID_RECOVERY)
        assert applicability("base-lu", scenario, MID_RECOVERY) is None
        assert applicability("horus-dlm", scenario, MID_RECOVERY) is None

    def test_run_campaign_cell_rejects_inapplicable(self, tiny_config):
        with pytest.raises(ConfigError, match="not applicable"):
            run_campaign_cell(tiny_config, "nosec", False,
                              Scenario("tamper", "chv"), "pre-recovery")


class TestMatrixParity:
    """One classification path: the 28-cell crash matrix delegates to the
    campaign engine and must report exactly its historical cells."""

    def test_matrix_cells_reproduced_through_engine(self, tiny_config):
        cells = run_matrix(tiny_config, lines=48)
        assert len(cells) == len(SCHEME_VARIANTS) * len(FAULT_CLASSES)
        assert all(not c.silent for c in cells)
        for cell in cells:
            if cell.scheme == "nosec":
                assert cell.outcome == LOST_UNPROTECTED
            else:
                assert cell.outcome in (DETECTED, RECOVERED)

    def test_horus_matrix_detects_at_recover(self, tiny_config):
        cells = run_matrix(tiny_config, lines=48,
                           variants=(("horus-slm", False),
                                     ("horus-dlm", False)))
        for cell in cells:
            assert cell.outcome == DETECTED
            assert cell.detail.startswith("recover:"), cell


class TestParallelAndCache:
    def test_jobs_parallel_matches_serial(self, tiny_config, grid):
        parallel = run_campaign(tiny_config, jobs=2)
        assert parallel.cells == grid.cells
        assert parallel.skips == grid.skips

    def test_cache_roundtrip_is_identical(self, tiny_config, grid,
                                          tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "campaign-test")
        cold = ResultCache(root=tmp_path)
        first = run_campaign(tiny_config, cache=cold)
        assert cold.stores == len(first.cells)
        warm = ResultCache(root=tmp_path)
        second = run_campaign(tiny_config, cache=warm)
        assert warm.hits == len(second.cells)
        assert warm.misses == 0
        assert second.cells == first.cells == grid.cells

    def test_refresh_recomputes_but_stores(self, tiny_config, tmp_path,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "campaign-test")
        scenarios = (Scenario("tamper", "data"),)
        windows = ("pre-recovery",)
        variants = (("horus-slm", False),)
        cache = ResultCache(root=tmp_path)
        run_campaign(tiny_config, variants, scenarios, windows, cache=cache)
        refresh = ResultCache(root=tmp_path, refresh=True)
        run_campaign(tiny_config, variants, scenarios, windows,
                     cache=refresh)
        assert refresh.hits == 0
        assert refresh.stores == 1


class TestInjectionMechanics:
    def test_adversary_at_fires_exactly_once(self):
        fired = []
        fault = AdversaryAt(at_write=2, action=lambda: fired.append(True))
        plan = FaultPlan([fault])
        for _ in range(5):
            plan.filter_write(0, b"\x01" * 64, b"\x00" * 64)
        assert fired == [True]
        events = [e for e in plan.events if e.fault == "adversary"]
        assert len(events) == 1
        assert events[0].effect == "attacked"

    def test_adversary_at_does_not_filter_the_write(self):
        fault = AdversaryAt(at_write=0, action=lambda: None)
        plan = FaultPlan([fault])
        persisted = plan.filter_write(0, b"\x01" * 64, b"\x00" * 64)
        assert persisted == b"\x01" * 64

    def test_adversary_at_rejects_negative_index(self):
        with pytest.raises(ConfigError):
            AdversaryAt(at_write=-1, action=lambda: None)

    def test_op_hook_observes_reads_and_writes(self, horus_system):
        seen = []
        controller = horus_system.controller
        controller.op_hook = lambda kind, address: seen.append(
            (kind, address))
        horus_system.controller.write(0, b"\x42" * 64)
        horus_system.controller.read(0)
        controller.op_hook = None
        assert seen == [("w", 0), ("r", 0)]

    def test_op_hook_forces_scalar_batch_path(self, horus_system):
        controller = horus_system.controller
        controller.op_hook = lambda kind, address: None
        try:
            # The batch path would bypass per-op hook firing; with a hook
            # set it must fall back to the scalar loop.
            results = controller.run_ops_batch(
                [("w", 0, b"\x11" * 64), ("r", 0, None)])
        finally:
            controller.op_hook = None
        assert results == [None, b"\x11" * 64]

    def test_campaign_cell_has_stable_coordinates(self, tiny_config):
        cell = run_campaign_cell(tiny_config, "horus-slm", False,
                                 Scenario("tamper", "chv"), "pre-recovery")
        assert cell == CampaignCell("horus-slm", "tamper-chv",
                                    "pre-recovery", DETECTED, cell.detail)
        assert cell.detail.startswith("recover:")

    def test_attack_cells_need_enough_lines(self, tiny_config):
        with pytest.raises(ConfigError, match="4 lines"):
            run_campaign_cell(tiny_config, "horus-slm", False,
                              Scenario("tamper", "data"), "pre-recovery",
                              lines=2)


def reference_pattern(address, multiplier, offset, step):
    """The per-byte form the fill patterns had: byte ``i % 4`` of a 32-bit
    hash of the address, XORed with ``(i * step) & 0xFF``."""
    seed = (address * multiplier + offset) & 0xFFFFFFFF
    return bytes((seed >> (8 * (i % 4))) & 0xFF ^ (i * step) & 0xFF
                 for i in range(64))


class TestFillPatterns:
    ADDRESSES = (0, 64, 4096, 64 * 64 * 23, 0x1234_5640, 1 << 32,
                 (1 << 40) + 64 * 7, (1 << 64) - 64,
                 *range(0, 1 << 24, 64 * 9973))

    def test_patterns_match_the_per_byte_expressions(self):
        assert any(address * 2654435761 >= 1 << 32
                   for address in self.ADDRESSES)
        for address in self.ADDRESSES:
            assert _pattern(address) == \
                reference_pattern(address, 2654435761, 0, 37)
            assert _pattern2(address) == \
                reference_pattern(address, 2246822519, 0x61, 53)

    def test_patterns_are_full_lines_and_distinct(self):
        for address in self.ADDRESSES[:8]:
            first, second = _pattern(address), _pattern2(address)
            assert len(first) == len(second) == 64
            assert first != second


class TestRendering:
    def test_render_markdown_has_a_row_per_cell(self, grid):
        table = render_markdown(grid)
        rows = table.splitlines()
        assert len(rows) == len(grid.cells) + 2
        assert rows[0].startswith("| scheme | scenario | window ")


class TestCli:
    def test_cli_runs_and_enforces_the_invariant(self, capsys):
        exit_code = campaigns_main(
            ["--scale", "512", "--no-cache", "--jobs", "2"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "zero silent-corruption cells" in out
        assert "skipped" in out

    def test_cli_markdown_table(self, capsys):
        exit_code = campaigns_main(
            ["--scale", "512", "--no-cache", "--markdown"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "| scheme | scenario | window |" in out

    def test_cli_rejects_bad_arguments(self):
        with pytest.raises(SystemExit):
            campaigns_main(["--jobs", "0"])
        with pytest.raises(SystemExit):
            campaigns_main(["--lines", "2"])

    def test_default_lines_constant_is_sane(self):
        assert CAMPAIGN_LINES >= 4
