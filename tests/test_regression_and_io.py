"""Regression comparison tool."""

import json

import pytest

from repro.experiments.regression import (
    CellDrift,
    compare_runs,
    main as regression_main,
)


def _run_doc(value: float = 10.0, passed: bool = True) -> dict:
    return {
        "scale": 16,
        "experiments": [{
            "experiment_id": "figX",
            "headers": ["scheme", "requests", "ratio"],
            "rows": [["horus", 100, 1.25], ["base", 1000, value]],
            "checks": [{"claim": "horus wins", "passed": passed,
                        "measured": "x"}],
        }],
    }


class TestCompareRuns:
    def test_identical_runs_are_clean(self):
        report = compare_runs(_run_doc(), _run_doc())
        assert report.clean
        assert "no regressions" in report.to_text()

    def test_within_tolerance_is_clean(self):
        # 10.0 -> 10.05 is a 0.5% move: inside the 1% default tolerance.
        report = compare_runs(_run_doc(10.0), _run_doc(10.05),
                              tolerance=0.01)
        assert report.clean

    def test_drift_beyond_tolerance_is_reported(self):
        report = compare_runs(_run_doc(10.0), _run_doc(12.0))
        assert not report.clean
        assert len(report.drifts) == 1
        drift = report.drifts[0]
        assert drift.column == "ratio"
        assert drift.row_label == "base"
        assert drift.relative_change == pytest.approx(0.2)

    def test_check_flip_is_reported(self):
        report = compare_runs(_run_doc(passed=True), _run_doc(passed=False))
        assert report.check_flips
        assert "PASS->MISS" in report.check_flips[0]

    def test_missing_experiment_is_reported(self):
        new = _run_doc()
        new["experiments"] = []
        report = compare_runs(_run_doc(), new)
        assert report.missing_experiments == ["figX"]

    def test_non_numeric_cells_are_ignored(self):
        old, new = _run_doc(), _run_doc()
        old["experiments"][0]["rows"][0][0] = "horus"
        new["experiments"][0]["rows"][0][0] = "horus"
        assert compare_runs(old, new).clean

    def test_cli_roundtrip(self, tmp_path):
        old_path = tmp_path / "old.json"
        new_path = tmp_path / "new.json"
        old_path.write_text(json.dumps(_run_doc(10.0)))
        new_path.write_text(json.dumps(_run_doc(15.0)))
        assert regression_main([str(old_path), str(new_path)]) == 1
        new_path.write_text(json.dumps(_run_doc(10.0)))
        assert regression_main([str(old_path), str(new_path)]) == 0

    def test_drift_str_is_readable(self):
        drift = CellDrift("figX", "base", "ratio", 10.0, 12.0)
        assert "figX[base].ratio" in str(drift)
        assert "+20.0%" in str(drift)
