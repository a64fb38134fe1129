"""ASCII bar-chart rendering."""

import pytest

from repro.experiments.result import ExperimentResult
from repro.stats.chart import chart_experiment, render_bars


class TestRenderBars:
    def test_largest_value_spans_full_width(self):
        text = render_bars(["a", "b"], [10.0, 5.0], width=10)
        lines = text.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_values_are_printed(self):
        text = render_bars(["x"], [1.25])
        assert "1.250" in text

    def test_labels_align(self):
        text = render_bars(["a", "longer"], [1.0, 2.0])
        lines = text.splitlines()
        assert lines[0].index("|") == lines[1].index("|")

    def test_nonzero_values_get_at_least_one_cell(self):
        text = render_bars(["tiny", "huge"], [0.001, 100.0], width=10)
        assert text.splitlines()[0].count("#") == 1

    def test_zero_value_gets_no_bar(self):
        text = render_bars(["zero", "one"], [0.0, 1.0], width=10)
        assert text.splitlines()[0].count("#") == 0

    def test_explicit_reference_scaling(self):
        text = render_bars(["a"], [5.0], width=10, reference=10.0)
        assert text.count("#") == 5

    def test_values_above_reference_clamp(self):
        text = render_bars(["a"], [20.0], width=10, reference=10.0)
        assert text.count("#") == 10

    def test_empty_input(self):
        assert render_bars([], []) == ""

    def test_validation(self):
        with pytest.raises(ValueError):
            render_bars(["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            render_bars(["a"], [1.0], width=0)


class TestChartExperiment:
    def test_charts_last_numeric_column(self):
        result = ExperimentResult(
            "figN", "t", ["scheme", "count", "x nosec"],
            [["nosec", 100, 1.0], ["base", 1000, 10.1],
             ["note", "n/a", "skip-me"]],
            "p")
        text = chart_experiment(result, width=10)
        assert text.startswith("figN — x nosec")
        assert "nosec" in text and "base" in text
        assert "skip-me" not in text

    def test_end_to_end_with_real_experiment(self):
        from repro.experiments.fig16_recovery_time import run
        from repro.experiments.suite import DrainSuite
        result = run(DrainSuite(scale=128))
        text = chart_experiment(result, value_column=1)
        assert "#" in text
