"""Event taxonomy, operation counters, timing model, and report formatting."""

from repro.stats.chart import chart_experiment, render_bars
from repro.stats.counters import SimStats
from repro.stats.events import AesKind, MacKind, ReadKind, WriteKind
from repro.stats.report import format_table
from repro.stats.runtime import RuntimeBreakdown, RuntimePerfModel
from repro.stats.timing import TimingBreakdown, TimingModel

__all__ = [
    "chart_experiment",
    "render_bars",
    "RuntimeBreakdown",
    "RuntimePerfModel",
    "SimStats",
    "AesKind",
    "MacKind",
    "ReadKind",
    "WriteKind",
    "TimingBreakdown",
    "TimingModel",
    "format_table",
]
