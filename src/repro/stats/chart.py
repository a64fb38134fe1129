"""Terminal bar charts.

The paper's figures are bar charts; the runner can render each regenerated
series as horizontal ASCII bars (``--chart``) so the visual shape — who
wins, by what factor — is inspectable straight from the terminal.
"""

from collections.abc import Sequence
from typing import Protocol

FULL = "#"
DEFAULT_WIDTH = 48


class ResultLike(Protocol):
    """The slice of an ExperimentResult the chart renderer consumes."""

    @property
    def experiment_id(self) -> str: ...

    @property
    def headers(self) -> Sequence[str]: ...

    @property
    def rows(self) -> Sequence[Sequence[object]]: ...


def render_bars(labels: Sequence[str], values: Sequence[float],
                width: int = DEFAULT_WIDTH,
                reference: float | None = None) -> str:
    """Render one horizontal bar per (label, value).

    Bars scale so the largest value (or ``reference``) spans ``width``
    characters; each line ends with the numeric value.
    """
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    if not labels:
        return ""
    if width <= 0:
        raise ValueError("width must be positive")
    peak = max(values) if reference is None else reference
    if peak <= 0:
        peak = 1.0
    label_width = max(len(label) for label in labels)
    lines = []
    for label, value in zip(labels, values):
        cells = round(width * min(value, peak) / peak)
        if value > 0 and cells == 0:
            cells = 1
        bar = FULL * cells
        lines.append(f"{label.ljust(label_width)} | {bar} {value:,.3f}")
    return "\n".join(lines)


def render_spans(labels: Sequence[str], starts: Sequence[float],
                 durations: Sequence[float],
                 width: int = DEFAULT_WIDTH) -> str:
    """Render horizontal time spans (a minimal Gantt view).

    Each line shows ``[start, start + duration)`` as a bar offset within the
    global ``[0, max end)`` window — the runner's ``--profile`` timeline uses
    this to make parallel overlap (or the lack of it) visible.
    """
    if not (len(labels) == len(starts) == len(durations)):
        raise ValueError("labels, starts and durations must align")
    if not labels:
        return ""
    if width <= 0:
        raise ValueError("width must be positive")
    window = max(start + duration
                 for start, duration in zip(starts, durations))
    if window <= 0:
        window = 1.0
    label_width = max(len(label) for label in labels)
    lines = []
    for label, start, duration in zip(labels, starts, durations):
        lead = round(width * min(start, window) / window)
        cells = round(width * min(duration, window) / window)
        if duration > 0 and cells == 0:
            cells = 1
        lead = min(lead, width - cells)
        span = " " * lead + FULL * cells
        lines.append(f"{label.ljust(label_width)} |{span.ljust(width)}| "
                     f"{duration:,.3f}s @ {start:,.3f}s")
    return "\n".join(lines)


def chart_experiment(result: ResultLike, value_column: int = -1,
                     width: int = DEFAULT_WIDTH) -> str:
    """Bar-chart one column of an ExperimentResult's table.

    Rows whose chosen column is not numeric are skipped; the first column is
    the bar label.
    """
    labels: list[str] = []
    values: list[float] = []
    for row in result.rows:
        value = row[value_column]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        labels.append(str(row[0]))
        values.append(float(value))
    header = f"{result.experiment_id} — {result.headers[value_column]}"
    return header + "\n" + render_bars(labels, values, width=width)
