"""Plain-text table rendering for experiment output.

The experiment harness prints the same rows/series the paper reports; these
helpers keep that formatting in one place (and importantly, out of the
simulation code).
"""

from collections.abc import Iterable, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned monospace table with a header rule."""
    text_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    rule = "  ".join("-" * w for w in widths)
    body = [line(headers), rule]
    body.extend(line(row) for row in text_rows)
    return "\n".join(body)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)
