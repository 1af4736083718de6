"""Plain-text table/series rendering for the experiment harness.

The benchmarks print the same rows/series the paper's figures report; this
module renders them as aligned ASCII tables so the output of
``pytest benchmarks/ --benchmark-only`` is directly comparable to the paper.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table", "format_series", "write_csv"]


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    precision: int = 3,
) -> str:
    """Render ``rows`` under ``columns`` as an aligned monospace table."""
    rendered_rows = [
        [_render_cell(cell, precision) for cell in row] for row in rows
    ]
    headers = [str(column) for column in columns]
    widths = [
        max(len(headers[index]), *(len(row[index]) for row in rendered_rows))
        if rendered_rows
        else len(headers[index])
        for index in range(len(headers))
    ]
    lines = [title]
    lines.append("  ".join(header.rjust(width) for header, width in zip(headers, widths)))
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    title: str,
    x_label: str,
    x_values: Sequence[object],
    series: dict[str, Sequence[float]],
    precision: int = 3,
) -> str:
    """Render several named series over a shared x-axis (one row per x)."""
    columns = [x_label] + list(series)
    rows = [
        [x] + [series[name][index] for name in series]
        for index, x in enumerate(x_values)
    ]
    return format_table(title, columns, rows, precision)


def write_csv(
    path,
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> None:
    """Write experiment rows as CSV (for external plotting tools)."""
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(columns))
        for row in rows:
            writer.writerow(list(row))


def _render_cell(cell: object, precision: int) -> str:
    if isinstance(cell, bool):
        return str(cell)
    if isinstance(cell, float):
        return f"{cell:.{precision}f}"
    return str(cell)
