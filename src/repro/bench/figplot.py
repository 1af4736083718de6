"""Plain-text figure rendering for the ``runs/`` reproduction harness.

The container image this repo targets does not ship matplotlib, so every
``runs/<figure>/plot.py`` renders an ASCII chart first — it always works,
is diffable in git, and greppable in CI logs — and upgrades to a PNG only
when matplotlib happens to be importable (:func:`save_png` returns False
otherwise, so callers degrade gracefully instead of crashing).

:func:`ascii_chart` plots several named series over a shared x-axis on a
character canvas, one marker per series, with interpolated "." segments
between consecutive points so the paper's curve shapes stay visible at
terminal resolution.  A cell holding points of more than one series shows
:data:`SHARED_MARKER`, and the legend names the series that share it.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

__all__ = ["ascii_chart", "have_matplotlib", "save_png"]

#: one marker per series, cycled in declaration order
MARKERS = "ox+*#@%&"

#: the marker of a cell where points of several series coincide
SHARED_MARKER = "="


def _axis_value(value: float, log: bool) -> float:
    return math.log10(value) if log else float(value)


def ascii_chart(
    title: str,
    xs: Sequence[float],
    series: Mapping[str, Sequence[Optional[float]]],
    *,
    width: int = 64,
    height: int = 16,
    x_label: str = "x",
    y_label: str = "y",
    logx: bool = False,
    logy: bool = False,
) -> str:
    """Render named series over a shared x-axis as a character canvas.

    ``series`` maps a legend name to y-values aligned with ``xs``; ``None``
    entries are simply skipped (a point the run did not measure).  Log axes
    plot ``log10`` of the values but label ticks with the raw numbers.
    """
    points = [
        (name, _axis_value(x, logx), _axis_value(y, logy))
        for name, ys in series.items()
        for x, y in zip(xs, ys)
        if y is not None
    ]
    if not points:
        return f"{title}\n(no data)"
    x_lo = min(p[1] for p in points)
    x_hi = max(p[1] for p in points)
    y_lo = min(p[2] for p in points)
    y_hi = max(p[2] for p in points)
    if y_hi == y_lo:  # flat data still deserves a visible line
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    def col(x: float) -> int:
        if x_hi == x_lo:
            return width // 2
        return round((x - x_lo) / (x_hi - x_lo) * (width - 1))

    def row(y: float) -> int:
        return (height - 1) - round((y - y_lo) / (y_hi - y_lo) * (height - 1))

    canvas = [[" "] * width for _ in range(height)]
    markers = {name: MARKERS[i % len(MARKERS)] for i, name in enumerate(series)}
    # interpolated segments first, so real data points overwrite them
    for name, ys in series.items():
        chain = [
            (col(_axis_value(x, logx)), row(_axis_value(y, logy)))
            for x, y in zip(xs, ys)
            if y is not None
        ]
        for (c0, r0), (c1, r1) in zip(chain, chain[1:]):
            steps = max(abs(c1 - c0), abs(r1 - r0))
            for step in range(1, steps):
                c = c0 + round((c1 - c0) * step / steps)
                r = r0 + round((r1 - r0) * step / steps)
                if canvas[r][c] == " ":
                    canvas[r][c] = "."
    owners: dict[tuple[int, int], set[str]] = {}
    for name, x, y in points:
        owners.setdefault((row(y), col(x)), set()).add(name)
    shared = set().union(*(names for names in owners.values() if len(names) > 1))
    for (r, c), names in owners.items():
        canvas[r][c] = SHARED_MARKER if len(names) > 1 else markers[next(iter(names))]
    drawn = {mark for canvas_row in canvas for mark in canvas_row}

    def tick(value: float, log: bool) -> str:
        return f"{10.0 ** value:g}" if log else f"{value:g}"

    lines = [title]
    label_width = max(len(tick(y_hi, logy)), len(tick(y_lo, logy)), len(y_label))
    lines.append(f"{y_label.rjust(label_width)} |")
    for index, canvas_row in enumerate(canvas):
        if index == 0:
            label = tick(y_hi, logy)
        elif index == height - 1:
            label = tick(y_lo, logy)
        else:
            label = ""
        lines.append(f"{label.rjust(label_width)} |{''.join(canvas_row)}")
    lines.append(f"{' ' * label_width} +{'-' * width}")
    left = tick(x_lo, logx)
    right = tick(x_hi, logx)
    gap = max(1, width - len(left) - len(right))
    lines.append(f"{' ' * label_width}  {left}{' ' * gap}{right}  ({x_label})")
    legend = [f"{markers[name]} = {name}" for name in series if markers[name] in drawn]
    if shared:
        legend.append(f"{SHARED_MARKER} : {', '.join(n for n in series if n in shared)}")
    lines.append(f"{' ' * label_width}  {'   '.join(legend)}")
    return "\n".join(lines)


def have_matplotlib() -> bool:
    """True when matplotlib is importable (it is not baked into the image)."""
    try:
        import matplotlib  # noqa: F401
    except ImportError:
        return False
    return True


def save_png(
    path: str,
    title: str,
    xs: Sequence[float],
    series: Mapping[str, Sequence[Optional[float]]],
    *,
    x_label: str = "x",
    y_label: str = "y",
    logx: bool = False,
    logy: bool = False,
) -> bool:
    """Render the same chart as a PNG; returns False when matplotlib is absent."""
    if not have_matplotlib():
        return False
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    figure, axes = plt.subplots(figsize=(6.4, 4.0))
    for name, ys in series.items():
        pairs = [(x, y) for x, y in zip(xs, ys) if y is not None]
        axes.plot([p[0] for p in pairs], [p[1] for p in pairs],
                  marker="o", label=name)
    if logx:
        axes.set_xscale("log")
    if logy:
        axes.set_yscale("log")
    axes.set_title(title)
    axes.set_xlabel(x_label)
    axes.set_ylabel(y_label)
    axes.legend()
    figure.tight_layout()
    figure.savefig(path, dpi=120)
    plt.close(figure)
    return True
