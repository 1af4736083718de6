"""ASCII figure rendering (:mod:`repro.bench.figplot`)."""

from repro.bench import ascii_chart, have_matplotlib, save_png
from repro.bench.figplot import SHARED_MARKER as SHARED


def _canvas(chart):
    """The plotted rows: the lines between the y label and the x axis."""
    lines = chart.splitlines()
    axis = next(i for i, line in enumerate(lines) if "+--" in line)
    return [line.split("|", 1)[1] for line in lines[2:axis]]


def _legend(chart):
    return chart.splitlines()[-1].strip()


def test_coinciding_points_share_one_marker_named_in_the_legend():
    series = {"ILS": [0.5, 0.7, 0.9], "GILS": [0.2, 0.3, 0.4], "SEA": [0.5, 0.7, 0.9]}
    chart = ascii_chart("T", [5, 10, 15], series)
    canvas = "".join(_canvas(chart))
    assert canvas.count(SHARED) == 3 and canvas.count("x") == 3
    assert "o" not in canvas and "+" not in canvas
    assert _legend(chart) == f"x = GILS   {SHARED} : ILS, SEA"  # no marker the canvas lacks

    chart = ascii_chart("T", [1, 2], {"ILS": [0.5, 0.9], "SEA": [0.5, 0.1]})
    canvas = "".join(_canvas(chart))
    assert [canvas.count(mark) for mark in (SHARED, "o", "x")] == [1, 1, 1]
    assert _legend(chart) == f"o = ILS   x = SEA   {SHARED} : ILS, SEA"

    # one series twice in a cell is not a shared cell
    chart = ascii_chart("T", [1.0, 1.001, 2.0], {"ILS": [0.5, 0.5, 0.9]}, width=8)
    assert SHARED not in "".join(_canvas(chart)) and _legend(chart) == "o = ILS"


def test_none_points_are_skipped():
    chart = ascii_chart("T", [1, 2, 3], {"ILS": [0.1, None, 0.3]})
    assert "".join(_canvas(chart)).count("o") == 2


def test_log_x_ticks_show_raw_values():
    chart = ascii_chart("T", [1, 100, 10_000], {"SEA": [0.2, 0.5, 0.9]}, logx=True)
    assert chart.splitlines()[-2].split()[:2] == ["1", "10000"]


def test_flat_data_is_drawn_mid_canvas():
    chart = ascii_chart("T", [1, 2, 3], {"ILS": [0.7, 0.7, 0.7]}, height=9)
    canvas = _canvas(chart)
    assert canvas[4].count("o") == 3 and "".join(canvas).count("o") == 3
    assert "1.2 |" in chart and "0.2 |" in chart


def test_no_data():
    assert ascii_chart("T", [1, 2], {"ILS": [None, None]}) == "T\n(no data)"
    assert ascii_chart("T", [], {}) == "T\n(no data)"


def test_save_png_reports_a_missing_matplotlib(tmp_path):
    path = tmp_path / "chart.png"
    written = save_png(str(path), "T", [1, 2], {"ILS": [0.1, 0.2]})
    assert written is have_matplotlib()
    assert path.exists() is written
