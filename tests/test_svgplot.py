import hashlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rcga import svgplot
from rcga.svgplot import Series, _points, render_panel

X = np.arange(1, 61)  # generation numbers, as plot_convergence passes them
CLAMPED_STD = np.where(X % 3 == 0, 1.5, np.where(X % 3 == 1, 1.0, 0.5)) / X  # m - sd < 0, = 0, > 0

# Fixed inputs built from exact IEEE arithmetic only, so they are the same on every platform.
CASES = {
    "log": [
        Series("AX-GM", X, 100.0 / X**2, 50.0 / X**2),
        Series("PSOX-GM", X, 50.0 / X, 12.5 / X),
    ],
    "linear": [
        Series("SBX-NUM", X, (X - 30) / 7.0, 1.0 + X / 60.0),
        Series("flat", X, np.zeros(X.size), np.zeros(X.size)),
    ],
    "log_clamped_band": [
        Series("LX-NUM", X, 1.0 / X, CLAMPED_STD),
    ],
    "sweep_lists": [
        Series("PSOX-GM", [0.1, 0.4, 0.7, 1.0], [3.25, 0.5, 0.125, 0.0625], [1.0, 0.25, 0.0, 0.03125]),
    ],
    # A run that reached inf: an inf mean with a NaN std.
    "inf_mean": [
        Series("AX-GM", X[:8], [8.0, 4.0, np.inf, 2.0, 1.0, np.inf, 0.5, 0.25],
               [1.0, 0.5, np.nan, 0.25, 0.0, np.nan, 0.125, 0.0625]),
    ],
    # More series than PALETTE has colours: the colours wrap around.
    "palette_wrap": [Series(f"S{i}", X, (i + 1) / X, 0.25 / X) for i in range(len(svgplot.PALETTE) + 2)],
}

# SHA-256 of each panel. "linear" was recorded from the per-point renderer
# that the one-pass ``_points`` replaced; the five log-axis panels were
# re-recorded when the log axis was rounded out to whole decades, which moved
# their ticks inside the frame and rescaled their points.
DIGESTS = {
    "log": "5cfc8ec0c42e62d3682424fb2a6fe8a8d541c88d7a5727bcc2b40e6b147044e8",
    "linear": "186a67f4089488e5a975be88f1ff471dce678a64a390c049f3f0424da507c0cf",
    "log_clamped_band": "fb0ff533e122126439d67e38189bf3d2a73282aad945ed46c8590cd1a27232d6",
    "sweep_lists": "876a75ebdd81129b3dba7a658daf38d5bdb0308c24cc93bf4b1f7829175e705e",
    "inf_mean": "b46a755135d544bc0854e1b7c98cb6892e246c13598e48efb1d39389bc770dc4",
    "palette_wrap": "4333106f952badd0a0d8cdea7c73bf6a0b1406fc8cef3ae63e36df885217c42d",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_render_panel_output_is_pinned(case):
    svg = render_panel(f"Problem 0: {case}", "generation", "best objective", CASES[case])
    assert hashlib.sha256(svg.encode()).hexdigest() == DIGESTS[case]


def test_axis_choice():
    assert ">1e" in render_panel("t", "x", "y", CASES["log"])
    assert ">1e" not in render_panel("t", "x", "y", CASES["linear"])
    assert ">1e" in render_panel("t", "x", "y", CASES["log_clamped_band"])


@pytest.mark.parametrize("case", ["log", "log_clamped_band", "sweep_lists", "inf_mean", "palette_wrap"])
def test_log_tick_labels_lie_inside_the_frame(case):
    """Each y tick label is centred on its tick (its baseline sits 4 px below),
    and every tick lies between the top and the bottom of the frame. On the
    "log" panel (means 100/x^2 and 50/x) the 1e-2 label once sat below the x
    axis and the 1e3 label above the canvas."""
    svg = render_panel("t", "x", "y", CASES[case])
    label_x = f'x="{svgplot.MARGIN_L - 9}"'  # where y tick labels sit
    rows = [float(el.split(' y="')[1].split('"')[0]) - 4 for el in svg.splitlines() if label_x in el]
    assert len(rows) >= 2
    assert all(svgplot.MARGIN_T <= y <= svgplot.HEIGHT - svgplot.MARGIN_B for y in rows), rows


def test_one_x_gets_distinct_tick_labels():
    """Points that share one x (a one-rate sweep, one generation) get an x axis of span 1."""
    svg = render_panel("t", "x", "y", [Series("PSOX-GM", [0.1], [3.0], [1.0])])
    tick_row = f'y="{svgplot.HEIGHT - svgplot.MARGIN_B + 19}"'  # where x tick labels sit
    labels = [el.split(">")[1].split("<")[0] for el in svg.splitlines() if tick_row in el]
    assert len(labels) >= 2
    assert len(set(labels)) == len(labels)


def test_no_series_rejected():
    with pytest.raises(ValueError, match="no series"):
        render_panel("t", "x", "y", [])


def old_points(px, py):
    """The per-point formatter ``_points`` must match byte for byte."""
    return " ".join(map("%.2f,%.2f".__mod__, zip(px.tolist(), py.tolist())))


def nudged(k):
    """A half cent ``(k + 0.5) / 100`` moved by up to three ulps: where "%.2f"
    rounds the exact binary value and ``v * 100`` could round the other way."""
    tie = (k + 0.5) / 100
    return st.integers(-3, 3).map(lambda ulps: tie + ulps * float(np.spacing(tie)))


NEAR_TIES = [0.165, 2.675, 1.005, 0.125, 0.375, 999.994, 999.995, 999.996, 1000.0, 12345.678]
ODD = [-0.0, -0.004, -1.5, 1e300, np.nan, np.inf, -np.inf]
PIXEL = st.floats(0.0, 999.99)
EDGE = PIXEL | st.sampled_from(NEAR_TIES) | st.integers(0, 99_999).flatmap(nudged)
ANY = EDGE | st.floats() | st.sampled_from(ODD)


@st.composite
def one_odd_coordinate(draw):
    """Pixel-range pairs with one coordinate that only the per-point path writes right."""
    pairs = draw(st.lists(st.tuples(PIXEL, PIXEL), min_size=1, max_size=40))
    flat = [c for pair in pairs for c in pair]
    flat[draw(st.integers(0, len(flat) - 1))] = draw(st.sampled_from(NEAR_TIES + ODD) | ANY)
    return list(zip(flat[::2], flat[1::2]))


@given(st.one_of(*(st.lists(st.tuples(c, c), max_size=40) for c in (PIXEL, EDGE, ANY)), one_odd_coordinate()))
@example([])
@example([(0.165, 2.675)])
@example([(1.005, -0.0), (0.0, 760.0)])
@example([(5.0, -0.0)])
@example([(5.0, -1.5)])
@example([(1000.0, 5.0)])
@example([(np.nan, 1.0), (np.inf, -np.inf)])
def test_points_equal_the_per_point_expression(pairs):
    px = np.array([x for x, _ in pairs], dtype=float)
    py = np.array([y for _, y in pairs], dtype=float)
    assert _points(px, py) == old_points(px, py)


def test_long_run_panel_equals_the_per_point_rendering(monkeypatch):
    x = np.arange(1, 1001)
    series = [
        Series("AX-GM", x, 1e3 / x**1.5, 0.3e3 / x**1.5),
        Series("PSOX-GM", x, np.exp(-x / 90.0), np.exp(-x / 90.0) / 3.0),
    ]
    svg = render_panel("Problem 0: long", "generation", "best objective", series)
    monkeypatch.setattr(svgplot, "_points", old_points)
    assert svg == render_panel("Problem 0: long", "generation", "best objective", series)


@pytest.mark.parametrize("mean, std", [
    ([4.0, 2.0, np.inf, 1.0], [1.0, np.nan, np.nan, 0.5]),  # a run reached inf
    ([-1.0, np.nan, 0.5, np.inf], [0.5, np.nan, 0.25, np.nan]),  # linear axis
    ([np.inf, np.inf], [np.nan, np.nan]),  # nothing finite to draw
], ids=["log", "linear", "none_finite"])
def test_non_finite_points_are_left_out(mean, std):
    mean, std = np.array(mean), np.array(std)
    svg = render_panel("t", "x", "y", [Series("AX-GM", np.arange(1, mean.size + 1), mean, std)])
    band, line = (el.split('points="')[1].split('"')[0] for el in svg.splitlines() if 'points="' in el)
    assert band.count(",") == np.isfinite(mean + std).sum() + np.isfinite(mean - std).sum()
    assert line.count(",") == np.isfinite(mean).sum()
    assert "nan" not in svg and "inf" not in svg
