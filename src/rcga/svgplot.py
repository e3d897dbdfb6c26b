"""Minimal self-contained SVG line plots (no plotting framework).

One function, ``render_panel``, draws a panel: mean curves with shaded
+/-1 std bands, linear or log10 vertical axis, ticks, legend and title.
A log axis spans whole decades, so each of its ticks lies inside the frame.
Output is deterministic for identical input.

Each polyline's and polygon's ``points`` text is the pixel coordinates as
"x,y" pairs to two decimals, exactly as ``"%.2f"`` writes them. A series
whose coordinates all lie in [0, 999.995), as pixel coordinates on the
chart do, and none of which times 100 rounds to a half integer, is written
in one numpy pass; any other series falls back to ``"%.2f"`` per point.
Only finite values set the axis, and a point with a non-finite coordinate
is left out of its line or band.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f"]

WIDTH, HEIGHT = 760, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 78, 170, 46, 56


@dataclass(frozen=True)
class Series:
    """One curve: x positions, mean values and the half-width of its band."""

    label: str
    x: Sequence[float]
    mean: Sequence[float]
    std: Sequence[float]


def _nice_step(span: float) -> float:
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _linear_ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _log_ticks(lo_e: int, hi_e: int) -> list[float]:
    """Decade ticks from 10^lo_e up to 10^hi_e; an axis of 14 or more decades ticks every few."""
    stride = max(1, (hi_e - lo_e) // 7)
    return [10.0**e for e in range(lo_e, hi_e + 1, stride)]


def _points(px: np.ndarray, py: np.ndarray) -> str:
    """SVG ``points`` text: "x,y" pairs to two decimals, space-separated.

    Equal to ``" ".join("%.2f,%.2f" % (x, y) ...)`` for any input. ``"%.2f"``
    rounds the exact value times 100 to whole cents, half to even. When every
    coordinate lies in [0, 999.995) and ``q = v * 100`` is not a half integer,
    ``np.rint(q)`` picks the same cents: rounding is monotone and every half
    integer below 1e5 is a double, so ``q`` lies on the same side of each as
    the exact product. Those digits are written in one numpy pass; any other
    input goes through ``"%.2f"`` per point.
    """
    v = np.column_stack([px, py]).ravel()
    with np.errstate(over="ignore"):  # a huge v takes the per-point path
        q = v * 100.0
    k = np.rint(q)
    # NaN, inf and values from 999.995 up fail ``q < 99999.5``; -0.0 and
    # negative values have the sign bit set.
    fast = not np.signbit(q).any() and (q < 99999.5).all() and (np.abs(q - k) != 0.5).all()
    if not fast:
        return " ".join(map("%.2f,%.2f".__mod__, zip(px.tolist(), py.tolist())))
    k = k.astype(np.int32)
    whole, cents = np.divmod(k, 100)
    # One row per coordinate, "ddd.dd" and a separator; leading zeros are dropped below.
    rows = np.empty((v.size, 7), dtype=np.uint8)
    rows[:, 0] = whole // 100
    rows[:, 1] = whole // 10 % 10
    rows[:, 2] = whole % 10
    rows[:, 4] = cents // 10
    rows[:, 5] = cents % 10
    rows += ord("0")
    rows[:, 3] = ord(".")
    rows[:, 6] = ord(" ")
    rows[::2, 6] = ord(",")
    keep = np.ones(rows.shape, dtype=bool)
    keep[:, 0] = whole >= 100
    keep[:, 1] = whole >= 10
    return rows[keep][:-1].tobytes().decode("ascii")


def _finite_points(px: np.ndarray, py: np.ndarray) -> str:
    """``_points`` of the pairs whose coordinates are both finite."""
    keep = np.isfinite(px) & np.isfinite(py)
    return _points(px[keep], py[keep])


def _tick_label(v: float, log: bool) -> str:
    if log:
        return f"1e{int(round(math.log10(v)))}"
    if v != 0 and (abs(v) >= 1e4 or abs(v) < 1e-3):
        return f"{v:.0e}"
    return f"{v:g}"


def render_panel(title: str, x_label: str, y_label: str, series: Sequence[Series]) -> str:
    """Render one chart; log vertical axis iff every plotted value is positive."""
    if not series:
        raise ValueError("render_panel: no series to plot")
    mean = np.concatenate([np.asarray(s.mean, dtype=float) for s in series])
    std = np.concatenate([np.asarray(s.std, dtype=float) for s in series])
    log_y = bool(np.all(mean > 0.0))
    # Only finite values set the axis: a run that reaches inf gives an inf mean
    # and a NaN std.
    vals = np.concatenate([mean, mean - std, mean + std])
    vals = vals[np.isfinite(vals) & (vals > 0.0)] if log_y else vals[np.isfinite(vals)]
    y_lo, y_hi = (vals.min(), vals.max()) if vals.size else (1.0, 1.0)
    if log_y:  # rounded out to the enclosing decades, so every decade tick lies on the axis
        y_lo, y_hi = math.floor(math.log10(y_lo)), math.ceil(math.log10(y_hi))
    if y_hi - y_lo < 1e-12:
        y_hi = y_lo + 1.0
    # On a log axis, series values below the axis floor (band edges at or
    # below zero) are raised to it.
    y_floor = 10.0**y_lo if log_y else -np.inf
    xs = np.concatenate([np.asarray(s.x) for s in series])
    x_lo, x_hi = xs.min(), xs.max()
    if x_hi - x_lo < 1e-12:  # every point at one x, as in a one-rate sweep
        x_hi = x_lo + 1.0

    def x_pix(x):
        """Pixel column of a data x, a number or an array of them."""
        frac = (x - x_lo) / (x_hi - x_lo)
        return MARGIN_L + frac * (WIDTH - MARGIN_L - MARGIN_R)

    def y_pix(y):
        """Pixel row of a data y, a number or an array of them."""
        v = np.log10(y) if log_y else y
        frac = (v - y_lo) / (y_hi - y_lo)
        return HEIGHT - MARGIN_B - frac * (HEIGHT - MARGIN_T - MARGIN_B)

    b = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    x1, y1 = WIDTH - MARGIN_R, MARGIN_T
    b.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    b.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    b.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15" font-weight="bold">{title}</text>'
    )
    b.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{HEIGHT - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>'
    )
    b.append(
        f'<text x="20" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 20 {(y0 + y1) / 2:.1f})">{y_label}</text>'
    )
    for t in _linear_ticks(x_lo, x_hi):
        px = x_pix(t)
        b.append(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y0 + 5}" stroke="black"/>')
        b.append(
            f'<text x="{px:.1f}" y="{y0 + 19}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_tick_label(t, False)}</text>'
        )
    for t in _log_ticks(int(y_lo), int(y_hi)) if log_y else _linear_ticks(y_lo, y_hi):
        py = y_pix(t)
        b.append(f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" stroke="black"/>')
        b.append(f'<line x1="{x0}" y1="{py:.1f}" x2="{x1}" y2="{py:.1f}" stroke="#dddddd" stroke-width="0.5"/>')
        b.append(
            f'<text x="{x0 - 9}" y="{py + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_tick_label(t, log_y)}</text>'
        )

    colors = [PALETTE[i % len(PALETTE)] for i in range(len(series))]
    for s, color in zip(series, colors):
        px = x_pix(np.asarray(s.x))
        mean, std = np.asarray(s.mean, dtype=float), np.asarray(s.std, dtype=float)
        hi = y_pix(np.maximum(mean + std, y_floor))
        lo = y_pix(np.maximum(mean - std, y_floor))
        band = _finite_points(np.concatenate([px, px[::-1]]), np.concatenate([hi, lo[::-1]]))
        b.append(f'<polygon points="{band}" fill="{color}" fill-opacity="0.15" stroke="none"/>')
        line = _finite_points(px, y_pix(np.maximum(mean, y_floor)))
        b.append(f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.6"/>')

    lx = WIDTH - MARGIN_R + 14
    for row, (s, color) in enumerate(zip(series, colors)):
        ly = MARGIN_T + 14 + row * 20
        b.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 24}" y2="{ly}" stroke="{color}" stroke-width="2.5"/>')
        b.append(
            f'<text x="{lx + 30}" y="{ly + 4}" font-family="sans-serif" font-size="12">{s.label}</text>'
        )
    return "\n".join(b) + "\n</svg>\n"
