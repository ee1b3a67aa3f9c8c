"""Minimal static SVG line plots (no plotting dependency).

Output is plot data for offline viewing; formatting is fixed-precision so
identical inputs produce identical bytes.
"""

from __future__ import annotations

import math
import sys
from itertools import accumulate

import numpy as np

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#393b79", "#ad494a",
)

_WIDTH, _HEIGHT = 840, 520
_MARGIN = 56
_MAX = sys.float_info.max


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _scale(lo: float, hi: float) -> float:
    """The scale s of an axis from lo to hi: 1, or 1/8 where 4 (hi - lo), the largest product a tick forms, overflows.

    The axis maps v to (v s - lo s) / (hi s - lo s), finite for every v in
    [lo, hi], and `_ticks` forms its values at the same scale.  A product
    by 1 changes no bit, so an axis whose ticks fit in float64 keeps its bytes.
    """
    return 1.0 if math.isfinite((hi - lo) * 4) else 0.125


def _ticks(lo: float, hi: float, s: float) -> list[float]:
    # at scale 1/8 a sum may round past MAX s, which would overflow when divided by s; at scale 1 none does
    return [min(lo * s + (hi * s - lo * s) * i / 4, _MAX * s) / s for i in range(5)]


def timeseries_svg(times, series, labels, log_time: bool = False, title: str = "") -> str:
    """Polyline plot of several series against time.

    `series` holds one row of values per label, one value per time, in
    any form `np.asarray(series, dtype=float)` reads.  With `log_time` the
    horizontal axis is log10(t); non-positive times are dropped from the
    plot in that mode.  Each axis spans the finite values it shows, or the
    empty plot's range where there are none, clamped to float64's range,
    so every finite value gets a finite coordinate.  A non-finite value
    ends its series' line: each maximal run of finite points is one
    polyline, a run of one point a dot, and a series with no finite point
    draws neither.
    """
    ts = [float(t) for t in times]
    cols = np.asarray(series, dtype=float)
    if log_time:
        keep = [i for i, t in enumerate(ts) if t > 0.0]
        ts = [math.log10(ts[i]) for i in keep]
        cols = cols[:, keep]
    if not ts:
        ts = [0.0, 1.0]
        cols = np.zeros((len(cols), 2))

    finite_ts = [t for t in ts if math.isfinite(t)] or [0.0, 1.0]
    x_lo, x_hi = min(finite_ts), max(finite_ts)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
        if x_hi == x_lo:  # +1 rounds away at a magnitude of 2**53 or more: widen by the magnitude, toward 0 past MAX/2
            x_lo, x_hi = (x_lo, x_lo + abs(x_lo)) if x_lo <= _MAX / 2 else (0.0, x_lo)
    # Python's min and max over the finite values in row order: which of 0.0 and -0.0 comes first decides
    finite = np.isfinite(cols)
    flat = (cols.ravel() if finite.all() else cols[finite]).tolist() or [0.0]
    y_lo, y_hi = min(flat), max(flat)
    if y_hi == y_lo:
        y_hi, y_lo = y_lo + 0.5, y_lo - 0.5
        if y_hi == y_lo:  # so does +-0.5: widen by half the magnitude
            y_hi, y_lo = min(y_hi + 0.5 * abs(y_hi), _MAX), max(y_lo - 0.5 * abs(y_lo), -_MAX)
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = max(y_lo - pad, -_MAX), min(y_hi + pad, _MAX)
    sx, sy = _scale(x_lo, x_hi), _scale(y_lo, y_hi)

    def px(t: float) -> float:
        return _MARGIN + (t * sx - x_lo * sx) / (x_hi * sx - x_lo * sx) * (_WIDTH - 2 * _MARGIN)

    def py(v: float) -> float:
        return _HEIGHT - _MARGIN - (v * sy - y_lo * sy) / (y_hi * sy - y_lo * sy) * (_HEIGHT - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_WIDTH - 2 * _MARGIN}" '
        f'height="{_HEIGHT - 2 * _MARGIN}" fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="{_MARGIN - 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>'
        )
    axis_label = "log10(t)" if log_time else "t"
    parts.append(
        f'<text x="{_WIDTH / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{axis_label}</text>'
    )
    for tv in _ticks(x_lo, x_hi, sx):
        x = px(tv)
        parts.append(f'<line x1="{x:.2f}" y1="{_HEIGHT - _MARGIN}" x2="{x:.2f}" '
                     f'y2="{_HEIGHT - _MARGIN + 5}" stroke="#333"/>')
        parts.append(f'<text x="{x:.2f}" y="{_HEIGHT - _MARGIN + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{_fmt(tv)}</text>')
    for vv in _ticks(y_lo, y_hi, sy):
        y = py(vv)
        parts.append(f'<line x1="{_MARGIN - 5}" y1="{y:.2f}" x2="{_MARGIN}" y2="{y:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{_MARGIN - 8}" y="{y + 3:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{_fmt(vv)}</text>')

    # py of every value at once, its operations in the same order; the widening above leaves no
    # empty range, so a non-finite value is all that errstate lets pass, and it draws no point
    with np.errstate(all="ignore"):
        ys = (_HEIGHT - _MARGIN) - (cols * sy - y_lo * sy) / (y_hi * sy - y_lo * sy) * (_HEIGHT - 2 * _MARGIN)
    # one format string per plot: each time's "x," once, then a %.2f for its y; point j starts at offs[j]
    xs = [f"{px(t):.2f}" for t in ts]
    points = "".join([x + ",%.2f " for x in xs])
    offs = [0, *accumulate(len(x) + 6 for x in xs)]
    # a non-finite point ends the line: the maximal runs [a, b) of finite points, of every row at once
    rows = ys.tolist()
    runs = [[] for _ in rows]
    r, c = np.nonzero(np.diff(np.isfinite(ys) & np.isfinite(ts), axis=1, prepend=False, append=False))
    for i, a, b in zip(r[::2].tolist(), c[::2].tolist(), c[1::2].tolist()):
        runs[i].append((a, b))
    for idx, (row, row_runs, label) in enumerate(zip(rows, runs, labels)):
        color = _PALETTE[idx % len(_PALETTE)]
        for a, b in row_runs:  # each run is its own polyline, and a run of one point, which a polyline does not show, a dot
            if b - a > 1:
                pts = points[offs[a]:offs[b] - 1] % tuple(row[a:b])
                parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.3"/>')
            else:
                parts.append(f'<circle cx="{xs[a]}" cy="{row[a]:.2f}" r="1.5" fill="{color}"/>')
        ly = _MARGIN + 14 + 13 * idx
        parts.append(f'<line x1="{_WIDTH - _MARGIN - 70}" y1="{ly - 4}" '
                     f'x2="{_WIDTH - _MARGIN - 50}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_WIDTH - _MARGIN - 45}" y="{ly}" font-family="sans-serif" '
                     f'font-size="10">{label}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
