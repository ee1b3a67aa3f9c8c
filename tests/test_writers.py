"""The CSV and SVG writers against the per-cell and per-point code they replaced.

`_ref_write_csv`, `_ref_timeseries_svg` and `_ref_series` are the writers
as they were: a `ScalarContext.format` call per CSV cell, Python float
arithmetic and one f-string per SVG point, and a series built by indexing
each recorded state; the SVG reference takes its ranges over the finite
values, widens an empty range, scales an overflowing span, ends a line
at a non-finite point and draws a run of one point as a dot as `svg.py` does.  The writers must give their bytes exactly, on non-finite, subnormal
and huge states, on the partial trajectory of a DivergenceError and in
log-time mode with non-positive times.  Run with ``-W error::RuntimeWarning``:
no numpy warning may escape the whole-array arithmetic.
"""

from __future__ import annotations

import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alf import (
    DivergenceError,
    Graph,
    IntegratorConfig,
    Perturbation,
    PerturbedSystem,
    ResponseField,
    ResponseFunction,
    integrate,
    to_standard_form,
)
from alf.dynamics import Trajectory
from alf.precision import ScalarContext
from alf.svg import _HEIGHT, _MARGIN, _MAX, _PALETTE, _WIDTH, _fmt, _scale, _ticks, timeseries_svg


# --- the replaced writers, verbatim ----------------------------------------------

def _ref_write_csv(traj, stream) -> None:
    ctx = ScalarContext(traj.metadata["digits"])
    fast_slice = slice(None, -1) if traj.k_in_state else slice(None)
    stream.write("t," + ",".join(traj.labels) + ",k\n")
    for t, state, k in zip(traj.times, traj.states, traj.k_series):
        cells = [ctx.format(t)]
        cells.extend(ctx.format(v) for v in state[fast_slice])
        cells.append(ctx.format(k))
        stream.write(",".join(cells) + "\n")


def _ref_series(traj, n):
    return [[state[i] for state in traj.states] for i in range(n)]


def _ref_timeseries_svg(times, series, labels, log_time: bool = False, title: str = "") -> str:
    ts = [float(t) for t in times]
    cols = [[float(v) for v in col] for col in series]
    if log_time:
        keep = [i for i, t in enumerate(ts) if t > 0.0]
        ts = [math.log10(ts[i]) for i in keep]
        cols = [[col[i] for i in keep] for col in cols]
    if not ts:
        ts = [0.0, 1.0]
        cols = [[0.0, 0.0] for _ in cols]

    finite_ts = [t for t in ts if math.isfinite(t)] or [0.0, 1.0]
    x_lo, x_hi = min(finite_ts), max(finite_ts)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
        if x_hi == x_lo:  # +1 rounds away at a magnitude of 2**53 or more: widen by the magnitude
            x_lo, x_hi = (x_lo, x_lo + abs(x_lo)) if x_lo <= _MAX / 2 else (0.0, x_lo)
    flat = [v for col in cols for v in col if math.isfinite(v)] or [0.0]
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

    for idx, (col, label) in enumerate(zip(cols, labels)):
        color = _PALETTE[idx % len(_PALETTE)]
        # a non-finite point ends the line; each run of finite points is drawn as its own polyline
        runs = [[]]
        for t, v in zip(ts, col):
            x, y = px(t), py(v)
            if math.isfinite(x) and math.isfinite(y):
                runs[-1].append(f"{x:.2f},{y:.2f}")
            elif runs[-1]:
                runs.append([])
        for run in runs:
            if len(run) > 1:
                parts.append(f'<polyline points="{" ".join(run)}" fill="none" stroke="{color}" stroke-width="1.3"/>')
            elif run:  # one point, which a polyline does not show: a dot
                cx, cy = run[0].split(",")
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="1.5" fill="{color}"/>')
        ly = _MARGIN + 14 + 13 * idx
        parts.append(f'<line x1="{_WIDTH - _MARGIN - 70}" y1="{ly - 4}" '
                     f'x2="{_WIDTH - _MARGIN - 50}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_WIDTH - _MARGIN - 45}" y="{ly}" font-family="sans-serif" '
                     f'font-size="10">{label}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --- trajectories -----------------------------------------------------------------

SPECIAL = (0.0, -0.0, 5e-324, -2.5e-310, 1e-300, 1e300, -1e300, np.inf, -np.inf, np.nan, 1.0, -0.1, 1e6)


def _made(k_in_state: bool) -> Trajectory:
    """Float states of special values, times from negative to positive, k values of both kinds."""
    states = [np.array([SPECIAL[(3 * i + j) % len(SPECIAL)] for j in range(4)]) for i in range(len(SPECIAL))]
    times = [-1.0, -0.0, 0.0, *(0.25 * i for i in range(1, len(SPECIAL) - 2))]
    k_series = [state[-1] if k_in_state else np.float64(SPECIAL[i]) for i, state in enumerate(states)]
    labels = ["x1", "x2", "x3"] if k_in_state else ["x1", "x2", "x3", "x4"]
    return Trajectory(times, states, k_series, labels, k_in_state, {"digits": 16})


def _cubic(digits: int = 16, scale: float = 5000.0, dt: float = 0.05) -> PerturbedSystem:
    """f = -x^3 on a weighted 5-node graph: anti-diffusive, so a large start blows up in one step."""
    g = Graph.from_edge_list(5, [(1, 2, 1.5), (2, 3, 2.0), (3, 4, 0.5), (4, 5, 3.0), (1, 5, 1.0), (2, 4, 2.5)])
    sys_ = PerturbedSystem(g, ResponseField(ResponseFunction.from_coeffs([0, 0, 0, -1])),
                           Perturbation.constant([0.3, -0.2, 0.1, -0.4, 0.25]), Fraction(1, 10))
    with pytest.raises(DivergenceError) as err:
        integrate(sys_, [scale * v for v in (-3, 3, 0, 2, -2)], (-0.5, 1.0),
                  IntegratorConfig(method="rk4", dt=dt, digits=digits, stride=2))
    return err.value.trajectory


def _ex1(digits: int, method: str, standard: bool = False) -> Trajectory:
    field = ResponseField(ResponseFunction.from_roots([(1, 2), (-1, 2)]))
    sys_ = PerturbedSystem(Graph.cycle(6), field, Perturbation.random_constant(6, 3, -0.5, 0.5), Fraction(1, 10))
    x0 = [-0.9, 0.4, 0.1, -0.3, 0.7, -0.2]
    if standard:
        sys_ = to_standard_form(sys_, 2)
        fast, k = sys_.project(x0)
        x0 = [*fast, k]
    return integrate(sys_, x0, (-0.25, 0.5), IntegratorConfig(method=method, dt=0.05, digits=digits, stride=2))


def _trajectories() -> dict:
    runs = {
        "made-full": _made(False),
        "made-k-in-state": _made(True),
        # the last state is [-inf, inf, -inf, -inf, nan]
        "diverged-inf-nan": _cubic(),
        # every value of the last state near 1e288
        "diverged-huge": _cubic(scale=3000.0),
        "float-rk4": _ex1(16, "rk4"),
        "float-dp45": _ex1(16, "dp45"),
        "float-standard-form": _ex1(16, "rk4", standard=True),
        "extended-rk4": _ex1(32, "rk4"),
        "extended-standard-form": _ex1(32, "dp45", standard=True),
    }
    with pytest.raises(DivergenceError) as err:
        integrate(PerturbedSystem(Graph.path(3), ResponseField(ResponseFunction.from_coeffs([0, 0, 0, -1])),
                                  Perturbation.zero(3)), [-30, 30, 0], (0.0, 1.0),
                  IntegratorConfig(method="rk4", dt=0.1, digits=32))
    runs["extended-diverged"] = err.value.trajectory
    return runs


TRAJECTORIES = _trajectories()


def test_the_cubic_runs_reach_the_values_they_stand_for():
    last = TRAJECTORIES["diverged-inf-nan"].states[-1]
    assert np.isposinf(last).any() and np.isneginf(last).any() and np.isnan(last).any()
    assert np.abs(TRAJECTORIES["diverged-huge"].states[-1]).min() > 1e280


# --- CSV ----------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(TRAJECTORIES))
def test_write_csv_equals_the_per_cell_format_loop(name):
    traj = TRAJECTORIES[name]
    got, want = io.StringIO(), io.StringIO()
    traj.write_csv(got)
    _ref_write_csv(traj, want)
    assert got.getvalue() == want.getvalue()


# --- SVG ----------------------------------------------------------------------------

@pytest.mark.parametrize("log_time", (False, True))
@pytest.mark.parametrize("name", sorted(TRAJECTORIES))
def test_simulate_svg_equals_the_per_point_code(name, log_time):
    # cmd_simulate's series: one float array of every state, transposed
    traj = TRAJECTORIES[name]
    n = len(traj.states[0])
    got = timeseries_svg(traj.times, np.array(traj.states, dtype=float).T, traj.labels, log_time=log_time,
                         title=name)
    assert got == _ref_timeseries_svg(traj.times, _ref_series(traj, n), traj.labels, log_time=log_time, title=name)


def test_svg_edge_cases_equal_the_per_point_code():
    labels = ["a", "b"]
    cases = [
        # no positive time in log-time mode: the plot falls back to [0, 1]
        ([-1.0, 0.0], [[1.0, 2.0], [3.0, np.nan]], True),
        # a NaN first or later changes min and max
        ([0.0, 1.0, 2.0], [[np.nan, 1.0, -1.0], [2.0, 3.0, 4.0]], False),
        ([0.0, 1.0, 2.0], [[1.0, np.nan, -1.0], [2.0, 3.0, np.nan]], False),
        # one value everywhere
        ([0.0, 1.0], [[0.5, 0.5], [0.5, 0.5]], False),
        # one time
        ([2.0], [[1.0], [-1.0]], True),
        # the padded range overflows
        ([0.0, 1.0], [[-1e308, 1e308], [1.0, 2.0]], False),
        # every value 1e20 and one time 1e16: +-0.5 and +1 round away, and the widening is relative
        ([0.0, 1.0], [[1e20, 1e20], [1e20, 1e20]], False),
        ([1e16], [[1e20], [-1e20]], False),
        ([-2.0 ** 60], [[2.0 ** 53], [2.0 ** 53]], False),
        # one value 2**52: +-0.5 leaves a range, so the widening stays fixed
        ([0.0, 1.0], [[2.0 ** 52, 2.0 ** 52], [2.0 ** 52, 2.0 ** 52]], False),
    ]
    for times, series, log_time in cases:
        got = timeseries_svg(times, np.array(series), labels, log_time=log_time)
        assert got == _ref_timeseries_svg(times, series, labels, log_time=log_time), (times, series)
    # the all-1e20 plot is drawn: its line at mid-height on an axis of 1e20 +- 5e19, padded by 5%
    svg = timeseries_svg([0.0, 1.0], [[1e20, 1e20]], ["a"])
    assert '<polyline points="56.00,260.00 784.00,260.00"' in svg and ">4.5e+19<" in svg and ">1.55e+20<" in svg


@pytest.mark.parametrize("times, series", [
    # values spanning float64's range, a value near its top and one at it, as the repro's last row
    ([0.0, 1.0], [[-1e308, 1e308], [1.0, 2.0]]),
    ([0.0, 1.0], [[1.7e308, 1.7e308], [1.0, 2.0]]),
    ([0.0], [[np.finfo(float).max], [-np.finfo(float).max]]),
    # the top tick's scaled sum rounds past MAX / 8
    ([0.0, 0.0], [[1.7976931348623155e308, 1e300], [1.0, 2.0]]),
    ([0.0, 0.01], [[3e5, np.inf], [-3e5, -np.inf]]),
    # times at the top of float64's range, one or spanning it
    ([1.7e308], [[1.0], [2.0]]),
    ([np.finfo(float).max], [[1.0], [2.0]]),
    ([-1e308, 1e308], [[1.0, 2.0], [3.0, 4.0]]),
    # no finite value at all: the empty plot's range
    ([0.0, 1.0], [[np.nan, np.inf], [-np.inf, np.nan]]),
    # a lone finite value after non-finite ones, and one between them
    ([0.0, 1.0, 2.0], [[np.nan, np.inf, 1.0]]),
    ([0.0, 1.0, 2.0], [[np.nan, np.inf, 1.0], [np.nan, 2.0, -np.inf]]),
], ids=["span-overflows", "value-1.7e308", "value-max", "tick-rounds-past-max", "diverged-row", "time-1.7e308", "time-max",
        "time-span-overflows", "no-finite-value", "lone-last-value", "lone-values"])
def test_every_finite_value_gets_a_finite_coordinate(times, series):
    labels = ["a", "b"]
    got = timeseries_svg(times, np.array(series), labels)
    assert got == _ref_timeseries_svg(times, series, labels)
    shapes = [line for line in got.splitlines() if line.startswith(("<polyline", "<circle"))]
    for idx, row in enumerate(series):
        # one polyline per maximal run of finite values, a dot for a run of one, every coordinate a finite number
        lines = [line for line in shapes if f'="{_PALETTE[idx]}"' in line]
        runs = [j for j, v in enumerate(row) if math.isfinite(v) and (j == 0 or not math.isfinite(row[j - 1]))]
        lone = [j for j in runs if j + 1 == len(row) or not math.isfinite(row[j + 1])]
        dots = [line.split('"')[1:4:2] for line in lines if line.startswith("<circle")]
        points = [p.split(",") for line in lines if line.startswith("<polyline") for p in line.split('"')[1].split()]
        assert len(lines) == len(runs) and len(dots) == len(lone)
        assert len(points) + len(dots) == sum(math.isfinite(v) for v in row)
        assert all(math.isfinite(float(x)) and math.isfinite(float(y)) for x, y in points + dots)
    rest = "".join(line for line in got.splitlines() if not line.startswith(("<polyline", "<circle")))
    assert "nan" not in rest and "inf" not in rest


_VALUE = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True),
                   st.floats(-10.0, 10.0))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rows=st.integers(1, 3), m=st.integers(1, 6), log_time=st.booleans())
def test_svg_of_drawn_values_equals_the_per_point_code(data, rows, m, log_time):
    times = data.draw(st.lists(st.floats(-2.0, 1e3), min_size=m, max_size=m))
    series = data.draw(st.lists(st.lists(_VALUE, min_size=m, max_size=m), min_size=rows, max_size=rows))
    labels = [f"x{i}" for i in range(rows)]
    got = timeseries_svg(times, np.array(series), labels, log_time=log_time)
    assert got == _ref_timeseries_svg(times, series, labels, log_time=log_time)
    # the ticks are numbers whatever the values
    rest = "".join(line for line in got.splitlines() if not line.startswith("<polyline"))
    assert "nan" not in rest and "inf" not in rest
