"""The float tier's in-place kernels against the expressions they replaced.

The reference functions below are the float-tier arithmetic the kernels
replaced, kept verbatim in spirit: a fresh array per numpy operation, the
same operations in the same order.  The kernels must give every bit of
them (NaN payloads aside), and must write into neither the state nor an
array that a right-hand side returned.
"""

import subprocess
import sys
from fractions import Fraction
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alf import Graph, Perturbation, PerturbedSystem, ResponseField, ResponseFunction
from alf import dynamics
from alf.dynamics import (
    DIVERGENCE_CUTOFF,
    _diverged,
    _dp45_float_dt,
    _dp45_float_stages,
    _field_values_float,
    _float_rk4_dt,
    _horner_plan,
    _rk4_step,
    to_standard_form,
)
from alf.errors import PreconditionError
from alf.precision import ScalarContext
from alf.prng import SplitMix64

from conftest import dense_laplacian

CTX = ScalarContext(16)
SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300, -1e-300, 1.0, -1.0)


# --- the replaced float expressions ----------------------------------------------

def _ref_laplacian_array(g):
    return np.array([[float(v) for v in row] for row in dense_laplacian(g)])


def _ref_values(fld, y):
    coeffs = [float(c) for c in reversed(fld.function.coeffs)]
    acc = np.full_like(y, coeffs[0])
    for c in coeffs[1:]:
        acc = acc * y + c
    if fld.mean_gauges:
        acc = acc + sum(g.eval(float(np.mean(y))) for g in fld.mean_gauges)
    return acc


def _ref_full_rhs(sys_):
    neg_l = -_ref_laplacian_array(sys_.graph)
    eps_h = float(sys_.epsilon) * np.array([float(v) for v in sys_.perturbation.values])
    return lambda y: neg_l @ _ref_values(sys_.field, y) + eps_h


def _ref_standard_rhs(sf):
    n, l = sf.n, sf.l
    keep = [j - 1 for j in sf.kept]
    flow = _ref_full_rhs(sf.base)
    slow = float(sf.base.epsilon) * float(np.sum(np.array([float(v) for v in sf.base.perturbation.values])))

    def rhs(y):
        full = np.empty(n)
        full[keep] = y[:-1]
        full[l - 1] = y[-1] - float(np.sum(y[:-1]))
        return np.append(flow(full)[keep], slow)

    return rhs


def _ref_rk4(rhs, y, dt):
    half = dt / 2
    k1 = rhs(y)
    k2 = rhs(y + k1 * half)
    k3 = rhs(y + k2 * half)
    k4 = rhs(y + k3 * dt)
    return y + (k1 + 2 * k2 + 2 * k3 + k4) * (dt / 6)


def _ref_dp45(rhs, y, fsal, dt):
    a, b5, b4 = dynamics._DP_A, dynamics._DP_B5, dynamics._DP_B4
    ks = [fsal]
    for stage in range(1, 7):
        acc = y + ks[0] * (dt * a[stage][0])
        for idx in range(1, stage):
            if a[stage][idx] != 0.0:
                acc = acc + ks[idx] * (dt * a[stage][idx])
        ks.append(rhs(acc))
    y5 = y + sum(b * k for b, k in zip(b5, ks) if b != 0.0) * dt
    y4 = y + sum(b * k for b, k in zip(b4, ks) if b != 0.0) * dt
    return ks, y5, y5 - y4


# --- helpers ------------------------------------------------------------------

def assert_same_bits(got, want):
    """Equal bits, with NaN in the same places (whatever their payloads)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    assert (got.view(np.int64)[~nan] == want.view(np.int64)[~nan]).all()


def _field(coeffs, gauges=()):
    return ResponseField(ResponseFunction.from_coeffs(coeffs), tuple(ResponseFunction.from_coeffs(g) for g in gauges))


def _system(graph, field, seed, eps=Fraction(1, 10)):
    return PerturbedSystem(graph, field, Perturbation.random_constant(graph.n, seed, -0.5, 0.5), eps)


def _weighted(n, seed):
    rng = SplitMix64(seed)
    edges = [(i, j, Fraction(rng.next_u64() % 400 + 1, 7 * (rng.next_u64() % 13 + 1)))
             for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.uniform() < 0.6]
    return Graph(n, tuple(edges))


GRAPHS = {
    "weighted-10": _weighted(10, 3),
    "isolated-node": Graph(5, ((1, 2, Fraction(1, 3)), (2, 4, Fraction(5, 7)), (1, 4, 2.5))),
    "k10": Graph.complete(10),
    "c100": Graph.cycle(100),
}
FIELDS = {
    "ex1": _field([1, 0, -2, 0, 1]),
    "cubic": _field([Fraction(1, 3), -1, 0, Fraction(-7, 5)]),
    "linear": _field([0, 1]),
    "constant": _field([Fraction(2, 3)]),
    "gauged": _field([1, 0, -2, 0, 1], gauges=[[Fraction(1, 3), 2]]),
}


def _states(n, seed):
    rng = SplitMix64(seed)
    yield np.array([rng.uniform(-2.0, 2.0) for _ in range(n)])
    yield np.array([SPECIAL[i % len(SPECIAL)] for i in range(n)])
    yield np.array([SPECIAL[(i * 7 + 3) % len(SPECIAL)] * rng.uniform(0.5, 2.0) for i in range(n)])


# --- Laplacian ----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_laplacian_array_equals_dense_conversion(name):
    g = GRAPHS[name]
    assert_same_bits(g.laplacian_array(), _ref_laplacian_array(g))


# --- Horner plan ----------------------------------------------------------------

_COEFF = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 3), Fraction(10**20 + 1, 10**20), Fraction(-5, 7)]),
    st.fractions(min_value=-100, max_value=100, max_denominator=1000),
)
_VALUE = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=300, deadline=None)
@given(coeffs=st.lists(_COEFF, min_size=1, max_size=8), y=st.lists(_VALUE, min_size=1, max_size=8))
def test_horner_plan_equals_horner_loop(coeffs, y):
    fld = _field(coeffs)
    y = np.array(y, dtype=float)
    with np.errstate(all="ignore"):
        assert_same_bits(_field_values_float(fld, _horner_plan(fld), y), _ref_values(fld, y))


def test_horner_plan_drops_no_op_operations():
    # x^4 - 2x^2 + 1: y*y, -2, *y, *y, +1, with no product by the leading 1 and no + 0.0
    top, (op, c), later = _horner_plan(FIELDS["ex1"])
    assert (top, op, c) == (1.0, np.multiply, None)
    assert later == ((np.add, -2.0), (np.multiply, None), (np.multiply, None), (np.add, 1.0))
    # a trailing zero coefficient keeps its + 0.0: it turns -0.0 into +0.0
    top, _, later = _horner_plan(FIELDS["linear"])
    assert top == 1.0 and later == ()
    assert _field_values_float(FIELDS["linear"], _horner_plan(FIELDS["linear"]), np.array([-0.0])).view(np.int64)[0] == 0
    assert _horner_plan(FIELDS["constant"]) == (2 / 3, None, ())


# --- right-hand sides -------------------------------------------------------------

@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("field", sorted(FIELDS))
def test_full_rhs_equals_reference(graph, field):
    sys_ = _system(GRAPHS[graph], FIELDS[field], seed=len(graph) + len(field))
    rhs, ref = sys_.rhs_function(CTX), _ref_full_rhs(sys_)
    with np.errstate(all="ignore"):
        for y in _states(sys_.n, 5):
            assert_same_bits(rhs(y), ref(y))


@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("field", ["ex1", "gauged"])
def test_standard_form_rhs_equals_reference_for_every_l(graph, field):
    sys_ = _system(GRAPHS[graph], FIELDS[field], seed=11)
    with np.errstate(all="ignore"):
        for l in range(1, sys_.n + 1):
            sf = to_standard_form(sys_, l)
            rhs, ref = sf.rhs_function(CTX), _ref_standard_rhs(sf)
            for y in _states(sys_.n, l):
                y_before = y.copy()
                assert_same_bits(rhs(y), ref(y))
                assert_same_bits(y, y_before)


# --- steps ----------------------------------------------------------------------

class Recorder:
    """Wraps an rhs; keeps every array it was given or returned, with a copy of its contents then."""

    def __init__(self, rhs):
        self.rhs = rhs
        self.seen = []

    def __call__(self, y):
        self.seen.append((y, y.copy()))
        k = self.rhs(y)
        self.seen.append((k, k.copy()))
        return k

    def assert_untouched(self):
        for array, contents in self.seen:
            assert_same_bits(array, contents)


def _step_cases():
    for graph in ("weighted-10", "c100"):
        sys_ = _system(GRAPHS[graph], FIELDS["ex1"], seed=2)
        yield f"full-{graph}", sys_.rhs_function(CTX), _ref_full_rhs(sys_), sys_.n
        sf = to_standard_form(sys_, 4)
        yield f"standard-{graph}", sf.rhs_function(CTX), _ref_standard_rhs(sf), sf.n
    const = np.array([0.3, -1.25, 7.0, -0.0])
    # the same array object on every call
    yield "same-object", (lambda y: const), (lambda y: const), 4
    # the input array itself
    yield "identity", (lambda y: y), (lambda y: y), 4


STEP_CASES = {name: case for name, *case in _step_cases()}


@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_rk4_step_equals_reference_and_writes_nothing_it_reads(case):
    rhs, ref, n = STEP_CASES[case]
    for y in _states(n, 3):
        y = np.where(np.isnan(y), 0.5, np.clip(y, -3.0, 3.0))  # finite: a NaN stage would hide the others' bits
        y_before = y.copy()
        recorder = Recorder(rhs)
        got = _rk4_step(recorder, y, _float_rk4_dt(1e-3 * 1.1))
        assert_same_bits(got, _ref_rk4(ref, y, 1e-3 * 1.1))
        assert_same_bits(y, y_before)
        recorder.assert_untouched()
        assert all(got is not array for array, _ in recorder.seen)


@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_dp45_stages_equal_reference_and_write_nothing_they_read(case):
    rhs, ref, n = STEP_CASES[case]
    for y in _states(n, 4):
        y = np.where(np.isnan(y), -0.5, np.clip(y, -3.0, 3.0))
        y_before = y.copy()
        fsal = rhs(y)
        recorder = Recorder(rhs)
        ks, y5, delta = _dp45_float_stages(recorder, y, fsal, 2.3e-4, _dp45_float_dt())
        ref_ks, ref_y5, ref_delta = _ref_dp45(ref, y, ref(y), 2.3e-4)
        for k, ref_k in zip(ks, ref_ks, strict=True):
            assert_same_bits(k, ref_k)
        assert_same_bits(y5, ref_y5)
        assert_same_bits(delta, ref_delta)
        assert_same_bits(y, y_before)
        recorder.assert_untouched()


def test_dp45_stages_read_no_constant_of_an_earlier_attempt():
    # one buffer for the run, as `_run_dp45` holds it: a grown step, a shrunk one, a tiny clipped last step
    rhs, ref, n = STEP_CASES["full-weighted-10"]
    consts = _dp45_float_dt()
    rng = SplitMix64(6)
    y = np.array([rng.uniform(1.05, 1.5) for _ in range(n)])  # where f is increasing: the flow is diffusive
    fsal = rhs(y)
    for dt in (1e-3, 2.3e-4, 5e-3, 1e-3, 0.6 - np.nextafter(0.6, 0.0), 2.3e-4):
        ks, y5, delta = _dp45_float_stages(rhs, y, fsal, dt, consts)
        ref_ks, ref_y5, ref_delta = _ref_dp45(ref, y, fsal, dt)
        for k, ref_k in zip(ks, ref_ks, strict=True):
            assert_same_bits(k, ref_k)
        assert_same_bits(y5, ref_y5)
        assert_same_bits(delta, ref_delta)
        y, fsal = y5, ks[6]


def test_dp45_first_term_turns_negative_zero_positive():
    # sum() starts from the int 0, and 0 + (-0.0) is +0.0.  Stage 4 has the negative weights, so a +0.0
    # there makes every term b * k a -0.0, and only that first + 0.0 tells the two sums apart.
    calls = []

    def rhs(y):
        calls.append(None)
        return np.full(2, 0.0 if len(calls) == 4 else -0.0)

    y = np.array([-0.0, -0.0])
    _, y5, delta = _dp45_float_stages(rhs, y, np.full(2, -0.0), 1e-3, _dp45_float_dt())
    calls.clear()
    _, ref_y5, ref_delta = _ref_dp45(rhs, y, np.full(2, -0.0), 1e-3)
    assert_same_bits(y5, ref_y5)
    assert_same_bits(delta, ref_delta)
    assert y5.view(np.int64).tolist() == [0, 0]


# --- whole runs -------------------------------------------------------------------

def _ref_rk4_run(rhs, y, tspan, cfg):
    """`integrate`'s rk4 run on the reference step: (times, states) of every recorded step."""
    t0, t1 = tspan
    nsteps = max(1, round((t1 - t0) / cfg.dt))
    dt = float(Fraction(t1) - Fraction(t0)) / nsteps
    times, states = [t0], [y]
    for step in range(1, nsteps + 1):
        y = _ref_rk4(rhs, y, dt)
        if step % cfg.stride == 0 or step == nsteps:
            times.append(t0 + step * dt)
            states.append(y)
    return times, states


def _ref_dp45_run(rhs, y, tspan, cfg):
    """`integrate`'s dp45 run on the reference stages, its step control written out."""
    t, t1 = tspan
    dt = min(cfg.dt, t1 - t)
    times, states = [t], [y]
    accepted = 0
    fsal = rhs(y)
    while t < t1:
        clipped = t + dt > t1
        if clipped:
            dt = t1 - t
        ks, y5, delta = _ref_dp45(rhs, y, fsal, dt)
        scaled = [abs(d) / (cfg.tol + cfg.tol * max(abs(a), abs(b))) for d, a, b in zip(delta, y, y5)]
        err = float(max(scaled, default=0.0))
        if err <= 1.0:
            t = t1 if clipped else t + dt
            y, fsal = y5, ks[6]
            accepted += 1
            if accepted % cfg.stride == 0 or t >= t1:
                times.append(t)
                states.append(y)
        factor = min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0))
        dt = dt * factor
        assert dt >= 1e-14  # the run must not stall
    return times, states


def _run_cases():
    weighted = _system(GRAPHS["weighted-10"], FIELDS["ex1"], seed=6)
    c100 = _system(GRAPHS["c100"], FIELDS["ex1"], seed=7)
    sf = to_standard_form(weighted, 4)
    # 273 steps of 0.3 / 273 each, not of the configured dt
    yield "rk4-weighted-10", weighted, dynamics.IntegratorConfig("rk4", 1.1e-3, stride=3)
    yield "rk4-c100", c100, dynamics.IntegratorConfig("rk4", 1.1e-3, stride=3)
    yield "rk4-standard-form", sf, dynamics.IntegratorConfig("rk4", 1.1e-3, stride=3)
    # the last of the 273 steps is recorded off-stride
    yield "rk4-off-stride", weighted, dynamics.IntegratorConfig("rk4", 1.1e-3, stride=10)
    yield "dp45-weighted-10", weighted, dynamics.IntegratorConfig("dp45", 1e-3, 1e-9, stride=3)
    yield "dp45-standard-form", sf, dynamics.IntegratorConfig("dp45", 1e-3, 1e-9, stride=2)


RUN_CASES = {name: case for name, *case in _run_cases()}


@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_integrate_equals_reference_run(case):
    system, cfg = RUN_CASES[case]
    rng = SplitMix64(len(case))
    x = [rng.uniform(1.05, 1.5) for _ in range(system.n)]  # where f is increasing: the flow is diffusive
    if system.k_in_state:
        fast, k = system.project(x)
        x = [*fast, k]
    tspan = (0.0, 0.3)
    traj = dynamics.integrate(system, x, tspan, cfg)
    ref = _ref_standard_rhs(system) if system.k_in_state else _ref_full_rhs(system)
    run = _ref_rk4_run if cfg.method == "rk4" else _ref_dp45_run
    times, states = run(ref, np.array(x), tspan, cfg)
    assert traj.metadata["stop_reason"] == "end" and len(times) > 20
    assert traj.times == times
    assert len(traj.states) == len(states)
    for got, want in zip(traj.states, states):
        assert_same_bits(got, want)
    ks = [want[-1] for want in states] if system.k_in_state else [reduce(add, want) for want in states]
    assert_same_bits(traj.k_series, ks)


_ABOVE = np.nextafter(DIVERGENCE_CUTOFF, np.inf)
_BELOW = np.nextafter(DIVERGENCE_CUTOFF, 0.0)


def test_diverged_equals_elementwise_test():
    cases = [np.array(v) for v in (
        [0.0, 1.0], [DIVERGENCE_CUTOFF, -DIVERGENCE_CUTOFF], [np.nextafter(DIVERGENCE_CUTOFF, np.inf), 0.0],
        [np.nan, 0.0], [0.0, -np.inf], [np.inf, np.nan], [-0.0], [1e300, 1.0],
        # squares that overflow to inf
        [1e200, 0.0], [-1e200, 1e200], [1e200, np.nan],
        # y . y = 4e12 is above cutoff**2, every component at or below the cutoff: the elementwise test decides
        [2e5] * 100, [-2e5] * 99 + [DIVERGENCE_CUTOFF],
        # at the cutoff, one ulp above and one below
        [DIVERGENCE_CUTOFF], [-DIVERGENCE_CUTOFF], [_ABOVE], [-_ABOVE], [_BELOW, -_BELOW], [0.0, -_ABOVE],
        [5e-324, -2.5e-310], [np.inf, -np.inf],
    )]
    for y in cases:
        assert _diverged(y) == (not (np.abs(y) <= DIVERGENCE_CUTOFF).all()), y
    assert not _diverged(np.full(100, 2e5)) and _diverged(np.array([_ABOVE])) and not _diverged(np.array([-1e6]))
    # the extended tiers' vector holds no NaN: it is refused where it would enter
    with pytest.raises(PreconditionError):
        ScalarContext(32).vector([1, float("nan")])


_DIVERGENCE_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 2e5, -2e5, 7.5e5, DIVERGENCE_CUTOFF, -DIVERGENCE_CUTOFF,
                     _ABOVE, -_ABOVE, _BELOW, 1.5e154, 1e200, -1e300, np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-2e6, 2e6),
)


@settings(max_examples=500, deadline=None)
@given(y=st.lists(_DIVERGENCE_VALUE, min_size=1, max_size=120))
def test_diverged_equals_elementwise_test_on_drawn_states(y):
    y = np.array(y)
    assert _diverged(y) == (not (np.abs(y) <= DIVERGENCE_CUTOFF).all())


# --- determinism across processes -------------------------------------------------

_SCENARIOS = """
import sys
from fractions import Fraction
from pathlib import Path
from alf import Graph, Perturbation, PerturbedSystem, ResponseField, ResponseFunction
from alf.dynamics import IntegratorConfig, integrate, to_standard_form

out = Path(sys.argv[1])
field = ResponseField(ResponseFunction.from_roots([(1, 2), (-1, 2)]))
sys_ = PerturbedSystem(Graph.cycle(12), field, Perturbation.random_constant(12, 9, -0.5, 0.5), Fraction(1, 10))
x0 = [-1 + i / 12 for i in range(12)]
runs = {
    "rk4": (sys_, x0, IntegratorConfig("rk4", 1e-3, stride=25)),
    "dp45": (sys_, x0, IntegratorConfig("dp45", 1e-3, 1e-9, stride=3)),
}
sf = to_standard_form(sys_, 5)
fast, k = sf.project(x0)
runs["standard-form"] = (sf, list(fast) + [k], IntegratorConfig("rk4", 1e-3, stride=25))
for name, (system, start, cfg) in runs.items():
    with open(out / f"{name}.csv", "w", encoding="utf-8") as fh:
        integrate(system, start, (0.0, 1.5), cfg).write_csv(fh)
"""


def test_float_runs_identical_across_processes(tmp_path):
    # not pinned as goldens: the float matvec goes through BLAS, which may sum in another order elsewhere
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        out.mkdir()
        subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n" + _SCENARIOS, str(out)],
                       check=True, timeout=300)
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(outs[0]) == ["dp45.csv", "rk4.csv", "standard-form.csv"]
    assert outs[0] == outs[1]
    assert all(len(data.splitlines()) > 10 for data in outs[0].values())
