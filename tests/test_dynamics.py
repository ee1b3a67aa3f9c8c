import io
import warnings
from fractions import Fraction
from functools import reduce
from operator import add

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alf import (
    DivergenceError,
    Graph,
    IntegratorConfig,
    Permutation,
    Perturbation,
    PerturbedSystem,
    PreconditionError,
    ResponseField,
    ResponseFunction,
    gauge_shift,
    integrate,
    is_regular_perturbation,
    plane_reduce,
    to_standard_form,
    vector_field,
)
from alf import dynamics
from alf.dynamics import DIVERGENCE_CUTOFF, _diverged_fixed
from alf.errors import DimensionMismatchError, PreconditionError
from alf.precision import ScalarContext, exact, frame_array
from alf.prng import SplitMix64

from conftest import dense_laplacian, rational_state


def _system(n, response, pert=None, eps=0):
    field = ResponseField(response)
    pert = pert if pert is not None else Perturbation.zero(n)
    return PerturbedSystem(Graph.complete(n), field, pert, eps)


# --- vector field -----------------------------------------------------------

def test_consensus_is_equilibrium(ex1_response):
    sys_ = _system(4, ex1_response)
    assert vector_field(sys_, [Fraction(7, 5)] * 4) == [0, 0, 0, 0]


def test_vector_field_hand_value():
    # -L F for K3, f = x^2, x = (1, -1, 0): L F = (1, 1, -2) by hand
    sys_ = _system(3, ResponseFunction.from_coeffs([0, 0, 1]))
    out = vector_field(sys_, [1.0, -1.0, 0.0])
    assert list(out) == [-1.0, -1.0, 2.0]


def test_vector_field_sums_to_zero_unperturbed(ex1_response):
    rng = SplitMix64(11)
    sys_ = _system(5, ex1_response)
    for _ in range(30):
        x = rational_state(rng, 5)
        assert sum(vector_field(sys_, x)) == 0


def test_vector_field_dimension_mismatch(ex1_response):
    with pytest.raises(DimensionMismatchError):
        vector_field(_system(3, ex1_response), [1.0, 2.0])


def test_random_constant_perturbation_reproducible():
    a = Perturbation.random_constant(5, seed=123, lo=0, hi=1)
    b = Perturbation.random_constant(5, seed=123, lo=0, hi=1)
    assert a.values == b.values
    assert all(0 <= v <= 1 for v in a.values)
    c = Perturbation.random_constant(5, seed=124, lo=0, hi=1)
    assert a.values != c.values


# --- standard form ----------------------------------------------------------

def test_standard_form_lift_and_project(ex1_response):
    sys_ = _system(3, ex1_response, Perturbation.constant(-1, 3), Fraction(1, 10))
    std = to_standard_form(sys_, 3)
    x = [Fraction(1, 3), Fraction(-2, 7), Fraction(4, 5)]
    fast, k = std.project(x)
    assert std.lift(fast, k) == x
    assert k == sum(x)
    # x3 = k - x1 - x2
    assert std.lift([Fraction(1), Fraction(2)], Fraction(10)) == [1, 2, 7]


def test_standard_form_k_constant_unperturbed(ex1_response):
    std = to_standard_form(_system(3, ex1_response), 2)
    ctx_rhs = std.rhs_function(__import__("alf.precision", fromlist=["ScalarContext"]).ScalarContext(16))
    rng = SplitMix64(3)
    for _ in range(20):
        y = np.array([rng.uniform(-2, 2) for _ in range(3)])
        assert abs(ctx_rhs(y)[-1]) <= 1e-14


def test_standard_form_constant_negative_perturbation(ex1_response):
    eps = Fraction(1, 10)
    sys_ = _system(3, ex1_response, Perturbation.constant(-1, 3), eps)
    std = to_standard_form(sys_, 3)
    from alf.precision import ScalarContext

    rhs = std.rhs_function(ScalarContext(16))
    for y in ([0.1, 0.2, 0.9], [-1.0, 0.5, 2.0]):
        assert rhs(np.array(y))[-1] == pytest.approx(-3 * float(eps), abs=1e-15)


def test_standard_form_field_matches_lifted_full_field(ex1_response):
    rng = SplitMix64(21)
    sys_ = _system(4, ex1_response, Perturbation.random_constant(4, 5, -1, 1), Fraction(1, 20))
    from alf.precision import ScalarContext

    for l in (1, 4):
        std = to_standard_form(sys_, l)
        rhs = std.rhs_function(ScalarContext(16))
        for _ in range(10):
            full = [rng.uniform(-1.5, 1.5) for _ in range(4)]
            fast, k = std.project(full)
            out = rhs(np.array(fast + [k]))
            ref = vector_field(sys_, np.array(full))
            kept = [j - 1 for j in std.kept]
            assert max(abs(out[i] - ref[kept[i]]) for i in range(3)) <= 1e-12


def _weighted_k5():
    rng = SplitMix64(77)
    return Graph(5, tuple((i, j, Fraction(rng.next_u64() % 400 + 1, 100))
                          for i in range(1, 6) for j in range(i + 1, 6)))


_SPARSE_GRAPHS = {
    "cycle": lambda: Graph.cycle(6),
    "path": lambda: Graph.path(5),
    "weighted-k5": _weighted_k5,
}


@pytest.mark.parametrize("gauged", (False, True), ids=("plain", "gauged"))
@pytest.mark.parametrize("graph", sorted(_SPARSE_GRAPHS))
def test_exact_vector_field_equals_dense_laplacian_loop(graph, gauged, ex1_response):
    g = _SPARSE_GRAPHS[graph]()
    n = g.n
    rng = SplitMix64(17)
    gauge = ResponseFunction.from_coeffs([Fraction(1, 3), 2, -1])
    field = gauge_shift(ResponseField(ex1_response), gauge) if gauged else ResponseField(ex1_response)
    pert = Perturbation.constant(rational_state(rng, n))
    sys_ = PerturbedSystem(g, field, pert, Fraction(1, 10))
    lap = dense_laplacian(g)

    def dense(x):
        # -L F(x) + eps h over every entry of L, zeros included, in Fractions
        shift = gauge.eval(sum(x, Fraction(0)) / n) if gauged else 0
        fvals = [ex1_response.eval(v) + shift for v in x]
        return [-sum((lap[i][j] * fvals[j] for j in range(n)), Fraction(0)) + Fraction(1, 10) * pert.values[i]
                for i in range(n)]

    for _ in range(10):
        x = rational_state(rng, n)
        assert vector_field(sys_, x) == dense(x)
        ints = [int(rng.next_u64() % 7) - 3 for _ in range(n)]
        out = vector_field(sys_, ints)
        assert all(type(v) is Fraction for v in out)
        assert out == dense([Fraction(v) for v in ints])


def test_vector_field_keeps_mpf_states_in_mpf():
    import mpmath

    # node 3 has no edge, so its row of L is empty
    sys_ = PerturbedSystem(Graph(3, ((1, 2, 1),)), ResponseField(ResponseFunction.from_coeffs([0, 0, 1])),
                           Perturbation.constant([1, 1, 1]), Fraction(1, 2))
    out = vector_field(sys_, [mpmath.mpf(1), mpmath.mpf(2), mpmath.mpf(3)])
    assert all(type(v) is mpmath.mpf for v in out)
    assert out == [3.5, -2.5, 0.5]


def test_int_states_are_exact_on_a_weighted_cycle():
    # a repeated root next to a weight of 1.5: the float tier rounds, so the
    # rotation of the cycle failed an exact equivariance test on int states
    g = Graph(6, tuple((i, i % 6 + 1, Fraction(3, 2)) for i in range(1, 7)))
    f = ResponseFunction.from_roots([(Fraction(1, 3), 2), (-2, 1)])
    sys_ = PerturbedSystem(g, ResponseField(f), Perturbation.zero(6), 0)
    rotation = Permutation.cyclic_shift(6)
    rng = SplitMix64(5)
    for _ in range(200):
        x = [int(rng.next_u64() % 41) - 20 for _ in range(6)]
        assert rotation.apply(vector_field(sys_, x)) == vector_field(sys_, rotation.apply(x))
        assert vector_field(sys_, x) == vector_field(sys_, [Fraction(v) for v in x])


@pytest.mark.parametrize("digits", (32, 64))
@pytest.mark.parametrize("graph", sorted(_SPARSE_GRAPHS))
def test_extended_rhs_equals_dense_reference_loop(graph, digits, ex1_response):
    import mpmath

    from fraction_reference import Tier, value

    g = _SPARSE_GRAPHS[graph]()
    n = g.n
    rng = SplitMix64(digits)
    pert = Perturbation.constant(rational_state(rng, n))
    sys_ = PerturbedSystem(g, ResponseField(ex1_response), pert, Fraction(1, 10))
    tier = Tier(digits)
    ctx = tier.ctx
    # the O(n^2) loop over every entry of L, zeros included, in exact arithmetic, rounded once
    dense = tier.full_rhs(sys_)
    std = to_standard_form(sys_, 2)
    std_dense = tier.standard_rhs(std)

    def rounded(values):
        return [mpmath.mp.make_mpf(tier.raw(q)) for q in values]

    with ctx.workprec():
        rhs = sys_.rhs_function(ctx)
        std_rhs = std.rhs_function(ctx)
        for _ in range(10):
            # irrational scaling fills every mantissa bit, so each rounding shows
            x = [ctx.scalar(v) * mpmath.sqrt(2) for v in rational_state(rng, n)]
            assert list(frame_array(rhs(ctx.vector(x)))) == rounded(dense([value(v) for v in x]))
            fast, k = std.project(x)
            y = fast + [k]
            assert list(frame_array(std_rhs(ctx.vector(y)))) == rounded(std_dense([value(v) for v in y]))


def test_float_tier_refuses_forcing_terms_outside_float_range(ex1_response):
    # every forcing value is finite, but eps * h_i (1e310), the standard form's drift eps * sum(h) (3e308),
    # or the plane's eps * g (1e310) and eps ((n - 1) g + g~) (3e308) is not: refused, without a numpy warning
    products = _system(3, ex1_response, Perturbation.constant([1e300, 1e300, -1e300]), 1e10)
    sums = _system(3, ex1_response, Perturbation.constant([1e308, 1e308, 1e308]), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for system in (products, to_standard_form(products, 2), to_standard_form(sums, 2),
                       plane_reduce(products, 3), plane_reduce(sums, 3)):
            with pytest.raises(PreconditionError, match="epsilon times the forcing"):
                system.rhs_function(ScalarContext(16))
        # its full flow's eps * h_i == 1e308 is finite
        sums.rhs_function(ScalarContext(16))


def test_is_regular_perturbation(ex1_response):
    balanced = Perturbation.constant([1, -1, 0, 0], 4)
    sys_ = _system(4, ex1_response, balanced, Fraction(1, 10))
    assert is_regular_perturbation(sys_)
    uniform = _system(4, ex1_response, Perturbation.constant(-1, 4), Fraction(1, 10))
    assert not is_regular_perturbation(uniform)
    zero = _system(4, ex1_response, Perturbation.zero(4), Fraction(1, 10))
    assert is_regular_perturbation(zero)


def test_tiny_forcing_sum_is_not_regular(ex1_response):
    # a sum of 1e-13 is below any float tolerance, but k still drifts
    sys_ = _system(3, ex1_response, Perturbation.constant([1e-13, 0, 0]), Fraction(1, 10))
    assert not is_regular_perturbation(sys_)
    traj = integrate(to_standard_form(sys_, 3), [0, 0, 0], (0.0, 1.0),
                     IntegratorConfig(dt=0.1, digits=32))
    assert traj.k_series[-1] != traj.k_series[0]


# --- integration ------------------------------------------------------------

def test_integrate_consensus_constant(ex1_response):
    sys_ = _system(5, ex1_response)
    traj = integrate(sys_, [0.8] * 5, (0.0, 2.0), IntegratorConfig(dt=1e-2, stride=10))
    for state in traj.states:
        assert max(abs(v - 0.8) for v in state) == 0.0


def test_integrate_conservation_short(ex1_response):
    rng = SplitMix64(1001)
    sys_ = _system(10, ex1_response)
    x0 = [rng.uniform(-1, 0) for _ in range(10)]
    traj = integrate(sys_, x0, (0.0, 5.0), IntegratorConfig(dt=1e-3, stride=100))
    k0 = traj.k_series[0]
    assert max(abs(k - k0) for k in traj.k_series) <= 1e-9 * abs(k0)


def test_linear_response_converges_to_mean_with_expm_oracle():
    sys_ = _system(3, ResponseFunction.linear())
    x0 = [0.9, -0.4, 0.2]
    traj = integrate(sys_, x0, (0.0, 20.0), IntegratorConfig(dt=1e-3, stride=1000))
    target = sum(x0) / 3
    assert max(abs(v - target) for v in traj.final_state) < 1e-8
    lap = sys_.graph.laplacian_array()
    w, vecs = np.linalg.eigh(lap)
    oracle = vecs @ np.diag(np.exp(-w * 20.0)) @ vecs.T @ np.array(x0)
    assert np.max(np.abs(np.asarray(traj.final_state, dtype=float) - oracle)) < 1e-9


def test_dp45_matches_rk4_reference():
    sys_ = _system(3, ResponseFunction.from_coeffs([0, 1, 0, Fraction(1, 4)]))
    x0 = [0.7, -0.3, 0.1]
    ref = integrate(sys_, x0, (0.0, 4.0), IntegratorConfig(method="rk4", dt=5e-4, stride=8000))
    adaptive = integrate(sys_, x0, (0.0, 4.0), IntegratorConfig(method="dp45", dt=0.05, tol=1e-10, stride=1))
    assert abs(float(adaptive.times[-1]) - 4.0) < 1e-12
    diff = max(abs(a - b) for a, b in zip(adaptive.final_state, ref.final_state))
    assert diff < 1e-8


def test_divergence_error_carries_partial_trajectory(ex1_response):
    sys_ = _system(3, ex1_response)
    with pytest.raises(DivergenceError) as err:
        integrate(sys_, [5.0, 5.0, -10.0], (0.0, 5.0), IntegratorConfig(dt=1e-3))
    traj = err.value.trajectory
    assert len(traj.times) >= 2
    assert err.value.last_time > 0


@pytest.mark.parametrize("digits", (16, 32, 64))
@pytest.mark.parametrize("bad", (float("nan"), float("inf"), float("-inf")))
@pytest.mark.parametrize("method", ("rk4", "dp45"))
def test_non_finite_initial_state_diverges_at_t0(digits, bad, method, ex1_response):
    # the extended tiers' fixed-point kernels would read NaN and inf as 0
    cfg = IntegratorConfig(method=method, dt=1e-3, digits=digits)
    with pytest.raises(DivergenceError) as err:
        integrate(_system(3, ex1_response), [bad, 0.5, 0.25], (0.0, 0.01), cfg)
    assert err.value.last_time == 0.0
    traj = err.value.trajectory
    assert [float(t) for t in traj.times] == [0.0]
    assert repr(float(traj.states[0][0])) == repr(bad)


@pytest.mark.parametrize("digits", (32, 64))
def test_extended_divergence_test_reads_each_component_as_a_float(digits):
    # around the cutoff a component's float value decides, as float(v) rounds it;
    # around 2**19 and 2**20 the exponent shortcut must agree with it
    cutoff = Fraction(DIVERGENCE_CUTOFF)
    ulp = Fraction(np.nextafter(DIVERGENCE_CUTOFF, np.inf)) - cutoff
    values = [cutoff, cutoff + ulp / 2, cutoff + ulp / 4, cutoff + 3 * ulp / 4, cutoff + ulp,
              cutoff - ulp / 4, Fraction(2**19) - Fraction(1, 2**60), Fraction(2**19), Fraction(2**20),
              Fraction(2**20) - Fraction(1, 2**60), 0, Fraction(1, 3), 10**300]
    ctx = ScalarContext(digits)
    with ctx.workprec():
        # a frame holds finite values only; integrate tests a non-finite initial state itself
        for v in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(PreconditionError):
                ctx.vector([v, Fraction(1, 2)])
        for v in values:
            for sign in (1, -1):
                for state in ([sign * v, Fraction(1, 2)], [Fraction(1, 2), sign * v]):
                    y = ctx.vector(state)
                    expected = any(not abs(float(c)) <= DIVERGENCE_CUTOFF for c in frame_array(y))
                    assert _diverged_fixed(y) == expected, (v, sign, state)
        # a tie rounds to the even 1e6, three quarters of an ulp to the next double
        assert not _diverged_fixed(ctx.vector([cutoff + ulp / 2]))
        assert _diverged_fixed(ctx.vector([-(cutoff + 3 * ulp / 4)]))


@pytest.mark.parametrize("digits", (32, 64))
def test_extended_divergence_verdict_at_the_cutoff(digits):
    # 1e6 + 2**-34 is half an ulp of 1e6 in float64, a tie that float() rounds to the even 1e6;
    # 1e6 + 2**-33 reads as the next double; 2**1100 beside 2**-1100 spans a frame of over 2200 bits
    cutoff = Fraction(10**6)
    cases = [([cutoff, 0], False), ([cutoff + Fraction(1, 2**34), 1], False),
             ([cutoff + Fraction(1, 2**33), 1], True), ([Fraction(2**1100), Fraction(1, 2**1100)], True),
             ([Fraction(1, 2**1100), -Fraction(2**1100)], True)]
    ctx = ScalarContext(digits)
    with ctx.workprec():
        for state, diverged in cases:
            y = ctx.vector(state)
            assert _diverged_fixed(y) == any(not abs(float(v)) <= DIVERGENCE_CUTOFF for v in frame_array(y))
            assert _diverged_fixed(y) == diverged, state


def test_gauge_invariance_along_trajectories(ex1_response):
    from alf import gauge_shift

    rng = SplitMix64(55)
    base = _system(4, ex1_response, Perturbation.constant(1, 4), Fraction(1, 20))
    shifted = PerturbedSystem(
        base.graph, gauge_shift(base.field, ResponseFunction.from_coeffs([2, 1])),
        base.perturbation, base.epsilon,
    )
    for _ in range(30):
        x = [rng.uniform(-1.5, 1.5) for _ in range(4)]
        a = vector_field(base, x)
        b = vector_field(shifted, x)
        assert max(abs(u - v) for u, v in zip(a, b)) <= 1e-12


def test_consensus_trajectory_under_uniform_perturbation(ex1_response):
    # uniform forcing keeps the consensus line invariant; the run must not
    # leave it beyond roundoff even while crossing singular stretches is avoided
    sys_ = _system(3, ex1_response, Perturbation.constant(1, 3), Fraction(1, 50))
    traj = integrate(sys_, [1.5] * 3, (0.0, 20.0), IntegratorConfig(dt=1e-3, stride=100))
    for state in traj.states:
        mean = sum(state) / 3
        assert max(abs(v - mean) for v in state) <= 1e-12


def test_trajectory_k_series_matches_recomputation(ex1_response):
    rng = SplitMix64(31)
    sys_ = _system(5, ex1_response, Perturbation.random_constant(5, 9, 0, 1), Fraction(1, 10))
    x0 = [rng.uniform(-1, 0) for _ in range(5)]
    traj = integrate(sys_, x0, (0.0, 1.0), IntegratorConfig(dt=1e-3, stride=50))
    for state, k in zip(traj.states, traj.k_series):
        total = state[0]
        for v in state[1:]:
            total = total + v
        assert k == total


def test_trajectory_times_strictly_increasing_and_csv_shape(ex1_response):
    sys_ = _system(3, ex1_response, Perturbation.constant(-1, 3), Fraction(1, 10))
    traj = integrate(sys_, [0.1, 0.2, 0.3], (0.0, 0.5), IntegratorConfig(dt=1e-2, stride=7))
    ts = [float(t) for t in traj.times]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    buf = io.StringIO()
    traj.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,x1,x2,x3,k"
    assert len(lines) == len(traj.times) + 1


def test_extended_precision_tiers_agree():
    sys_ = _system(3, ResponseFunction.from_coeffs([0, 1]))
    x0 = [0.25, -0.5, 1.0]
    t16 = integrate(sys_, x0, (0.0, 1.0), IntegratorConfig(dt=1e-2, digits=16))
    t32 = integrate(sys_, x0, (0.0, 1.0), IntegratorConfig(dt=1e-2, digits=32))
    diff = max(abs(float(a) - float(b)) for a, b in zip(t16.final_state, t32.final_state))
    assert diff < 1e-12
    assert t32.metadata["digits"] == 32


class _RoughSystem:
    """Tiny ODE-protocol object whose right-hand side defeats error control."""

    ode_dimension = 1
    k_in_state = False

    def state_labels(self):
        return ["x1"]

    def slow_value(self, y):
        return y[0]

    def rhs_function(self, ctx):
        import math

        def rhs(y):
            return np.array([1e20 * math.sin(1e30 * float(y[0]) + 1.0)])

        return rhs


def test_adaptive_step_underflow_raises_stalled():
    from alf import IntegrationStalledError

    with pytest.raises(IntegrationStalledError) as err:
        integrate(_RoughSystem(), [0.5], (0.0, 1.0), IntegratorConfig(method="dp45", dt=0.1, tol=1e-10))
    assert err.value.trajectory is not None


def test_integrator_tolerance_must_be_positive():
    # the dp45 error norm divides by tol + tol * max(|y|, |y5|)
    for tol in (0.0, -1e-8, float("nan")):
        with pytest.raises(PreconditionError):
            IntegratorConfig(method="dp45", tol=tol)


@pytest.mark.parametrize("digits", (16, 32))
def test_dp45_reports_finite_time_blow_up_as_divergence(digits):
    # f = -x^3 makes -L F(x) anti-diffusive and the spread blows up in finite
    # time: the adaptive step underflows near t = 0.0084, before any
    # component reaches the cutoff, while the state still grows
    g = Graph.from_edge_list(5, [(1, 2, 1.5), (2, 3, 2.0), (3, 4, 0.5), (4, 5, 3.0), (1, 5, 1.0), (2, 4, 2.5)])
    sys_ = PerturbedSystem(g, ResponseField(ResponseFunction.from_coeffs([0, 0, 0, -1])),
                           Perturbation.constant([0.3, -0.2, 0.1, -0.4, 0.25]), 0.1)
    cfg = IntegratorConfig(method="dp45", dt=0.05, tol=1e-12, digits=digits)
    with pytest.raises(DivergenceError) as err:
        integrate(sys_, [-3, 3, 0, 2, -2], (0.0, 1.0), cfg)
    assert 0.008 < err.value.last_time < 0.0085
    last = err.value.trajectory.states[-1]
    assert 1e5 < max(abs(float(v)) for v in last) < 1e6
    # the last accepted state was recorded when it was accepted; the stop adds no second row of it
    times = err.value.trajectory.times
    assert times[-2] < times[-1]


@pytest.mark.parametrize("method,digits", [("rk4", 16), ("rk4", 32), ("dp45", 16), ("dp45", 32)])
def test_conservation_across_integrator_precision_combinations(method, digits, ex1_response):
    rng = SplitMix64(606)
    sys_ = _system(5, ex1_response)
    x0 = [rng.uniform(-1, 0) for _ in range(5)]
    cfg = IntegratorConfig(method=method, dt=2e-3 if method == "rk4" else 0.05,
                           tol=1e-10, digits=digits, stride=100)
    traj = integrate(sys_, x0, (0.5, 3.0), cfg)
    k0 = traj.k_series[0]
    drift = max(abs(float(k - k0)) for k in traj.k_series)
    assert drift <= 1e-9 * abs(float(k0))
    assert float(traj.times[0]) == 0.5
    assert abs(float(traj.times[-1]) - 3.0) < 1e-9


@pytest.mark.parametrize("digits", (32, 64))
def test_extended_rk4_times_are_start_plus_step_times_dt_in_mpf(digits):
    # each recorded time is t_start + step * dt as the mpf operators round it at the run's precision
    sys_ = _system(3, ResponseFunction.from_coeffs([0, 1]))
    traj = integrate(sys_, [0.1, 0.2, 0.3], (0.3, 1.7), IntegratorConfig(method="rk4", dt=0.01, digits=digits))
    ctx = ScalarContext(digits)
    with ctx.workprec():
        t_start = ctx.scalar(0.3)
        dt = ctx.scalar(exact(1.7) - exact(0.3)) / 140
        expected = [t_start + step * dt for step in range(141)]
    assert [t._mpf_ for t in traj.times] == [t._mpf_ for t in expected]


@pytest.mark.parametrize("digits", (32, 64))
def test_extended_dp45_times_and_steps_equal_an_mpf_operator_replay(digits, monkeypatch):
    # every attempt's step size and error norm is recorded, then the step-size control is replayed with the
    # mpf operators at the run's precision: each attempted step and each accepted time has the same bits
    attempts = []
    stages, norm = dynamics._dp45_fixed_stages, dynamics._error_norm

    def recorded_stages(rhs, y, fsal, dt):
        attempts.append([dt])
        return stages(rhs, y, fsal, dt)

    def recorded_norm(*args):
        attempts[-1].append(norm(*args))
        return attempts[-1][-1]

    monkeypatch.setattr(dynamics, "_dp45_fixed_stages", recorded_stages)
    monkeypatch.setattr(dynamics, "_error_norm", recorded_norm)
    sys_ = _system(3, ResponseFunction.from_roots([(1, 2), (-1, 2)]))
    cfg = IntegratorConfig(method="dp45", dt=0.4, tol=1e-9, digits=digits)
    traj = integrate(sys_, [0.1, 0.6, -0.3], (0.3, 1.7), cfg)
    ctx = ScalarContext(digits)
    with ctx.workprec():
        t, t_end = ctx.scalar(0.3), ctx.scalar(1.7)
        dt = ctx.scalar(0.4)
        steps, times = [], [t]
        for _, err in attempts:
            clipped = float(t) + float(dt) > float(t_end)
            if clipped:
                dt = t_end - t
            steps.append(dt)
            if err <= 1.0:
                t = t_end if clipped else t + dt
                times.append(t)
            factor = 0.9 * (err ** -0.2) if err > 0 else 5.0
            dt = dt * ctx.scalar(min(5.0, max(0.2, factor)))
    assert [dt._mpf_ for dt, _ in attempts] == [dt._mpf_ for dt in steps]
    assert [t._mpf_ for t in traj.times] == [t._mpf_ for t in times]
    assert traj.metadata["rejected_steps"] > 0 and traj.times[-1] == t_end and len(times) > 5


@pytest.mark.parametrize("n", (1, 10, 100))
def test_slow_value_folds_as_numpy_scalars_do(n):
    # k is the left fold of the state's numpy scalars, bit for bit: signed zeros, overflow to inf and NaN included
    rng = SplitMix64(50 + n)
    sys_ = _system(n, ResponseFunction.from_coeffs([0, 1]))
    for trial in range(300):
        y = np.array([rng.uniform(-1, 1) * 10.0 ** (rng.next_u64() % 601 - 300) for _ in range(n)])
        if trial % 5 == 0:
            y[: n // 2 + 1] = -0.0
        if trial % 7 == 0:
            y[::2] = 1.7e308  # partial sums overflow to inf
        if trial % 7 == 1:
            y[:2], y[2:] = 1.7e308, -np.inf  # and then meet -inf: NaN
        with np.errstate(all="ignore"):
            want = reduce(add, list(y))
        got = sys_.slow_value(y)
        assert np.isnan(want) == np.isnan(got)
        assert np.isnan(want) or np.float64(got).view(np.int64) == want.view(np.int64)
    # the extended tiers' recorded states are object arrays of mpf
    with ScalarContext(32).workprec():
        state = np.array([mpmath.mpf(v) / 3 for v in range(1, n + 1)], dtype=object)
        assert sys_.slow_value(state) == reduce(add, list(state))


def test_dp45_clipped_last_step_lands_on_the_end_time():
    # t_end - t = 2.61 - 0.5706 rounds so that t + (t_end - t) falls one ulp
    # short of 2.61; a further ~1e-16 step would trip the underflow check
    sys_ = _system(3, ResponseFunction.from_coeffs([0.0, 1.0]))
    cfg = IntegratorConfig(method="dp45", dt=0.0951)
    traj = integrate(sys_, [0.5, 0.5, 0.5], (0.0, 2.61), cfg)
    assert traj.times[-1] == 2.61
    assert traj.times[-2] < 2.61
    assert traj.times[-2] + (2.61 - traj.times[-2]) < 2.61


# --- the exact kernel -----------------------------------------------------------

def _reference_vector_field(sys_, x):
    """The exact loop the integer kernel replaced, for int and Fraction states.

    Response values in Fractions with every mean gauge added at the exact
    mean, then each row of -L F + eps H summed one Fraction operation at a
    time over the dense exact Laplacian.
    """
    x = [Fraction(v) if isinstance(v, int) else v for v in x]
    fvals = [sys_.field.function.eval(xi) for xi in x]
    if sys_.field.mean_gauges:
        mean = reduce(add, x) / len(x)
        shift = reduce(add, (gauge.eval(mean) for gauge in sys_.field.mean_gauges))
        fvals = [v + shift for v in fvals]
    out = []
    for row, h in zip(dense_laplacian(sys_.graph), sys_.perturbation.values):
        acc = Fraction(0)
        for w, v in zip(row, fvals):
            acc = acc - w * v
        out.append(acc + sys_.epsilon * h)
    return out


_KERNEL_GRAPHS = {
    "k5-seven-fifths": Graph.complete(5, Fraction(7, 5)),
    "c6": Graph.cycle(6),
    # node 5 has no edges
    "custom-isolated": Graph(5, ((1, 2, Fraction(1, 3)), (2, 3, Fraction(7, 5)), (1, 4, 2.5), (3, 4, 1))),
    "single-node": Graph(1),
}
_KERNEL_FIELDS = {
    "ex1-roots": ResponseField(ResponseFunction.from_roots([(1, 2), (-1, 2)])),
    "roots": ResponseField(ResponseFunction.from_roots([(Fraction(1, 3), 1), (Fraction(-7, 5), 2)], Fraction(2, 3))),
    "coeffs": ResponseField(ResponseFunction.from_coeffs([Fraction(1, 3), Fraction(-7, 5), 0, Fraction(5, 7)])),
    "constant": ResponseField(ResponseFunction.from_coeffs([Fraction(5, 3)])),
    "gauged": ResponseField(
        ResponseFunction.from_roots([(Fraction(2, 3), 2)], Fraction(-3, 7)),
        (ResponseFunction.from_coeffs([Fraction(1, 3), 2]), ResponseFunction.from_coeffs([0, 0, Fraction(-5, 11)])),
    ),
}
# large coprime denominators: their lcm has about 24 digits
_PRIMES = (999983, 1000003, 999979, 1000033)


def _kernel_states(n, seed):
    rng = SplitMix64(seed)
    yield [int(rng.next_u64() % 9) - 4 for _ in range(n)]
    yield [0] * n
    yield rational_state(rng, n)
    yield [Fraction(int(rng.next_u64() % 4_000_001) - 2_000_000, _PRIMES[i % len(_PRIMES)]) for i in range(n)]
    yield [Fraction(int(rng.next_u64() % 41) - 20, int(rng.next_u64() % 30) + 1) if i % 2 else i - 2
           for i in range(n)]


@pytest.mark.parametrize("eps", (Fraction(0), Fraction(3, 7)))
@pytest.mark.parametrize("field", sorted(_KERNEL_FIELDS))
@pytest.mark.parametrize("graph", sorted(_KERNEL_GRAPHS))
def test_exact_kernel_equals_fraction_reference(graph, field, eps):
    g = _KERNEL_GRAPHS[graph]
    pert = Perturbation(tuple((Fraction(-3, 5), Fraction(2, 9), 1, Fraction(-1, 3))[i % 4] for i in range(g.n)))
    sys_ = PerturbedSystem(g, _KERNEL_FIELDS[field], pert, eps)
    for x in _kernel_states(g.n, len(graph) * 31 + len(field)):
        got = vector_field(sys_, x)
        assert all(type(v) is Fraction for v in got)
        assert got == _reference_vector_field(sys_, x)


def test_exact_kernel_skips_the_gauges_the_reference_applies():
    # the gauges shift every response value by a nonzero amount, and the exact rows of L cancel it
    calls = []

    class CountedGauge(ResponseFunction):
        def eval(self, x):
            calls.append(x)
            return super().eval(x)

    gauges = (CountedGauge.from_coeffs([Fraction(1, 3), 2]), CountedGauge.from_coeffs([0, 0, Fraction(-5, 11)]))
    field = ResponseField(_KERNEL_FIELDS["gauged"].function, gauges)
    sys_ = PerturbedSystem(_KERNEL_GRAPHS["custom-isolated"], field, Perturbation.constant(Fraction(1, 3), 5),
                           Fraction(2, 7))
    x = [Fraction(1, 3), -2, Fraction(5, 999983), Fraction(7, 4), 0]
    got = vector_field(sys_, x)
    assert calls == []
    want = _reference_vector_field(sys_, x)
    assert calls == [sum(x) / 5] * 2 and sum(g.eval(calls[0]) for g in gauges) != 0
    assert got == want


def test_integrator_step_must_be_positive():
    # a NaN dt would reach rk4's step count or dp45's divergence test
    for method in ("rk4", "dp45"):
        for dt in (0.0, -1e-3, float("nan")):
            with pytest.raises(PreconditionError, match="dt must be positive"):
                IntegratorConfig(method=method, dt=dt)


# --- the arithmetic domain of vector_field ------------------------------------------

def _mixed_system():
    # non-dyadic weights, response constants and forcing, and a gauge: every constant is rounded for an mpf state
    field = gauge_shift(_KERNEL_FIELDS["roots"], ResponseFunction.from_coeffs([Fraction(1, 3), 2]))
    return PerturbedSystem(_KERNEL_GRAPHS["custom-isolated"], field,
                           Perturbation((Fraction(-3, 5), Fraction(2, 9), 1, Fraction(-1, 3), 0)), Fraction(3, 7))


def _rounded_reference(sys_, prec, x):
    """The dense Fraction-then-round reference with every constant rounded to prec bits, as raw tuples."""
    from fraction_reference import Tier, value

    tier = Tier(32)
    tier.prec = prec
    exact = [value(v) if isinstance(v, mpmath.mpf) else v if isinstance(v, Fraction) else Fraction(int(v)) for v in x]
    return [tier.raw(q) for q in tier.full_rhs(sys_)(exact)]


def test_vector_field_reads_a_mixed_state_exactly():
    sys_ = _mixed_system()
    x = [Fraction(1, 3), 2, mpmath.mpf(3), np.int64(-1), mpmath.mpf("0.1")]
    for prec in (80, 200):
        with mpmath.workprec(prec):
            out = vector_field(sys_, x)
        assert all(type(v) is mpmath.mpf for v in out)
        assert [v._mpf_ for v in out] == _rounded_reference(sys_, prec, x)
    # ints of any integral type and Fractions stay exact
    assert vector_field(sys_, [np.int64(2), Fraction(-1, 3), True, 4, np.int8(-3)]) == vector_field(
        sys_, [Fraction(2), Fraction(-1, 3), Fraction(1), Fraction(4), Fraction(-3)])
    out = vector_field(sys_, np.array([1, -2, 0, 3, 1]))
    assert all(type(v) is Fraction for v in out)
    assert out == vector_field(sys_, [1, -2, 0, 3, 1])


def test_vector_field_of_numpy_floats_runs_the_float_tier():
    sys_ = _mixed_system()
    x = [0.25, -1.5, 0.5, 1.0, -0.75]
    want = vector_field(sys_, np.array(x))
    for state in ([np.float32(v) for v in x], [Fraction(1, 4), np.float32(-1.5), 0.5, 1, mpmath.mpf(-0.75)],
                  np.array(x, dtype=np.float32)):
        out = vector_field(sys_, state)
        assert [float(v) for v in out] == want.tolist()
        assert all(type(v) is np.float64 for v in out)


def test_vector_field_refuses_other_component_types():
    from decimal import Decimal

    sys_ = _mixed_system()
    for bad in (Decimal("0.5"), 1j, "1", mpmath.mpc(1, 2)):
        with pytest.raises(TypeError, match=type(bad).__name__):
            vector_field(sys_, [Fraction(1), 2, bad, 0, 1])


_MPF_STATE = st.tuples(st.integers(-2**70, 2**70), st.integers(-90, 30))


@settings(max_examples=60, deadline=None)
@given(parts=st.lists(_MPF_STATE, min_size=5, max_size=5), prec=st.sampled_from((80, 200)),
       system=st.sampled_from(("gauged", "dyadic")))
def test_vector_field_of_an_mpf_state_is_the_exact_value_rounded_once(parts, prec, system):
    sys_ = _mixed_system() if system == "gauged" else PerturbedSystem(
        _KERNEL_GRAPHS["k5-seven-fifths"], _KERNEL_FIELDS["coeffs"], Perturbation.constant(Fraction(1, 3), 5), 1)
    with mpmath.workprec(prec):
        x = [mpmath.mpf(p) for p in parts]
        out = vector_field(sys_, x)
    assert [v._mpf_ for v in out] == _rounded_reference(sys_, prec, x)


def test_vector_field_builds_one_flow_per_precision(ex1_response, monkeypatch):
    # unit K10 with ex1's response at 35 digits: the flow's constants are rounded once per precision, not per call
    sys_ = _system(10, ex1_response, Perturbation.constant(Fraction(-1, 3), 10), Fraction(1, 10))
    builds = []
    build = PerturbedSystem.integer_flow
    monkeypatch.setattr(PerturbedSystem, "integer_flow", lambda self, prec, rows: builds.append(prec) or build(
        self, prec, rows))
    # the float tier's flow, its Horner plan and eps H included, is built once per system
    plan = dynamics._horner_plan
    monkeypatch.setattr(dynamics, "_horner_plan", lambda fld: builds.append("float") or plan(fld))
    rng = SplitMix64(35)
    with mpmath.workdps(35):
        prec = mpmath.mp.prec
        x = [mpmath.mpf(v.numerator) / v.denominator * mpmath.sqrt(2) for v in rational_state(rng, 10)]
        tiny = [v / 2**300 for v in x]
        first, other, second = vector_field(sys_, x), vector_field(sys_, tiny), vector_field(sys_, x)
    with mpmath.workprec(80):
        coarse = vector_field(sys_, x)
    y = np.array([float(v) for v in x])
    floats = [vector_field(sys_, y), vector_field(sys_, list(y)), vector_field(sys_, y)]
    rhs = sys_.rhs_function(ScalarContext(16))
    monkeypatch.undo()
    assert builds == [prec, 80, "float"]
    assert [v._mpf_ for v in first] == [v._mpf_ for v in second] == _rounded_reference(sys_, prec, x)
    assert [v._mpf_ for v in other] == _rounded_reference(sys_, prec, tiny)
    assert [v._mpf_ for v in coarse] == _rounded_reference(sys_, 80, x)
    # each call still returns a new array, with the bits of the run's right-hand side
    assert floats[0] is not floats[2] and type(floats[1]) is list
    for out in floats:
        assert np.array(out).tobytes() == rhs(y).tobytes()


@pytest.mark.parametrize("bad", ("nan", "inf", "-inf"))
@pytest.mark.parametrize("where", (0, 2, 4))
def test_vector_field_of_a_non_finite_mpf_is_nan_everywhere(bad, where):
    x = [Fraction(1, 3), mpmath.mpf(2), 0, mpmath.mpf("0.5"), -1]
    x[where] = mpmath.mpf(bad)
    out = vector_field(_mixed_system(), x)
    assert len(out) == 5 and all(type(v) is mpmath.mpf and mpmath.isnan(v) for v in out)
