import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from alf import (
    Graph,
    InvariantViolationError,
    Perturbation,
    PerturbedSystem,
    PlaneSystem,
    PreconditionError,
    ResponseField,
    ResponseFunction,
    SymmetryViolationError,
    UnsupportedStructureError,
    analyze_singularity,
    consensus_stability,
    find_singular_points,
    plane_reduce,
    sample_manifold,
    sample_manifolds,
    slow_divergence_integral,
)
from alf.prng import SplitMix64

from conftest import assert_generic_transcritical_threshold
from float_oracles import (
    ContinuationFailedError,
    flow_stability_probe,
    gauss_legendre_divergence,
    newton_polish,
    tangent_slope_estimate,
)


def _ex1_plane(eps=Fraction(1, 10), values=(-1, -1, -1), n=3):
    f = ResponseFunction.from_roots([(1, 2), (-1, 2)])
    sys_ = PerturbedSystem(
        Graph.complete(n), ResponseField(f), Perturbation.constant(list(values), n), eps
    )
    return plane_reduce(sys_, n)


# --- plane reduction ---------------------------------------------------------

def test_plane_reduce_formula_oracle():
    # fast part must equal -[f(x) - f(k-2x)] + eps*g by direct evaluation
    ps = _ex1_plane()
    f = ps.f
    from alf.precision import ScalarContext

    rhs = ps.rhs_function(ScalarContext(16))
    rng = SplitMix64(17)
    for _ in range(25):
        x, k = rng.uniform(-2, 2), rng.uniform(-4, 4)
        fast, slow = rhs(np.array([x, k]))
        manual = -(f.eval(x) - f.eval(k - 2 * x)) - 0.1
        assert fast == pytest.approx(manual, abs=1e-14)
        assert slow == pytest.approx(0.1 * (-3.0), abs=1e-15)


@pytest.mark.parametrize("f", [ResponseFunction.from_roots([(1, 2), (-1, 2)]),
                               ResponseFunction.from_coeffs([Fraction(1, 10), -1, 0, Fraction(3, 2)])],
                         ids=["factored", "coeffs"])
@pytest.mark.parametrize("epsilon", [Fraction(1, 10), Fraction(0)])
def test_plane_float_fast_part_is_its_layer_bit_for_bit(f, epsilon):
    # the fast component is eps g - layer_value(x, k) bit for bit, signed zeros included (with eps 0 and g < 0,
    # eps g is -0.0, and on the consensus line the layer is 0.0); a NaN keeps the sign the formula
    # -(f(x) - f(k - (n-1) x)) + eps g gives it, which eps g - layer may flip
    from alf.precision import ScalarContext

    ps = PlaneSystem(n=4, f=f, g=Fraction(-1), g_tilde=Fraction(1, 3), epsilon=epsilon)
    rhs = ps.rhs_function(ScalarContext(16))
    eps_g = float(epsilon) * -1.0
    rng = SplitMix64(34)
    points = [(rng.uniform(-3, 3), rng.uniform(-6, 6)) for _ in range(200)]
    points += [(k / 4, k) for k in (rng.uniform(-6, 6) for _ in range(20))]
    specials = (0.0, -0.0, math.nan, 1.5)
    points += [(x, k) for x in specials for k in specials]

    def bits(v):
        return np.float64(v).view(np.int64)

    for x, k in points:
        fast = rhs(np.array([x, k]))[0]
        x, k = np.float64(x), np.float64(k)
        assert bits(fast) == bits(-(f.eval(x) - f.eval(k - 3 * x)) + eps_g), (x, k)
        layer = ps.layer_value(x, k)
        assert math.isnan(fast) == math.isnan(eps_g - layer)
        assert math.isnan(fast) or bits(fast) == bits(eps_g - layer), (x, k)


def test_plane_fast_part_vanishes_on_consensus():
    ps = _ex1_plane()
    from alf.precision import ScalarContext

    rhs = ps.rhs_function(ScalarContext(16))
    for k in (-3.3, 0.0, 1.7, 4.1):
        fast, _ = rhs(np.array([k / 3, k]))
        # x = k/n leaves only eps*g
        assert fast == pytest.approx(float(ps.epsilon) * -1.0, abs=1e-13)


def test_plane_reduce_rejects_asymmetric_perturbation():
    f = ResponseFunction.from_roots([(1, 2), (-1, 2)])
    sys_ = PerturbedSystem(
        Graph.complete(3), ResponseField(f), Perturbation.constant([1, 2, 1]), Fraction(1, 10)
    )
    with pytest.raises(SymmetryViolationError):
        plane_reduce(sys_, 3)
    # eliminating node 2 makes the same perturbation admissible
    ps = plane_reduce(sys_, 2)
    assert ps.g == 1 and ps.g_tilde == 2


def test_plane_reduce_rejects_non_complete_graph():
    f = ResponseFunction.linear()
    sys_ = PerturbedSystem(Graph.path(3), ResponseField(f), Perturbation.zero(3), 0)
    with pytest.raises(UnsupportedStructureError):
        plane_reduce(sys_, 3)


def test_plane_reduce_rejects_weighted_complete_graph():
    f = ResponseFunction.from_roots([(1, 2), (-1, 2)])
    weighted = Graph(3, ((1, 2, 1), (1, 3, 5), (2, 3, 2)))
    sys_ = PerturbedSystem(weighted, ResponseField(f), Perturbation.constant(-1, 3), Fraction(1, 10))
    with pytest.raises(UnsupportedStructureError):
        plane_reduce(sys_, 3)
    # a uniform weight other than 1 rescales the flow and is rejected as well
    uniform = Graph.complete(3, weight=2)
    with pytest.raises(UnsupportedStructureError):
        plane_reduce(PerturbedSystem(uniform, ResponseField(f), Perturbation.zero(3), 0), 3)


_NONZERO = st.fractions(-5, 5, max_denominator=12).filter(bool)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 12), c=_NONZERO, x_s=st.fractions(-3, 3, max_denominator=8),
       h=st.fractions(-2, 2, max_denominator=9), h_tilde=st.fractions(-2, 2, max_denominator=9))
def test_threshold_agrees_with_the_generic_transcritical_route(n, c, x_s, h, h_tilde):
    # f = (c/2)(x - x_s)^2 is singular at x_s with f'' == c there and at its mirror, a consensus point's own
    assume((n - 1) * h + h_tilde != 0)
    f = ResponseFunction.from_roots([(x_s, 2)], scale=c / 2)
    report = analyze_singularity(PlaneSystem(n=n, f=f, g=h, g_tilde=h_tilde, epsilon=Fraction(1, 10)), x_s)
    assert report.sing_type in ("type-1", "type-2")
    assert_generic_transcritical_threshold(n, c, c, h, h_tilde, report.lam)


# --- consensus stability ------------------------------------------------------

def test_consensus_stability_worked_values():
    ps = _ex1_plane()
    # oracle: f'(x) = 4x^3 - 4x evaluated directly
    res = consensus_stability(ps, 2.0)
    assert res.tag == "attracting" and res.jacobian == pytest.approx(-3 * 24.0)
    res = consensus_stability(ps, 0.5)
    assert res.tag == "repelling" and res.jacobian == pytest.approx(-3 * -1.5)
    for xs in (-1, 0, 1):
        assert consensus_stability(ps, xs).tag == "singular"


def test_stability_classifier_agrees_with_flow_probe():
    rng = SplitMix64(2718)
    for n in (3, 4, 5):
        for _ in range(20):
            deg = 2 + rng.next_u64() % 5
            coeffs = [Fraction(rng.next_u64() % 11 - 5) for _ in range(deg + 1)]
            if all(c == 0 for c in coeffs[1:]):
                continue
            f = ResponseFunction.from_coeffs(coeffs)
            ps = PlaneSystem(n=n, f=f)
            fp = f.derivative()
            for x_star in np.linspace(-1.8, 1.8, 13):
                if abs(float(fp.eval(float(x_star)))) < 1e-3:
                    continue  # resolvably non-singular points only
                verdict = consensus_stability(ps, float(x_star)).tag
                probe = flow_stability_probe(ps, n * float(x_star), offset=1e-4)
                assert verdict == probe


# --- manifold sampling --------------------------------------------------------

def _fine_scan_roots(ps: PlaneSystem, k: float, x_lo: float, x_hi: float, samples: int):
    """Independent oracle: plain sign-change bisection on a much finer grid."""
    def phi(x):
        return float(ps.layer_value(x, k))

    xs = np.linspace(x_lo, x_hi, samples)
    vals = [phi(x) for x in xs]
    roots = []
    for i in range(samples - 1):
        if vals[i] == 0.0:
            roots.append(xs[i])
        elif (vals[i] < 0) != (vals[i + 1] < 0):
            lo, hi = xs[i], xs[i + 1]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if (phi(lo) < 0) != (phi(mid) < 0):
                    hi = mid
                else:
                    lo = mid
            roots.append(0.5 * (lo + hi))
    return roots


def test_manifold_roots_match_fine_scan_oracle():
    ps = _ex1_plane()
    sample = sample_manifold(ps, (3.0, 3.5), (-2.5, 2.5), (6, 201), 1e-9)
    for k in (3.0, 3.2, 3.4):
        got = sorted(p.x for p in sample.points if abs(p.k - k) < 1e-9)
        oracle = _fine_scan_roots(ps, k, -2.5, 2.5, 2010)
        for root in oracle:
            assert any(abs(root - x) <= 1e-6 for x in got), (k, root, got)
        assert any(abs(x - k / 3) <= 1e-9 for x in got)  # consensus always present


def test_manifold_k3_contains_known_roots(ex1_response):
    # at k=3 the non-consensus roots solve 5x^2-12x+7=0 -> x=1, x=1.4 (and x=3 outside)
    ps = _ex1_plane()
    sample = sample_manifold(ps, (3.0, 3.0001), (-2.5, 2.5), (2, 401), 1e-9)
    xs = sorted(p.x for p in sample.points if abs(p.k - 3.0) < 1e-12)
    assert any(abs(x - 1.0) < 1e-9 for x in xs)
    assert any(abs(x - 1.4) < 1e-9 for x in xs)


def test_manifold_linear_response_consensus_only():
    ps = PlaneSystem(n=3, f=ResponseFunction.linear())
    sample = sample_manifold(ps, (-3, 3), (-2, 2), (41, 101), 1e-9)
    assert sample.branch_count() == 1
    for p in sample.points:
        assert p.x == pytest.approx(p.k / 3, abs=1e-12)


def test_manifold_family_a_at_zero_is_consensus_only():
    ps = PlaneSystem(n=3, f=ResponseFunction.family("ex3a", 0))
    sample = sample_manifold(ps, (-4.5, 4.5), (-2.5, 2.5), (61, 201), 1e-9)
    assert sample.branch_count() == 1


def test_manifold_residuals_within_tolerance():
    ps = _ex1_plane()
    sample = sample_manifold(ps, (-4.5, 4.5), (-2.5, 2.5), (61, 101), 1e-9)
    for p in sample.points:
        assert abs(float(ps.layer_value(p.x, p.k))) <= 1e-9


def test_manifold_tags_singular_consensus_points():
    ps = _ex1_plane()
    sample = sample_manifold(ps, (-4.5, 4.5), (-2.5, 2.5), (181, 201), 1e-9)
    sing_k = sorted(p.k for p in sample.points if p.consensus and p.stability == "singular")
    assert sing_k == pytest.approx([-3.0, 0.0, 3.0], abs=1e-9)


# --- the array scan against the scalar scan -------------------------------------
# The point-by-point scan the array scan replaced is the reference: every root
# must carry the same bits.

def _bisect_root(func, lo, hi, iterations=200):
    flo = func(lo)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fmid = func(mid)
        if fmid == 0.0 or hi - lo < 1e-15 * max(1.0, abs(mid)):
            return mid
        if (flo < 0) != (fmid < 0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def _scalar_scan_roots(func, deriv, lo, hi, count, seen):
    """The scalar scan; `seen` counts grid zeros, end-point zeros and rejected polishes."""
    step = (hi - lo) / (count - 1)
    values = [func(lo + i * step) for i in range(count)]
    roots = []
    for i in range(count - 1):
        a, b = values[i], values[i + 1]
        x_a = lo + i * step
        if a == 0.0:
            seen["grid zero"] += 1
            roots.append(x_a)
            continue
        if (a < 0) != (b < 0):
            root = _bisect_root(func, x_a, x_a + step)
            polished = newton_polish(func, deriv, root)
            if abs(polished - root) <= step and abs(func(polished)) <= abs(func(root)):
                root = polished
            else:
                seen["rejected polish"] += 1
            roots.append(root)
    if values[-1] == 0.0:
        seen["end zero"] += 1
        roots.append(hi)
    return roots


def _scan_responses(rng):
    yield ResponseFunction.from_roots([(1, 2), (-1, 2)])
    for lam in (Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        yield ResponseFunction.family("ex3a", lam)
        yield ResponseFunction.family("ex3b", lam)
    for _ in range(6):
        pairs = [(Fraction(rng.next_u64() % 17 - 8, 4), 1 + rng.next_u64() % 2)
                 for _ in range(1 + rng.next_u64() % 3)]
        yield ResponseFunction.from_roots(pairs, scale=Fraction(rng.next_u64() % 7 + 1, 2))
    for _ in range(6):
        deg = 2 + rng.next_u64() % 4
        yield ResponseFunction.from_coeffs([Fraction(rng.next_u64() % 13 - 6, 2) for _ in range(deg + 1)])


def test_array_scan_roots_equal_scalar_scan():
    from alf.slowfast import _scan_roots

    rng = SplitMix64(4242)
    seen = {"grid zero": 0, "end zero": 0, "rejected polish": 0}
    for idx, f in enumerate(_scan_responses(rng)):
        n = 2 + idx % 8
        ps = PlaneSystem(n=n, f=f)
        # k = n x at dyadic x puts consensus roots exactly on the x grids
        windows = [
            ([-0.75 * n + 0.25 * n * i for i in range(7)], -2.0, 2.0, 17),
            ([n * 0.5 - 0.5 * n * i for i in range(5)], -1.5, 0.5, 9),  # descending, ends on roots
            ([rng.uniform(-4, 4) for _ in range(6)], -2.5, 2.5, 201),
            (sorted(rng.uniform(-3, 3) for _ in range(4))[::-1], -2.2, 1.9, 64),
        ]
        if n == 2:
            # the last grid point -1.1 + 3 * 0.6 is 0.6999999999999997, a root at k = 2x; hi is reported
            windows.append(([2 * (-1.1 + 3 * 0.6), 1.0], -1.1, 0.7, 4))
        for ks, lo, hi, count in windows:
            got = _scan_roots(ps.layer_value, lambda x, k: -ps.layer_jacobian(x, k), lo, hi, count, ks)
            assert len(got) == len(ks)
            for k, roots in zip(ks, got):
                ref = _scalar_scan_roots(lambda x: float(ps.layer_value(x, k)),
                                         lambda x: -ps.layer_jacobian(x, k), lo, hi, count, seen)
                assert all(type(r) is float for r in roots)
                assert [repr(r) for r in roots] == [repr(r) for r in ref], (f, n, k, lo, hi, count)
        # the zeros of f' take the same scan on one gridline
        fp, fpp = f.derivative(), f.derivative(2)
        for lo, hi, count in ((-3.0, 3.0, 2001), (-2.0, 2.0, 33)):
            ref = _scalar_scan_roots(lambda x: float(fp.eval(x)), lambda x: float(fpp.eval(x)),
                                     lo, hi, count, seen)
            merged = []
            for r in sorted(ref):
                if not merged or abs(r - merged[-1]) > 1e-9 * max(1.0, abs(r)):
                    merged.append(r)
            found = find_singular_points(f, lo, hi, count)
            assert [repr(r) for r in found] == [repr(r) for r in merged]
    assert all(seen.values()), seen  # every branch of the scan was exercised


def test_lock_step_scan_compacts_as_elements_finish():
    from alf.slowfast import _bisect, _by_system, _newton, _scan_roots

    def counted(fn, lengths):
        def func(x, p):
            lengths.append(len(x))
            return fn(x, p)
        return func

    # brackets of x - r: [-1, 1] stops on an exact zero at its first midpoint and [0, 1] at its second; the
    # others run to the stop rule's width, after 41, 53 and 56 halvings
    brackets = [(-1.0, 1.0, 0.0), (-1.0, 3.0, 1 / 3), (0.0, 1.0, 0.75), (-2.0, 70.0, math.pi), (1e3, 1e3 + 1, 1e3 + 0.1)]
    lo, hi, r = (np.array(column) for column in zip(*brackets))
    lengths = []
    got = _bisect(counted(lambda x, p: x - p, lengths), lo.copy(), hi.copy(), lo - r, r, "test")
    for (a, b, root), x in zip(brackets, got.tolist()):
        assert repr(x) == repr(_bisect_root(lambda v: v - root, a, b))
    assert lengths[:3] == [5, 4, 3] and len(lengths) > 45
    assert sorted(set(lengths)) == [1, 2, 3, 4, 5]

    # Newton on x^2 - p: a zero derivative stops at once, an overflowing step leaves the finite floats and an
    # exact root converges at once; 1 -> 2 converges after 7 steps, and from 1.5 and 100 Newton ends in a
    # 2-cycle around sqrt(2), which it would repeat to the 30th step
    starts = [(0.0, 2.0), (1.0, 4.0), (1.5, 2.0), (1e200, 1.0), (3.0, 9.0), (100.0, 2.0)]
    x0, p = (np.array(column) for column in zip(*starts))
    lengths = []
    with np.errstate(all="ignore"):
        got = _newton(counted(lambda x, p: x * x - p, lengths), lambda x, p: 2.0 * x, x0, p, 30)
    for (start, target), x in zip(starts, got.tolist()):
        assert repr(x) == repr(newton_polish(lambda v: v * v - target, lambda v: 2.0 * v, start))
    assert lengths[:2] == [6, 3] and len(set(lengths)) >= 3 and len(lengths) < 30
    # starts met in manifold scans: Newton ends in a cycle of 3 points (two of them) or at a point that its
    # nonzero step no longer moves
    for ps, k, start in ((PlaneSystem(n=5, f=ResponseFunction.from_roots([(1, 2), (-1, 2)])), 0.5, 0.09999999999999992),
                         (PlaneSystem(n=4, f=ResponseFunction.family("ex3a", 1.3)), 2.8000000000000007, 1.100000000000001),
                         (PlaneSystem(n=8, f=ResponseFunction.family("ex3b", 1.3)), -5.6, -1.0186401500169997)):
        lengths = []
        got = _newton(counted(lambda x, k: ps.layer_value(x, k), lengths), lambda x, k: -ps.layer_jacobian(x, k),
                      np.array([start]), np.array([k]), 30)
        want = newton_polish(lambda x: float(ps.layer_value(x, k)), lambda x: -ps.layer_jacobian(x, k), start)
        assert repr(float(got[0])) == repr(want) and len(lengths) < 30

    # one pass over the rows (k, system index) of every scan response equals the scalar scan of each row
    rng = SplitMix64(4343)
    systems = [PlaneSystem(n=2 + idx % 8, f=f) for idx, f in enumerate(_scan_responses(rng))]
    seen = {"grid zero": 0, "end zero": 0, "rejected polish": 0}
    for ks, lo, hi, count in (([-3.0, 0.0, 0.75, 2.5], -2.5, 2.5, 201), ([1.5, -1.0], -2.2, 1.9, 64)):
        rows = [(k, s) for s in range(len(systems)) for k in ks]
        got = _scan_roots(_by_system(systems, lambda ps, x, k: ps.layer_value(x, k)),
                          _by_system(systems, lambda ps, x, k: -ps.layer_jacobian(x, k)), lo, hi, count, rows)
        assert len(got) == len(rows)
        for (k, s), roots in zip(rows, got):
            ps = systems[s]
            ref = _scalar_scan_roots(lambda x: float(ps.layer_value(x, k)), lambda x: -ps.layer_jacobian(x, k),
                                     lo, hi, count, seen)
            assert [repr(x) for x in roots] == [repr(x) for x in ref], (s, k, lo, hi, count)


def _point_bits(sample):
    return [(repr(p.k), repr(p.x), p.branch, p.stability, p.consensus) for p in sample.points]


def test_manifold_sweep_equals_its_parts():
    rng = SplitMix64(2828)
    window = {"k_range": (-4.5, 4.5), "x_range": (-2.5, 2.5), "grid": (31, 81), "residual_tol": 1e-9}
    for family in ("ex3a", "ex3b"):
        # 0, then seeded values, one of them repeated and one negated
        lams = [0.0] + [rng.uniform(0.1, 1.5) for _ in range(3)]
        lams += [lams[1], -lams[2]]
        systems = [PlaneSystem(n=3, f=ResponseFunction.family(family, lam)) for lam in lams]
        swept = sample_manifolds(systems, **window)
        assert len(swept) == len(systems)
        for ps, sample in zip(systems, swept):
            assert _point_bits(sample) == _point_bits(sample_manifold(ps, **window))
        assert _point_bits(swept[1]) == _point_bits(swept[4])

        # the sweep refuses with the message of the first system whose own call fails its residual gate
        tight = dict(window, residual_tol=1e-30)
        first = None
        for ps in systems:
            try:
                sample_manifold(ps, **tight)
            except InvariantViolationError as err:
                first = str(err)
                break
        assert first is not None
        with pytest.raises(InvariantViolationError) as caught:
            sample_manifolds(systems, **tight)
        assert str(caught.value) == first


def _bisect_every_halving(func, lo, hi, flo, p, where):
    """The lock-step bisection testing its width rule on every halving, as `_bisect` did before it skipped it.

    A midpoint whose lo + hi overflows is 0.5 lo + 0.5 hi.
    """
    from alf.slowfast import BISECT_HALVINGS

    out = np.empty_like(lo)
    active = np.arange(len(lo))
    negative = flo < 0
    for _ in range(BISECT_HALVINGS):
        if not len(active):
            break
        mid = 0.5 * (lo + hi)
        mid = np.where(np.isinf(mid), 0.5 * lo + 0.5 * hi, mid)
        fmid = func(mid, p)
        done = (fmid == 0.0) | (hi - lo < 1e-15 * np.fmax(np.abs(mid), 1.0))
        if done.any():
            out[active[done]] = mid[done]
            go = ~done
            active, lo, hi, negative, p, mid, fmid = (a[go] for a in (active, lo, hi, negative, p, mid, fmid))
        right = negative == (fmid < 0)
        np.copyto(hi, mid, where=~right)
        np.copyto(lo, mid, where=right)
    if len(active):
        widest = int(np.argmax(hi - lo))
        raise InvariantViolationError(
            f"{where}: {BISECT_HALVINGS} halvings left the root bracket [{float(lo[widest])!r}, {float(hi[widest])!r}] "
            f"{hi[widest] - lo[widest]:.3g} wide"
        )
    return out


class _CountedWidths(np.ndarray):
    """A float array counting its `-` operations: `_bisect` subtracts its brackets once for the skip count,
    then once on each halving that tests the width rule, and once for a refusal's message."""

    subtractions = 0

    def __sub__(self, other):
        _CountedWidths.subtractions += 1
        return super().__sub__(other)


def _bisection(bisect, brackets):
    """bisect over the brackets (lo, hi, root) of x - root: (the roots' reprs or the refusal, halvings, width tests)."""
    lo, hi, r = (np.array(column, dtype=float).view(_CountedWidths) for column in zip(*brackets))
    _CountedWidths.subtractions = 0
    halvings = []

    def func(x, root):
        halvings.append(len(x))
        return np.subtract(x, root)  # no `-`, which would count as a width test

    try:
        with np.errstate(all="ignore"):  # as in `_scan_roots`
            found = [repr(x) for x in bisect(func, lo, hi, np.subtract(lo, r), r, "test").tolist()]
    except InvariantViolationError as err:
        found = str(err)
    return found, len(halvings), _CountedWidths.subtractions


def test_bisect_equals_the_loop_that_tests_the_width_rule_on_every_halving(monkeypatch):
    from alf import slowfast
    from alf.slowfast import _bisect

    rng = SplitMix64(2929)
    seeded = []
    for _ in range(40):
        scale = 10.0 ** (rng.next_u64() % 13 - 6)
        a, w = rng.uniform(-10, 10) * scale, rng.uniform(0.001, 5) * scale
        seeded.append((a, a + w, a + rng.uniform() * w))
    resolved = [
        (1e300, 1.5e300, 1.2e300), (-1e80, -0.5e80, -0.7e80),
        (-1.7e308, 1.7e308, 1e308),  # hi - lo overflows to inf
        (1e308, 1.5e308, 1.2e308), (-1.5e308, -1e308, -1.2e308),  # lo + hi overflows: the first midpoint is inf
        (-1.0, 2.0, 0.0), (-3.0, 1.0, 1e-20), (-0.5, 0.25, -1e-300),  # straddling 0
        (1e-300, 2e-300, 1.5e-300), (-1e-300, 0.0, -5e-301),  # about 1e-300 wide
        (-1.0, 1.0, 0.0),  # an exact zero at the first midpoint
    ]
    refused = [(-1e80, 1e80, 0.5), (-1e300, 1e300, 1.0), (-5e79, 0.0, -1.0)]
    for batch in [seeded, resolved, seeded + resolved] + [[b] for b in seeded[:5] + resolved + refused] + [refused]:
        got, halvings, tests = _bisection(_bisect, batch)
        want, ref_halvings, ref_tests = _bisection(_bisect_every_halving, batch)
        assert got == want, batch
        # a refusal subtracts once more, for its message
        refusal = isinstance(want, str)
        assert halvings == ref_halvings and ref_tests == halvings + refusal
        skipped = halvings + refusal + 1 - tests
        assert 0 <= skipped <= halvings
        if batch in ([(-1.7e308, 1.7e308, 1e308)], [(1e308, 1.5e308, 1.2e308)], [(-1e300, 1e300, 1.0)]):
            assert skipped == (49 if batch[0][1] == 1e300 else 0)
        if batch == [(-1.0, 2.0, 0.0)]:
            assert (halvings, skipped) == (53, 49)  # the width rule is tested on the last 4 halvings only
    assert _bisection(_bisect, refused[2:])[0].startswith("test: 200 halvings left the root bracket [")

    # the scans of the wide windows, with either loop
    f = ResponseFunction.from_roots([(1, 2), (-1, 2)])
    windows = ((-1e80, 1e80, 2001), (-1e300, 1e300, 301), (-1.7e308, 1.7e308, 2), (-3.0, 3.0, 2001), (-1e80, 0.0, 3))
    outcomes = {}
    for bisect in (_bisect, _bisect_every_halving):
        monkeypatch.setattr(slowfast, "_bisect", bisect)
        for window in windows:
            try:
                found = [repr(x) for x in find_singular_points(f, *window)]
            except InvariantViolationError as err:
                found = str(err)
            outcomes.setdefault(window, []).append(found)
    assert all(got == want for got, want in outcomes.values())
    assert [isinstance(got, list) for got, _ in outcomes.values()] == [False, False, True, True, False]


def test_root_scan_of_a_bracket_whose_end_points_sum_past_the_float_range():
    # f' = x - 1.2e308; the cell [1e308, 1.35e308] has lo + hi = 2.35e308, so its first midpoint
    # 0.5 (lo + hi) is inf, which the width rule would accept; 0.5 lo + 0.5 hi is finite
    f = ResponseFunction.from_coeffs([0, -Fraction(1.2e308), Fraction(1, 2)])
    assert find_singular_points(f, 1e308, 1.7e308, 3) == [1.2e308]


def _branch_reference(ps, ks, scans, x_lo, x_hi, link_tol):
    """(k, x, branch, consensus) per point: the per-point dedupe and branch linking `_manifold_sample` replaced."""
    entries = []
    next_branch = 1
    prev = []
    prev_consensus_branch = None
    for k, scanned in zip(ks, scans):
        consensus_x = k / ps.n
        roots = [consensus_x] if x_lo <= consensus_x <= x_hi else []
        roots += scanned
        merged = []
        for j, x in enumerate(sorted(roots, key=lambda v: (abs(v - consensus_x) > 1e-9, v))):
            is_consensus = j == 0 and x_lo <= consensus_x <= x_hi and abs(x - consensus_x) <= 1e-9
            if any(abs(x - other) <= max(1e-9, 1e-9 * abs(x)) for other, _ in merged):
                continue
            merged.append((x, is_consensus))
        merged.sort()
        line_entries = []
        available = list(prev)
        for x, is_consensus in merged:
            branch = None
            if is_consensus and prev_consensus_branch is not None:
                branch = prev_consensus_branch
            else:
                best = None
                for idx, (px, pb) in enumerate(available):
                    d = abs(px - x)
                    if d <= link_tol and (best is None or d < best[0]):
                        best = (d, idx, pb)
                if best is not None:
                    branch = best[2]
                    available.pop(best[1])
            if branch is None:
                branch = 0 if is_consensus and prev_consensus_branch is None and not entries else next_branch
                if branch == next_branch:
                    next_branch += 1
            line_entries.append((k, x, branch, is_consensus))
            if is_consensus:
                prev_consensus_branch = branch
        prev = [(x, b) for _, x, b, _ in line_entries]
        entries += line_entries
    return [(repr(k), repr(x), b, c) for k, x, b, c in entries]


def test_manifold_sample_columns_are_its_points(monkeypatch):
    from alf import slowfast

    samples = []
    build = slowfast._manifold_sample

    def spy(*args):
        samples.append((args, build(*args)))
        return samples[-1][1]

    monkeypatch.setattr(slowfast, "_manifold_sample", spy)
    rng = SplitMix64(3030)
    responses = [ResponseFunction.from_roots([(1, 2), (-1, 2)])]
    responses += [ResponseFunction.family(family, lam) for family in ("ex3a", "ex3b") for lam in (0.5, 1.0, 1.3)]
    responses += [ResponseFunction.from_roots([(Fraction(rng.next_u64() % 17 - 8, 4), 1 + rng.next_u64() % 3)
                                               for _ in range(3)]) for _ in range(4)]
    windows = [((-4.5, 4.5), (-2.5, 2.5), (31, 81)),
               ((4.5, -4.5), (-2.5, 2.5), (40, 101)),  # descending k_range
               ((-9.0, 9.0), (-1.0, 1.5), (25, 60))]  # k/n leaves [-1, 1.5] for |k| >= 3 or so
    for idx, f in enumerate(responses):
        for window in windows:
            sample = sample_manifold(PlaneSystem(n=2 + idx % 5, f=f), *window, residual_tol=1e-6)
            points = sample.points
            assert points is sample.points
            assert [(p.k, p.x, p.branch, p.stability, p.consensus) for p in points] == list(
                zip(sample.k, sample.x, sample.branch, sample.stability, sample.consensus))
            assert [(repr(p.k), repr(p.x)) for p in points] == [(repr(k), repr(x)) for k, x in zip(sample.k, sample.x)]
            assert all(type(p.k) is float and type(p.x) is float and type(p.branch) is int
                       and type(p.consensus) is bool for p in points)
            assert sample.branch_count() == len({p.branch for p in points})
    consensus_lines = set()
    for (ps, ks, scans, x_lo, x_hi, link_tol, _), sample in samples:
        got = [(repr(k), repr(x), b, c) for k, x, b, c in zip(sample.k, sample.x, sample.branch, sample.consensus)]
        assert got == _branch_reference(ps, ks, scans, x_lo, x_hi, link_tol)
        consensus_lines.add(sum(sample.consensus) < len(ks))
    assert consensus_lines == {True, False}  # windows with and without gridlines the consensus line leaves


def test_find_singular_points_needs_two_samples():
    f = ResponseFunction.from_roots([(1, 2), (-1, 2)])
    for samples in (1, 0, -3):
        with pytest.raises(PreconditionError):
            find_singular_points(f, -2.0, 2.0, samples)


def test_scan_refuses_brackets_it_cannot_resolve():
    f = ResponseFunction.from_roots([(1, 2), (-1, 2)])
    # a bracket [-5e79, 0] needs about 314 halvings to reach the stop rule near -1
    with pytest.raises(InvariantViolationError, match=r"^root scan of \[-1e\+80, 0\.0\] at 3 points: "
                                                     r"200 halvings left the root bracket .* wide$"):
        find_singular_points(f, -1e80, 0.0, 3)
    # -1e77 + step rounds to -2.1e63, not to the grid point 0.0, and f' < 0 at both ends of that interval;
    # the scan used to bisect it to its end point and return that, polished to -1.1e58, as a zero of f'.
    # The grid cell [-1e77, 0] holds the sign change but is too wide for 200 halvings.
    with pytest.raises(InvariantViolationError, match=r"200 halvings left the root bracket \[.*, 0\.0\]"):
        find_singular_points(f, -1e80, 1e80, 2001)
    # x + step rounds away from the grid point here too, but the intervals keep their sign changes
    assert find_singular_points(f, -3.0, 3.0, 2001) == [-1.0, 0.0, 1.0]
    # x_a + step from the grid point before 0.0 rounds to -1.1e-14, short of the zero of f' = 2x at 0.0: the scan
    # bisects the grid cell [-0.3, 0.0] instead of the interval short of it
    assert find_singular_points(ResponseFunction.from_coeffs([0, 0, 1]), -300.0, 300.0, 2001) == [0.0]


# --- singularity analysis -----------------------------------------------------

def test_analyze_singularity_type1_canard():
    report = analyze_singularity(_ex1_plane(), 1)
    assert report.sing_type == "type-1"
    assert report.d2f == 8
    assert report.pert_sum == -3
    assert report.rho == -1
    assert report.lam == 1
    assert report.canard is True
    assert (report.tangent_intercept, report.tangent_slope) == (2, 1)


def test_analyze_singularity_type2_faux():
    report = analyze_singularity(_ex1_plane(), 0)
    assert report.sing_type == "type-2"
    assert report.d2f == -4
    assert report.rho == 1
    assert report.lam == -1
    assert report.canard is False


def test_analyze_singularity_half_lambda():
    report = analyze_singularity(_ex1_plane(values=(-1, -1, 0)), 1)
    assert report.lam == Fraction(1, 2)
    assert report.canard is False


def test_analyze_singularity_sign_swap():
    report = analyze_singularity(_ex1_plane(values=(1, 1, 1)), 1)
    assert report.rho == 1 and report.sing_type == "type-2"
    report0 = analyze_singularity(_ex1_plane(values=(1, 1, 1)), 0)
    assert report0.rho == -1 and report0.sing_type == "type-1"


def test_analyze_singularity_requires_singular_point():
    with pytest.raises(PreconditionError):
        analyze_singularity(_ex1_plane(), 0.5)


def test_analyze_singularity_n2_non_transversal():
    ps = _ex1_plane(values=(-1, -1), n=2)
    report = analyze_singularity(ps, 1)
    assert report.non_transversal and report.sing_type == "non-transcritical"
    assert report.canard is False


def test_analyze_singularity_degenerate_pert_sum():
    ps = _ex1_plane(values=(1, 1, -2))
    report = analyze_singularity(ps, 1)
    assert report.sing_type == "degenerate"
    assert report.rho is None and report.lam is None


def test_lambda_antisymmetry_under_component_swap():
    rng = SplitMix64(404)
    for _ in range(25):
        h = Fraction(rng.next_u64() % 19 - 9)
        ht = Fraction(rng.next_u64() % 19 - 9)
        n = 3 + rng.next_u64() % 4
        if (n - 1) * h + ht == 0 or (n - 1) * ht + h == 0 or h == ht:
            continue
        r1 = analyze_singularity(_ex1_plane(values=(h,) * (n - 1) + (ht,), n=n), 1)
        r2 = analyze_singularity(_ex1_plane(values=(ht,) * (n - 1) + (h,), n=n), 1)
        # the formula with swapped components, written out
        expect = -r2.rho * Fraction(ht + (n - 1) * h, h + (n - 1) * ht)
        assert r2.lam == expect
        assert r1.lam == -r1.rho * Fraction(h + (n - 1) * ht, ht + (n - 1) * h)


def test_lambda_equals_minus_rho_for_uniform_components():
    for val in (Fraction(-1), Fraction(2), Fraction(7, 3)):
        for n in (3, 5, 8):
            report = analyze_singularity(_ex1_plane(values=(val,) * n, n=n), 1)
            assert report.lam == -report.rho


def test_singularity_types_stay_in_allowed_set():
    rng = SplitMix64(777)
    allowed = {"type-1", "type-2", "degenerate", "non-transcritical"}
    for _ in range(20):
        deg = 2 + rng.next_u64() % 5
        coeffs = [Fraction(rng.next_u64() % 9 - 4) for _ in range(deg + 1)]
        f = ResponseFunction.from_coeffs(coeffs)
        if f.degree < 2:
            continue
        n = 3 + rng.next_u64() % 3
        ps = PlaneSystem(n=n, f=f, g=Fraction(-1), g_tilde=Fraction(-1), epsilon=Fraction(1, 10))
        for x_s in find_singular_points(f, -3.0, 3.0):
            assert analyze_singularity(ps, x_s).sing_type in allowed


def test_find_singular_points_matches_companion_matrix_oracle():
    rng = SplitMix64(31337)
    for _ in range(15):
        deg = 3 + rng.next_u64() % 4
        coeffs = [Fraction(rng.next_u64() % 21 - 10) for _ in range(deg + 1)]
        f = ResponseFunction.from_coeffs(coeffs)
        if f.degree < 2:
            continue
        found = find_singular_points(f, -3.0, 3.0)
        deriv = f.derivative().coeffs
        numpy_roots = np.roots([float(c) for c in reversed(deriv)])
        real = sorted(
            r.real for r in numpy_roots if abs(r.imag) <= 1e-9 and -3.0 <= r.real <= 3.0
        )
        assert len(found) == len(real)
        for a, b in zip(found, real):
            assert abs(a - b) <= 1e-10


def test_is_critical_perturbation():
    # the canard verdict at a type-1 point is exact lambda == 1
    uniform = analyze_singularity(_ex1_plane(values=[-1] * 4, n=4), 1)
    assert uniform.sing_type == "type-1" and uniform.canard
    unequal = analyze_singularity(_ex1_plane(values=[1, 1, 2]), 0)  # g_tilde != g
    assert unequal.sing_type == "type-1" and unequal.lam == Fraction(5, 4) and not unequal.canard
    zero = analyze_singularity(_ex1_plane(values=[0, 0, 0]), 1)
    assert zero.sing_type == "degenerate" and not zero.canard


# --- tangent continuation -------------------------------------------------------

@pytest.mark.parametrize("n", [3, 5, 10])
@pytest.mark.parametrize("x_s", [1, 0, -1])
def test_tangent_slope_near_n_minus_2(n, x_s):
    ps = _ex1_plane(values=(-1,) * n, n=n)
    report = analyze_singularity(ps, x_s)
    slope = tangent_slope_estimate(ps, report)
    assert abs(slope - (n - 2)) <= 1e-3


def test_tangent_slope_rejects_degenerate_report():
    ps = _ex1_plane(values=(1, 1, -2))
    report = analyze_singularity(ps, 1)
    with pytest.raises(PreconditionError):
        tangent_slope_estimate(ps, report)


def test_tangent_continuation_fails_without_crossing_branch():
    # strictly monotone cubic: the consensus line is the whole critical set,
    # so no partner branch exists to continue along
    f = ResponseFunction.from_coeffs([0, 1, 0, 1])
    ps = PlaneSystem(n=3, f=f, g=Fraction(-1), g_tilde=Fraction(-1), epsilon=Fraction(1, 10))
    from alf.slowfast import SingularityReport

    fake = SingularityReport(
        n=3, x_s=0.5, k_s=1.5, d2f=3, pert_shared=-1, pert_last=-1, pert_sum=-3,
        rho=-1, sing_type="type-1", lam=1, canard=True, tangent_intercept=1.0,
        tangent_slope=1,
    )
    with pytest.raises(ContinuationFailedError):
        tangent_slope_estimate(ps, fake)


# --- slow-divergence integral ----------------------------------------------------

def test_slow_divergence_even_window_vanishes():
    ps = _ex1_plane()
    value = slow_divergence_integral(ps, -3, 3)
    assert type(value) is Fraction and value == 0


def test_slow_divergence_half_window():
    # antiderivative: -n^2 [f(k/n)] over [0,3] with f(1)=0, f(0)=1 gives 9
    ps = _ex1_plane()
    assert slow_divergence_integral(ps, 0, 3) == 9


def test_slow_divergence_linear_response():
    ps = PlaneSystem(n=3, f=ResponseFunction.linear())
    assert slow_divergence_integral(ps, 0, 1) == -3


@pytest.mark.parametrize("k1, k2, exact_value", [(-3, 3, -1152), (-1, 2, Fraction(-20672, 81))])
def test_slow_divergence_of_a_degree_7_response_meets_gauss_legendre(k1, k2, exact_value):
    # f' has degree 6: four Gauss-Legendre nodes integrate it exactly, up to the oracle's rounding bound
    f = ResponseFunction.from_roots([(Fraction(1, 3), 3), (-2, 2), (5, 2)])
    ps = PlaneSystem(n=3, f=f)
    assert slow_divergence_integral(ps, k1, k2) == exact_value
    oracle, bound = gauss_legendre_divergence(ps, k1, k2)
    assert abs(oracle - exact_value) <= bound


def test_slow_divergence_requires_ordered_window():
    with pytest.raises(PreconditionError):
        slow_divergence_integral(_ex1_plane(), 1, 0)
    with pytest.raises(PreconditionError):
        slow_divergence_integral(_ex1_plane(), 1, 1)


@settings(max_examples=25, deadline=None)
@given(
    even_coeffs=st.lists(st.integers(-6, 6), min_size=1, max_size=4),
    half_width=st.floats(0.2, 2.5),
)
def test_slow_divergence_odd_integrand_vanishes(even_coeffs, half_width):
    # even response -> odd derivative -> symmetric window integrates to zero
    coeffs = []
    for c in even_coeffs:
        coeffs.extend([c, 0])
    f = ResponseFunction.from_coeffs(coeffs[:-1] or [1])
    ps = PlaneSystem(n=4, f=f)
    assert slow_divergence_integral(ps, -half_width, half_width) == 0
    oracle, bound = gauss_legendre_divergence(ps, -half_width, half_width)
    assert abs(oracle) <= bound


@pytest.mark.parametrize("tag,lam", [("ex3a", Fraction(1, 2)), ("ex3b", Fraction(1, 2))])
def test_tangent_slopes_for_parameter_families(tag, lam):
    f = ResponseFunction.family(tag, lam)
    for n in (3, 5, 10):
        ps = PlaneSystem(n=n, f=f, g=Fraction(-1), g_tilde=Fraction(-1), epsilon=Fraction(1, 10))
        for x_s in find_singular_points(f, -2.0, 2.0):
            report = analyze_singularity(ps, x_s)
            if report.sing_type not in ("type-1", "type-2"):
                continue
            slope = tangent_slope_estimate(ps, report)
            assert abs(slope - (n - 2)) <= 1e-3
