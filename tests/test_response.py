from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alf import (
    Graph,
    Perturbation,
    PerturbedSystem,
    PreconditionError,
    ResponseField,
    ResponseFunction,
    gauge_shift,
    vector_field,
)
from alf.prng import SplitMix64

from conftest import rational_state


def test_expansion_matches_direct_coefficients(ex1_response):
    # oracle: (x^2-1)^2 = x^4 - 2x^2 + 1 expanded by hand
    assert ex1_response.coeffs == (1, 0, -2, 0, 1)


def test_eval_at_roots_and_off_roots(ex1_response):
    assert ex1_response.eval(1) == 0
    assert ex1_response.eval(-1) == 0
    assert ex1_response.eval(0) == 1
    square = ResponseFunction.from_coeffs([0, 0, 1])
    assert square.eval(-2) == 4


def test_factored_and_expanded_forms_agree(ex1_response):
    rng = SplitMix64(31)
    for _ in range(100):
        x = rng.uniform(-3, 3)
        a, b = ex1_response.eval(x), ResponseFunction(ex1_response.coeffs).eval(x)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_derivative_exact_coefficients(ex1_response):
    assert ex1_response.derivative().coeffs == (0, -4, 0, 4)  # 4x^3 - 4x
    assert ex1_response.derivative(2).coeffs == (-4, 0, 12)  # 12x^2 - 4
    assert ResponseFunction.from_coeffs([7]).derivative().coeffs == (0,)


@pytest.mark.parametrize("coeffs", [[7], [2, -3], [1, 0, -2, 0, 1], [5, -1, 3, 2, -4, 1, 6]],
                         ids=["constant", "linear", "ex1", "degree6"])
def test_derivatives_built_once_with_exact_coefficients(coeffs):
    f = ResponseFunction.from_coeffs(coeffs)
    expected = [Fraction(c) for c in coeffs]
    for order in range(1, 5):
        # reference: differentiate the coefficient list once per order
        expected = [k * expected[k] for k in range(1, len(expected))] or [Fraction(0)]
        assert f.derivative(order).coeffs == tuple(expected)
        assert f.derivative(order) is f.derivative(order)


def test_second_derivative_composes():
    rng = SplitMix64(8)
    for _ in range(20):
        coeffs = [Fraction(rng.next_u64() % 19 - 9) for _ in range(rng.next_u64() % 6 + 1)]
        f = ResponseFunction.from_coeffs(coeffs)
        assert f.derivative().derivative().coeffs == f.derivative(2).coeffs


@settings(max_examples=100, deadline=None)
@given(
    coeffs=st.lists(st.integers(-9, 9), min_size=1, max_size=7),
    x=st.floats(-2, 2, allow_nan=False),
)
def test_derivative_matches_finite_differences(coeffs, x):
    f = ResponseFunction.from_coeffs(coeffs)
    h = 1e-6
    fd = (f.eval(x + h) - f.eval(x - h)) / (2 * h)
    exact_val = f.derivative().eval(x)
    assert abs(fd - exact_val) <= 1e-6 * (1 + abs(exact_val)) + 1e-5


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(st.integers(-5, 5), min_size=1, max_size=6),
    xn=st.integers(-6, 6),
    yn=st.integers(-6, 6),
)
def test_binomial_expansion_identity(coeffs, xn, yn):
    # f(x+y) - f(x) equals the double sum of binomial cross terms, exactly
    f = ResponseFunction.from_coeffs(coeffs)
    x, y = Fraction(xn, 3), Fraction(yn, 5)
    lhs = f.eval(x + y) - f.eval(x)
    rhs = Fraction(0)
    for j, a in enumerate(f.coeffs):
        for k in range(1, j + 1):
            rhs += comb(j, k) * a * y**k * x ** (j - k)
    assert lhs == rhs


def test_is_even():
    assert ResponseFunction.from_coeffs([0, 0, 1]).is_even()
    assert ResponseFunction.from_roots([(1, 2), (-1, 2)]).is_even()
    assert not ResponseFunction.family("ex3a", Fraction(1, 2)).is_even()
    assert ResponseFunction.family("ex3b", Fraction(1, 2)).is_even()


def test_family_forms():
    lam = Fraction(1, 2)
    a = ResponseFunction.family("ex3a", lam)
    # (x - lam)(x + lam)^2 at x=1: (1/2)(3/2)^2 = 9/8
    assert a.eval(1) == Fraction(9, 8)
    b = ResponseFunction.family("ex3b", 1)
    assert b.coeffs == ResponseFunction.from_roots([(1, 2), (-1, 2)]).coeffs
    with pytest.raises(PreconditionError):
        ResponseFunction.family("nope", 1)


def _k3_system(field: ResponseField) -> PerturbedSystem:
    return PerturbedSystem(Graph.complete(3), field, Perturbation.zero(3), 0)


def test_gauge_shift_identity(ex1_field):
    shifted = gauge_shift(ex1_field, ResponseFunction.from_coeffs([0]))
    rng = SplitMix64(77)
    x = rational_state(rng, 3)
    assert shifted.mean_gauges == (ResponseFunction.from_coeffs([0]),)
    assert vector_field(_k3_system(ex1_field), x) == vector_field(_k3_system(shifted), x)


def test_gauge_shift_constant_leaves_flow_unchanged(ex1_field):
    shifted = gauge_shift(ex1_field, ResponseFunction.from_coeffs([Fraction(5, 3)]))
    rng = SplitMix64(78)
    for _ in range(25):
        x = rational_state(rng, 3)
        assert vector_field(_k3_system(ex1_field), x) == vector_field(_k3_system(shifted), x)


def test_gauge_shift_mean_state():
    base = ResponseField(ResponseFunction.from_coeffs([0, 0, 1]))
    shifted = gauge_shift(base, ResponseFunction.linear())  # h = mean(x)
    rng = SplitMix64(79)
    for _ in range(100):
        x = [rng.uniform(-2, 2) for _ in range(3)]
        lhs = vector_field(_k3_system(base), x)
        rhs = vector_field(_k3_system(shifted), x)
        assert max(abs(a - b) for a, b in zip(lhs, rhs)) <= 1e-12


def test_response_field_refuses_non_polynomials(ex1_response):
    import math

    from alf import UnsupportedStructureError

    # a callback has no exact coefficients: no derivative for the analyses,
    # and no correctly rounded value on the extended tiers
    with pytest.raises(UnsupportedStructureError):
        ResponseField(math.tanh)
    with pytest.raises(UnsupportedStructureError):
        ResponseField(ex1_response, (math.tanh,))


# --- tier evaluators ------------------------------------------------------------

_EVALUATOR_CASES = {
    "roots": ResponseFunction.from_roots([(1, 2), (-1, 2)], scale=Fraction(3, 7)),
    "roots-odd": ResponseFunction.from_roots([(Fraction(1, 3), 1), (Fraction(-5, 2), 3)]),
    "coeffs": ResponseFunction.from_coeffs([Fraction(1, 10), -1, 0, Fraction(7, 3), Fraction(-2, 9)]),
    "constant": ResponseFunction.from_coeffs([Fraction(5, 3)]),
    "ex3a": ResponseFunction.family("ex3a", Fraction(3, 4)),
    "ex3b": ResponseFunction.family("ex3b", 1.3),
}


def _float_reference(f: ResponseFunction, x: float) -> float:
    """f at x in the float operations of its form, one at a time: the scale times each factor, or Horner."""
    if f.roots is not None:
        acc = float(f.scale)
        for r, mult in f.roots:
            for _ in range(mult):
                acc = acc * (x - float(r))
        return acc
    acc = float(f.coeffs[-1])
    for c in reversed(f.coeffs[:-1]):
        acc = acc * x + float(c)
    return acc


@pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
def test_eval_of_a_float_array_is_an_array_of_its_shape(shape):
    # a constant, a root-form and a coefficient-form response; each element has the evaluator's bits
    rng = SplitMix64(len(shape) + 90)
    x = np.array([rng.uniform(-3, 3) for _ in range(int(np.prod(shape)))]).reshape(shape)
    for f in (ResponseFunction.from_coeffs([Fraction(-5, 2)]), ResponseFunction.from_roots([(1, 2), (Fraction(-1, 3), 1)]),
              ResponseFunction.from_coeffs([1, Fraction(-3, 4), 0, 2])):
        got = f.eval(x)
        assert type(got) is np.ndarray and got.dtype == float and got.shape == shape
        assert [repr(v) for v in got.ravel().tolist()] == [repr(float(f.evaluator(v))) for v in x.ravel().tolist()]
        if f.degree == 0:
            assert (got == -2.5).all()


@pytest.mark.parametrize("digits", (16, 32, 64))
@pytest.mark.parametrize("case", sorted(_EVALUATOR_CASES))
def test_evaluator_equals_eval_bit_for_bit(case, digits):
    # floats (numpy floats and arrays included) take the float evaluator; an mpf
    # gets the exact value with the constants rounded to the tier, rounded once
    from alf.precision import ScalarContext

    from fraction_reference import Tier, value

    f = _EVALUATOR_CASES[case]
    expanded = ResponseFunction(f.coeffs)
    ctx = ScalarContext(digits)
    rng = SplitMix64(digits + len(case))
    with ctx.workprec():
        xs = [ctx.scalar(rational_state(rng, 1)[0] * 2) for _ in range(60)]
        if ctx.is_float:
            for x in xs:
                want = _float_reference(f, x)
                assert f.evaluator(x) == f.eval(x) == f.eval(np.float64(x)) == want
                assert type(f.eval(x)) is type(want)
                horner = _float_reference(expanded, x)
                assert expanded.evaluator(x) == expanded.eval(x) == expanded.eval(np.float64(x)) == horner
                assert type(expanded.eval(x)) is type(horner)
            assert f.eval(np.array(xs)).tolist() == [f.eval(x) for x in xs]
        else:
            tier = Tier(digits)
            factored, coefficients = tier.poly(f), tier.poly(expanded)
            for x in xs:
                assert f.eval(x)._mpf_ == tier.raw(factored(value(x)))
                assert expanded.eval(x)._mpf_ == tier.raw(coefficients(value(x)))


def _mpf_loop(f: ResponseFunction, x):
    """f at mpf x in mpf operations of its form, one at a time."""
    import mpmath

    def const(c):
        return mpmath.mpf(c.numerator) / c.denominator

    if f.roots is not None:
        acc = const(f.scale)
        for r, mult in f.roots:
            for _ in range(mult):
                acc = acc * (x - const(r))
        return acc
    acc = const(f.coeffs[-1])
    for c in reversed(f.coeffs[:-1]):
        acc = acc * x + const(c)
    return acc


@pytest.mark.parametrize("digits", (32, 64))
@pytest.mark.parametrize("case", sorted(_EVALUATOR_CASES))
def test_eval_of_non_finite_mpf_follows_mpf_arithmetic(case, digits):
    # NaN and the infinities are not read as 0: both forms give what mpf arithmetic gives
    import mpmath

    from alf.precision import ScalarContext

    f = _EVALUATOR_CASES[case]
    with ScalarContext(digits).workprec():
        for form in (f, ResponseFunction(f.coeffs)):
            for text in ("nan", "inf", "-inf"):
                x = mpmath.mpf(text)
                got, want = form.eval(x), _mpf_loop(form, x)
                assert isinstance(got, mpmath.mpf)
                assert (mpmath.isnan(got) and mpmath.isnan(want)) or got == want


def test_vector_field_of_an_mpf_state_with_nan_is_nan(ex1_response):
    import mpmath

    sys_ = PerturbedSystem(Graph.complete(3), ResponseField(ex1_response), Perturbation.zero(3), 0)
    with mpmath.workdps(35):
        out = vector_field(sys_, [mpmath.mpf("nan"), mpmath.mpf(0), mpmath.mpf(1)])
    assert all(mpmath.isnan(v) for v in out)


# --- the integer routine ----------------------------------------------------------

_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=40)
_NONZERO = _RATIONALS.filter(lambda q: q != 0)
_FORMS = st.one_of(
    st.builds(ResponseFunction.from_roots, st.lists(st.tuples(_RATIONALS, st.integers(1, 3)), max_size=3), _NONZERO),
    st.builds(ResponseFunction.from_coeffs, st.lists(_RATIONALS, min_size=1, max_size=5)),
)


def _reference(f: ResponseFunction, const):
    """f in the form `eval` uses, in Fraction arithmetic, on the constants `const` gives."""
    if f.roots is not None:
        scale, roots = const(f.scale), [(const(r), m) for r, m in f.roots]

        def factored(x):
            acc = scale
            for r, m in roots:
                acc *= (x - r) ** m
            return acc

        return factored
    coeffs = [const(c) for c in f.coeffs]
    return lambda x: sum((c * x**k for k, c in enumerate(coeffs)), Fraction(0))


def _rounded_to(prec):
    """A constant rounded once to prec bits, to nearest with ties to even, as an exact value."""
    from mpmath.libmp import from_rational, round_nearest

    from fraction_reference import value

    return lambda q: value(from_rational(q.numerator, q.denominator, prec, round_nearest))


@settings(max_examples=150, deadline=None)
@given(f=_FORMS, xs=st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=4),
       d=st.one_of(st.integers(0, 90).map(lambda k: 2**k), st.integers(1, 10**9)),
       prec=st.sampled_from((None, 53, 113, 226)))
def test_integer_evaluator_equals_fraction_arithmetic(f, xs, d, prec):
    # both forms, with non-dyadic constants; dyadic and non-dyadic d; constants exact or rounded to prec
    for form in (f, ResponseFunction(f.coeffs)):
        values, den = form.integer_evaluator(prec)(xs, d)
        assert form.integer_evaluator(prec) is form.integer_evaluator(prec)
        ref = _reference(form, (lambda q: q) if prec is None else _rounded_to(prec))
        assert [Fraction(v, den) for v in values] == [ref(Fraction(x, d)) for x in xs]
        if prec is not None and d & (d - 1) == 0:
            # dyadic constants over a dyadic d: the tier callers read den as a power of two
            assert den & (den - 1) == 0


@pytest.mark.parametrize("prec", (53, 113))
def test_integer_evaluator_of_a_factored_form_expands_its_rounded_constants(prec):
    # scale and roots that round at the tier: the routine's values are the factored loop on the rounded constants,
    # and at some point they are not Horner on the rounded expanded coefficients
    f = ResponseFunction.from_roots([(Fraction(1, 3), 2), (Fraction(-1, 7), 1)], scale=Fraction(1, 5))
    factored = _reference(f, _rounded_to(prec))
    expanded = _reference(ResponseFunction(f.coeffs), _rounded_to(prec))
    rng = SplitMix64(prec)
    for d in (2**30, 3 * 2**10):
        xs = [int(rng.uniform(-2, 2) * d) for _ in range(20)]
        values, den = f.integer_evaluator(prec)(xs, d)
        got = [Fraction(v, den) for v in values]
        assert got == [factored(Fraction(x, d)) for x in xs]
        assert got != [expanded(Fraction(x, d)) for x in xs]


@settings(max_examples=150, deadline=None)
@given(f=_FORMS, x=st.one_of(st.integers(-10**12, 10**12), _RATIONALS, st.fractions(max_denominator=10**15)))
def test_eval_of_ints_and_fractions_is_fraction_arithmetic(f, x):
    # exact values take the integer routine on exact constants: the Fraction value of the form, as a Fraction
    for form in (f, ResponseFunction(f.coeffs)):
        got = form.eval(x)
        assert type(got) is Fraction and got == _reference(form, lambda q: q)(Fraction(x))


@settings(max_examples=150, deadline=None)
@given(f=_FORMS, m=st.integers(-2**80, 2**80), e=st.integers(-120, 120), prec=st.sampled_from((53, 113, 226)))
def test_eval_of_an_mpf_is_the_exact_value_rounded_once(f, m, e, prec):
    # states with a positive exponent included: the mpf is read exactly, the constants rounded to the precision
    import mpmath
    from mpmath.libmp import from_rational, round_nearest

    from fraction_reference import value

    with mpmath.workprec(prec):
        x = mpmath.mpf((m, e))
        for form in (f, ResponseFunction(f.coeffs)):
            want = _reference(form, _rounded_to(prec))(value(x))
            assert form.eval(x)._mpf_ == from_rational(want.numerator, want.denominator, prec, round_nearest)
