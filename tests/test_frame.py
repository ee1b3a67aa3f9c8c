"""The extended tiers' integer frame: its one rounding on vectors and its float view.

`round_frame` must give each component what mpmath's `from_man_exp` gives
at the working precision, to nearest with ties to even, and put the frame
at the frame rule's exponent: the least exponent of a component's last bit
at that precision, a zero reading -prec, at most 0.  `round_rationals`, the
one rounding of a kernel's rational result, must give what `from_rational`
gives, in the same frame.  `frame_floats`, the
state the divergence test and a stop condition see, must equal `float()` of
each component's mpf bit for bit, subnormals included, where mpmath rounds
twice.  `ScalarContext.format` must print every value as `nstr` does.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_man_exp, from_rational, round_nearest

from alf import Graph, IntegratorConfig, Perturbation, PerturbedSystem, ResponseField, ResponseFunction
from alf import integrate, plane_reduce
from alf.precision import ScalarContext, dyadic, frame_array, frame_floats, round_frame, round_rationals

PRECS = tuple(ScalarContext(digits).working_prec for digits in (32, 64))


def _bits(length: int):
    """Positive integers of exactly `length` bits."""
    return st.integers(1 << (length - 1), (1 << length) - 1)


@st.composite
def _component(draw, exp: int, prec: int) -> int:
    """One a of a frame a * 2**exp: a zero, an O(1) value, one near 2**-600, or a carry or a tie at prec bits."""
    kind = draw(st.sampled_from(["zero", "unit", "tiny", "carry", "tie", "short"]))
    if kind == "zero":
        return 0
    if kind == "unit":
        a = draw(_bits(-exp + draw(st.integers(-4, 4))))
    elif kind == "tiny":
        a = draw(_bits(-exp - 600 + draw(st.integers(-8, 8))))
    elif kind == "short":
        # already prec bits or fewer: kept as it is
        a = draw(_bits(draw(st.integers(1, prec))))
    else:
        shift = draw(st.integers(1, 300))
        if kind == "carry":
            # prec one bits, then a one above half: rounds up to 2**prec
            a = (((1 << prec) - 1) << shift) + (1 << (shift - 1)) + draw(st.integers(0, (1 << (shift - 1)) - 1))
        else:
            # exactly half an ulp above prec bits: to even
            a = (draw(_bits(prec)) << shift) + (1 << (shift - 1))
    return a * draw(st.sampled_from((1, -1)))


@st.composite
def _frames(draw):
    prec = draw(st.sampled_from(PRECS))
    exp = draw(st.integers(-1400, -700))
    accs = draw(st.lists(_component(exp, prec), min_size=1, max_size=6))
    return accs, exp, prec


def _parts(frame) -> list[tuple]:
    """The components of a frame as `_mpf_` tuples."""
    return [v._mpf_ for v in frame_array(frame)]


def _last_bit(part, prec: int) -> int:
    """The exponent of a rounded component's last bit at prec bits; a zero reads -prec."""
    sign, man, exp, bc = part
    return exp + bc - prec if man else -prec


@settings(max_examples=300, deadline=None)
@given(frame=_frames())
def test_round_frame_rounds_each_component_as_from_man_exp(frame):
    accs, exp, prec = frame
    ints, out_exp = round_frame(accs, exp, prec)
    expected = [from_man_exp(a, exp, prec, round_nearest) for a in accs]
    assert _parts((ints, out_exp)) == expected
    assert out_exp == min([0] + [_last_bit(p, prec) for p in expected])
    assert all(Fraction(a) * Fraction(2) ** out_exp == dyadic(p) for a, p in zip(ints, expected))


def test_round_frame_edge_cases():
    prec = PRECS[0]
    # a carry to 2**prec renormalizes, and the frame follows the carried value's last bit
    ints, exp = round_frame([(1 << (prec + 1)) - 1], -prec - 1, prec)
    assert _parts((ints, exp)) == [from_man_exp(1, 0, prec, round_nearest)] and exp == 1 - prec
    # 3 * 2**-600 beside 1: the frame reaches the tiny one's last bit
    ints, exp = round_frame([3 << 100, 1 << 700], -700, prec)
    assert exp == -598 - prec and ints == [3 << (prec - 2), 1 << (598 + prec)]
    # only zeros: each reads -prec
    assert round_frame([0, 0], -5, prec) == ([0, 0], -prec)


@settings(max_examples=300, deadline=None)
@given(nums=st.lists(st.one_of(st.just(0), st.integers(-2**400, 2**400)), min_size=1, max_size=5),
       den=st.one_of(st.integers(0, 1200).map(lambda k: 2**k), st.integers(3, 2**300).filter(lambda d: d & (d - 1))),
       prec=st.sampled_from(PRECS))
def test_round_rationals_rounds_each_ratio_once_into_one_frame(nums, den, prec):
    # a power-of-two den is a frame to round; any other den rounds each ratio alone, as `round_ratio` and
    # mpmath's from_rational do, and the frame follows the rounded values
    frame = round_rationals(nums, den, prec)
    if not den & (den - 1):
        assert frame == round_frame(nums, 1 - den.bit_length(), prec)
    expected = [from_rational(v, den, prec, round_nearest) for v in nums]
    assert _parts(frame) == expected
    assert frame[1] == min([0] + [_last_bit(p, prec) for p in expected])


def _float_view_values():
    tie = Fraction(10**6) + Fraction(1, 2**34)
    # above a subnormal halfway point by 2**-80 of it: mpmath rounds to 53 bits onto the halfway point, then to even
    twice = Fraction(1, 2**1060) * (1 + Fraction(1, 2**15) + Fraction(1, 2**80))
    return [0, 10**6, -10**6, tie, -tie, Fraction(1, 3), -Fraction(22, 7), Fraction(3, 2**1060),
            -Fraction(1, 2**1060) * Fraction(5, 3), twice, -twice, Fraction(1, 2**1074), Fraction(2**1100)]


def test_the_double_rounding_value_separates_the_two_roundings():
    # the correctly rounded subnormal is one step above what float() of the mpf gives
    twice = _float_view_values()[9]
    ctx = ScalarContext(32)
    with ctx.workprec():
        via_mpf = float(ctx.scalar(twice))
    assert via_mpf == 2.0**-1060
    assert twice.numerator / twice.denominator == 2.0**-1060 + 2.0**-1074


@pytest.mark.parametrize("digits", (32, 64))
def test_float_view_equals_float_of_each_mpf(digits):
    values = _float_view_values()
    ctx = ScalarContext(digits)
    with ctx.workprec():
        mpfs = [ctx.scalar(v) for v in values]
        # O(1) values with every mantissa bit set
        mpfs += [mpmath.sqrt(2), -mpmath.pi / 7, mpmath.e * 10**5]
        for state in (mpfs, mpfs[::-1], mpfs[:1], mpfs[5:7], mpfs[7:12]):
            got = frame_floats(ctx.vector(state))
            assert all(type(v) is float for v in got)
            assert [v.hex() for v in got] == [float(v).hex() for v in state]


def test_a_canard_stop_condition_sees_the_floats_of_each_state():
    ex1 = ResponseFunction.from_roots([(1, 2), (-1, 2)])
    ps = plane_reduce(PerturbedSystem(Graph.complete(3), ResponseField(ex1), Perturbation.constant(-1, 3),
                                      Fraction(1, 10)), 3)
    seen = []

    def stop(t, y):
        seen.append(y)
        return abs(y[0] - y[1] / 3) > 3.0

    ctx = ScalarContext(32)
    with ctx.workprec():
        k0 = ctx.scalar(4)
    cfg = IntegratorConfig(method="rk4", dt=0.005, digits=32, stride=1)
    traj = integrate(ps, [k0 / 3, k0], (0.0, 2.0), cfg, stop_condition=stop)
    assert len(seen) == len(traj.states) - 1 == 400
    for y, state in zip(seen, traj.states[1:]):
        assert type(y) is list and all(type(v) is float for v in y)
        assert [v.hex() for v in y] == [float(v).hex() for v in state]


@pytest.mark.parametrize("digits", (32, 64))
def test_format_prints_a_tier_mpf_from_its_tuple_as_nstr_does(digits):
    # an mpf of at most working_prec bits skips nstr's copy at the working precision; a wider mpf, a float and a
    # str still take it, and every string equals nstr's of the value at the working precision
    ctx = ScalarContext(digits)

    def nstr(value):
        with mpmath.workdps(ctx.working_dps):
            return mpmath.nstr(mpmath.mpf(value), digits, min_fixed=-(10**9), max_fixed=10**9, strip_zeros=True)

    with ctx.workprec():
        tier = [ctx.scalar(v) for v in _float_view_values()]
        tier += [mpmath.sqrt(2), -mpmath.pi / 7, mpmath.e * 10**5, mpmath.mpf(0), mpmath.mpf(10)**40,
                 -mpmath.mpf(2)**-600, mpmath.mpf("inf"), mpmath.mpf("nan")]
    assert all(v._mpf_[3] <= ctx.working_prec for v in tier)
    with mpmath.workprec(4 * ctx.working_prec):
        wider = [mpmath.sqrt(3), mpmath.mpf(1) / 3 + mpmath.mpf(2)**-200]
    assert all(v._mpf_[3] > ctx.working_prec for v in wider)
    others = [1 / 3, 1e-300, -2.5, "0.1", "-1.2345678901234567890123456789012345678901234567890e-30"]
    for value in tier + wider + others:
        assert ctx.format(value) == nstr(value), value
