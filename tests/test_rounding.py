"""Every component of the 32- and 64-digit kernels is the correctly rounded exact value.

The oracle is `fraction_reference`: the same tier inputs (state and
constants as the tier holds them) in exact rational arithmetic, rounded once
with mpmath's `from_rational` to nearest, ties to even.  States are dyadic
rationals, which every tier holds exactly, or arbitrary Fractions, which the
tier rounds first.  The systems cover the full flow (a dyadic-weight graph
with missing edges; a graph with non-dyadic weights, whose rounded rows do
not sum to zero, with and without mean gauges), its standard forms and two
plane reductions; the rk4 checks take one fused stage input and the final
update of a step, the dp45 checks every stage input, the fifth-order
solution and the error estimate, also on states that mix an exact zero,
components near 2**-600 and O(1) ones.  `round_frame`, the one rounding of
every kernel, is checked on one component against mpmath's `from_man_exp`
directly.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st
from mpmath.libmp import MPZ, from_man_exp, round_nearest

from alf import Graph, Perturbation, PerturbedSystem, ResponseField, ResponseFunction
from alf import gauge_shift, plane_reduce, to_standard_form
from alf.dynamics import _dp45_fixed_stages, _fixed_rk4_dt, _rk4_step, state_size
from alf.precision import frame_array, round_frame
from alf.slowfast import PlaneSystem

from conftest import dense_laplacian
from fraction_reference import _A, _B4, _B5, Tier, value

TIERS = {digits: Tier(digits) for digits in (32, 64)}

# weighted graph with missing edges and a coefficient-form response
_DYADIC = PerturbedSystem(
    Graph.from_edge_list(5, [(1, 2, 1.5), (2, 3, 2.0), (3, 4, 0.5), (4, 5, 3.0), (1, 5, 1.0), (2, 4, 2.5)]),
    ResponseField(ResponseFunction.from_coeffs([0.1, -1.0, 0.0, 1.0])),
    Perturbation.constant([0.3, -0.2, 0.1, -0.4, 0.25]),
    0.1,
)
# non-dyadic weights, roots and forcing: every constant is rounded by the tier
_RATIONAL = PerturbedSystem(
    Graph(4, ((1, 2, Fraction(1, 3)), (1, 3, Fraction(2, 7)), (2, 3, Fraction(3, 10)), (3, 4, Fraction(5, 11)),
              (1, 4, Fraction(1, 6)))),
    ResponseField(ResponseFunction.from_roots([(Fraction(1, 3), 2), (Fraction(-5, 2), 1)], scale=Fraction(3, 7))),
    Perturbation.constant([Fraction(1, 3), Fraction(-2, 9), Fraction(1, 10), Fraction(-4, 7)]),
    Fraction(1, 30),
)
_GAUGED = PerturbedSystem(
    _RATIONAL.graph,
    gauge_shift(gauge_shift(_RATIONAL.field, ResponseFunction.from_coeffs([Fraction(1, 3), 2, -1])),
                ResponseFunction.from_roots([(Fraction(2, 3), 1), (-1, 2)], scale=Fraction(1, 5))),
    _RATIONAL.perturbation,
    _RATIONAL.epsilon,
)
FULL = {"dyadic": _DYADIC, "rational": _RATIONAL, "gauged": _GAUGED}

_EX1 = ResponseFunction.from_roots([(1, 2), (-1, 2)])
PLANES = {
    "ex1": plane_reduce(PerturbedSystem(Graph.complete(3), ResponseField(_EX1), Perturbation.constant(-1.0, 3), 0.1), 3),
    "rational": PlaneSystem(4, _RATIONAL.field.function, Fraction(1, 7), Fraction(-2, 3), Fraction(1, 30)),
}

_STATE = st.one_of(
    st.integers(-256, 256).map(lambda i: Fraction(i, 128)),
    st.fractions(min_value=-2, max_value=2, max_denominator=1000),
)
_TINY = st.builds(lambda m, sign: sign * Fraction(m, 2**620), st.integers(1, 2**20), st.sampled_from((1, -1)))


@st.composite
def _mixed_states(draw, n: int) -> list:
    """n components taken from an exact zero, one near 2**-600, one of O(1) and more of either kind, shuffled."""
    y = [Fraction(0), draw(_TINY), draw(_STATE.filter(bool))]
    y += draw(st.lists(st.one_of(_TINY, _STATE), min_size=max(0, n - 3), max_size=max(0, n - 3)))
    return draw(st.permutations(y))[:n]


def _parts(frame) -> list[tuple]:
    """The components of a frame as `_mpf_` tuples."""
    return [v._mpf_ for v in frame_array(frame)]


def rhs_pairs(system, digits: int, y) -> list[tuple]:
    """(alf's component, the correctly rounded reference) for each component of the RHS at y."""
    tier = TIERS[digits]
    ctx = tier.ctx
    with ctx.workprec():
        state = ctx.vector(y)
        got = _parts(system.rhs_function(ctx)(state))
    expected = tier.rhs(system)([value(p) for p in _parts(state)])
    return list(zip(got, (tier.raw(q) for q in expected)))


def rk4_pairs(system, digits: int, y, dt: Fraction) -> list[tuple]:
    """(alf's, reference) for each component of the second stage input and of the update of one step."""
    tier = TIERS[digits]
    ctx = tier.ctx
    seen, outputs = [], []
    with ctx.workprec():
        rhs = system.rhs_function(ctx)

        def recording(v):
            seen.append(v)
            outputs.append(rhs(v))
            return outputs[-1]

        state = ctx.vector(y)
        h = ctx.scalar(dt)
        new = _rk4_step(recording, state, _fixed_rk4_dt(h))
    y0 = [value(p) for p in _parts(state)]
    k1, k2, k3, k4 = ([value(p) for p in _parts(out)] for out in outputs)
    h = value(h)
    half, sixth = tier.round(h / 2), tier.round(h / 6)
    stage = [a + b * half for a, b in zip(y0, k1)]
    update = [a + (b1 + 2 * b2 + 2 * b3 + b4) * sixth for a, b1, b2, b3, b4 in zip(y0, k1, k2, k3, k4)]
    return list(zip(_parts(seen[1]) + _parts(new), [tier.raw(q) for q in stage + update]))


def dp45_pairs(system, digits: int, y, dt: Fraction) -> list[tuple]:
    """(alf's, reference) for each component of every stage input, the fifth-order solution and the error estimate.

    The reference sums the stages alf computed with dt times each tableau
    entry rounded to the tier, and rounds each sum once.
    """
    tier = TIERS[digits]
    ctx = tier.ctx
    seen = []
    with ctx.workprec():
        rhs = system.rhs_function(ctx)

        def recording(v):
            seen.append(v)
            return rhs(v)

        state = ctx.vector(y)
        h = ctx.scalar(dt)
        ks, y5, delta = _dp45_fixed_stages(recording, state, rhs(state), h)
    y0 = [value(p) for p in _parts(state)]
    k = [[value(p) for p in _parts(v)] for v in ks]
    h = value(h)

    def summed(base, weights):
        coeffs = [tier.round(h * w) for w in weights]
        return [tier.raw(b + sum(c * kj[i] for c, kj in zip(coeffs, k))) for i, b in enumerate(base)]

    pairs = []
    for stage, row in zip(seen, _A[1:]):
        pairs += zip(_parts(stage), summed(y0, row))
    pairs += zip(_parts(y5), summed(y0, _B5))
    pairs += zip(_parts(delta), summed([0] * len(y0), [b5 - b4 for b5, b4 in zip(_B5, _B4)]))
    return pairs


def _assert_all_equal(pairs) -> None:
    bad = [(got, want) for got, want in pairs if got != want]
    assert not bad, bad[:3]


def test_the_rational_graph_has_rows_whose_rounded_weights_do_not_cancel():
    # otherwise the gauged system would not reach the gauge arithmetic
    for tier in TIERS.values():
        rows = [[tier.const(w) for w in row] for row in dense_laplacian(_RATIONAL.graph)]
        assert any(sum(row) != 0 for row in rows)


@settings(max_examples=30, deadline=None)
@given(system=st.sampled_from(sorted(FULL)), digits=st.sampled_from(sorted(TIERS)), data=st.data())
def test_full_system_components_are_correctly_rounded(system, digits, data):
    sys_ = FULL[system]
    y = data.draw(st.lists(_STATE, min_size=sys_.n, max_size=sys_.n))
    _assert_all_equal(rhs_pairs(sys_, digits, y))


@settings(max_examples=30, deadline=None)
@given(system=st.sampled_from(sorted(FULL)), digits=st.sampled_from(sorted(TIERS)), data=st.data())
def test_standard_form_components_are_correctly_rounded(system, digits, data):
    sys_ = FULL[system]
    std = to_standard_form(sys_, data.draw(st.integers(1, sys_.n)))
    y = data.draw(st.lists(_STATE, min_size=sys_.n, max_size=sys_.n))
    _assert_all_equal(rhs_pairs(std, digits, y))


@settings(max_examples=30, deadline=None)
@given(plane=st.sampled_from(sorted(PLANES)), digits=st.sampled_from(sorted(TIERS)), x=_STATE, k=_STATE)
def test_plane_components_are_correctly_rounded(plane, digits, x, k):
    _assert_all_equal(rhs_pairs(PLANES[plane], digits, [x, 2 * k]))


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["full", "plane"]), digits=st.sampled_from(sorted(TIERS)), data=st.data(),
       dt=st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(1, 10), max_denominator=1000))
def test_rk4_stage_and_update_are_correctly_rounded(kind, digits, data, dt):
    system = _GAUGED if kind == "full" else PLANES["rational"]
    n = state_size(system)
    y = data.draw(st.lists(_STATE, min_size=n, max_size=n))
    _assert_all_equal(rk4_pairs(system, digits, y, dt))


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["full", "plane"]), digits=st.sampled_from(sorted(TIERS)), data=st.data(),
       dt=st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(1, 10), max_denominator=1000))
def test_rk4_stage_and_update_are_correctly_rounded_on_mixed_magnitudes(kind, digits, data, dt):
    system = _GAUGED if kind == "full" else PLANES["rational"]
    _assert_all_equal(rk4_pairs(system, digits, data.draw(_mixed_states(state_size(system))), dt))


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["dyadic", "gauged", "standard", "plane"]), digits=st.sampled_from(sorted(TIERS)),
       mixed=st.booleans(), data=st.data(),
       dt=st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(1, 10), max_denominator=1000))
def test_dp45_stages_solution_and_error_are_correctly_rounded(kind, digits, mixed, data, dt):
    system = {"dyadic": _DYADIC, "gauged": _GAUGED, "standard": to_standard_form(_RATIONAL, 2),
              "plane": PLANES["ex1"]}[kind]
    n = state_size(system)
    y = data.draw(_mixed_states(n) if mixed else st.lists(_STATE, min_size=n, max_size=n))
    _assert_all_equal(dp45_pairs(system, digits, y, dt))


# --- one-component round_frame against mpmath's from_man_exp ----------------------

PRECS = sorted({tier.ctx.working_prec for tier in TIERS.values()})


def _assert_rounds_as_mpmath(a: int, exp: int, prec: int) -> None:
    (got,) = _parts(round_frame([a], exp, prec))
    assert got == from_man_exp(a, exp, prec, round_nearest), (a, exp, prec)
    assert type(got[1]) is MPZ


@settings(max_examples=400, deadline=None)
@given(data=st.data(), prec=st.sampled_from(PRECS), exp=st.integers(-600, 50))
def test_one_component_round_frame_equals_from_man_exp(data, prec, exp):
    # a of every length up to 4 prec bits: shorter than prec, exactly prec, and with up to 3 prec bits to round
    # off; below its top bit, hypothesis's integers (mostly small) or uniformly random bits
    bits = data.draw(st.integers(1, 4 * prec))
    below = st.randoms(use_true_random=False).map(lambda r: r.getrandbits(bits - 1))
    a = 1 << (bits - 1) | data.draw(st.one_of(st.integers(0, 2 ** (bits - 1) - 1), below))
    shift = bits - prec
    if shift > 0 and data.draw(st.booleans()):
        # an exact tie: the bits below the last kept one read 100...0
        a = a >> shift << shift | 1 << (shift - 1)
    _assert_rounds_as_mpmath(data.draw(st.sampled_from((1, -1))) * a, exp, prec)


def test_one_component_round_frame_edge_cases():
    for prec in PRECS:
        odd = (1 << prec) - 1  # prec ones
        even = (1 << prec) - 2
        cases = [
            0,
            (odd << 1) + 1,  # a tie on the all-ones quotient rounds up: a carry to 2**prec
            (even << 1) + 1,  # exact tie, even quotient: stays
            (((1 << (prec - 1)) + 1) << 1) + 1,  # exact tie, odd quotient: rounds up
            (odd << 5) + (1 << 4),  # a tie five bits down, odd quotient
            (even << 5) + (1 << 4),  # a tie five bits down, even quotient
            (even << 5) + (1 << 4) + 1,  # just above that tie
            (odd << 5) + (1 << 4) - 1,  # just below a tie
            3 << 40,  # shorter than prec, with trailing zeros
            1 << (prec + 7),
            ((1 << (prec - 3)) + 1) << 9,
        ]
        for a in cases:
            for sign in (1, -1):
                for exp in (-600, -prec, 0, 50):
                    _assert_rounds_as_mpmath(sign * a, exp, prec)
