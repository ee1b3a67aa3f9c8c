"""Each precision tier's right-hand side against exact rational arithmetic.

States are dyadic rationals in [-2, 2], exactly representable in every tier,
so a tier differs from the exact value only by the roundings of its own
arithmetic.  The tolerances are fixed from the sizes involved, not fitted:
with |x| <= 2 every response value, Laplacian term and partial row sum below
stays under 2**7, where a tier of d digits rounds by less than 10**(3 - d);
the tolerance 10**(5 - d) leaves room for the few dozen roundings of one
component.
"""

from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alf import Graph, Perturbation, PerturbedSystem, ResponseField, ResponseFunction
from alf import plane_reduce, to_standard_form, vector_field
from alf.dynamics import state_size
from alf.precision import ScalarContext, frame_array

TIERS = (16, 32, 64)
TOL = {digits: Fraction(1, 10 ** (digits - 5)) for digits in TIERS}

# weighted graph with missing edges, so the Laplacian rows have zeros
_GRAPH = Graph.from_edge_list(5, [(1, 2, 1.5), (2, 3, 2.0), (3, 4, 0.5), (4, 5, 3.0), (1, 5, 1.0), (2, 4, 2.5)])
_FULL = PerturbedSystem(
    _GRAPH,
    ResponseField(ResponseFunction.from_coeffs([0.1, -1.0, 0.0, 1.0])),
    Perturbation.constant([0.3, -0.2, 0.1, -0.4, 0.25]),
    0.1,
)
_EX1 = ResponseFunction.from_roots([(1, 2), (-1, 2)])
_PLANE = plane_reduce(
    PerturbedSystem(Graph.complete(3), ResponseField(_EX1), Perturbation.constant(-1.0, 3), 0.1), 3
)

_DYADIC = st.integers(-256, 256).map(lambda i: Fraction(i, 128))


def _exact(v) -> Fraction:
    """The rational value of a float or an mpf, without rounding."""
    if isinstance(v, mpmath.mpf):
        sign, man, exp, _ = v._mpf_
        value = Fraction(int(man)) * Fraction(2) ** exp
        return -value if sign else value
    return Fraction(float(v))


def _tier_rhs(system, digits: int, y) -> list[Fraction]:
    ctx = ScalarContext(digits)
    with ctx.workprec():
        out = system.rhs_function(ctx)(ctx.vector(y))
    return [_exact(v) for v in (out if ctx.is_float else frame_array(out))]


def _assert_close(system, y, expected) -> None:
    for digits in TIERS:
        got = _tier_rhs(system, digits, y)
        assert len(got) == len(expected)
        worst = max(abs(a - b) for a, b in zip(got, expected))
        assert worst <= TOL[digits], (digits, float(worst))


@settings(max_examples=40, deadline=None)
@given(x=st.lists(_DYADIC, min_size=5, max_size=5))
def test_full_system_tiers_match_exact_vector_field(x):
    _assert_close(_FULL, x, vector_field(_FULL, x))


@settings(max_examples=40, deadline=None)
@given(x=st.lists(_DYADIC, min_size=5, max_size=5), l=st.integers(1, 5))
def test_standard_form_tiers_match_lifted_exact_field(x, l):
    std = to_standard_form(_FULL, l)
    fast, k = std.project(x)
    exact_field = vector_field(_FULL, std.lift(fast, k))
    drift = _FULL.epsilon * sum(_FULL.perturbation.values)
    expected = [exact_field[j - 1] for j in std.kept] + [drift]
    _assert_close(std, fast + [k], expected)


@settings(max_examples=40, deadline=None)
@given(x=_DYADIC, mirror=_DYADIC)
def test_plane_tiers_match_exact_reduced_flow(x, mirror):
    n, f, eps = _PLANE.n, _PLANE.f, _PLANE.epsilon
    k = mirror + (n - 1) * x
    fast = -(f.eval(x) - f.eval(k - (n - 1) * x)) + eps * _PLANE.g
    slow = eps * ((n - 1) * _PLANE.g + _PLANE.g_tilde)
    _assert_close(_PLANE, [x, k], [fast, slow])


@pytest.mark.parametrize("digits", TIERS)
def test_each_tier_has_one_vector_type(digits):
    # float arrays in and out of every kernel on the 16-digit tier; on the extended tiers a bare frame
    # (ints, exp), a plain tuple, in and out of every kernel
    ctx = ScalarContext(digits)
    with ctx.workprec():
        for system in (_FULL, to_standard_form(_FULL, 2), _PLANE):
            y = ctx.vector([Fraction(i + 1, 4) for i in range(state_size(system))])
            out = system.rhs_function(ctx)(y)
            if ctx.is_float:
                assert type(y) is np.ndarray and type(out) is np.ndarray
                assert len(out) == len(y) == state_size(system)
                continue
            assert type(y) is tuple and type(out) is tuple
            (ints, exp), (out_ints, out_exp) = y, out
            assert type(exp) is int and type(out_exp) is int and exp <= 0 and out_exp <= 0
            assert all(type(a) is int for a in ints + out_ints)
            assert len(out_ints) == len(ints) == state_size(system)
