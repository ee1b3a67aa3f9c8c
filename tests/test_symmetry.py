from fractions import Fraction

import pytest

from alf import (
    Graph,
    Permutation,
    PermutationGroup,
    Perturbation,
    PerturbedSystem,
    ResponseField,
    ResponseFunction,
    UnsupportedSymmetryError,
    check_equivariance,
    fixed_point_space,
    integrate,
    IntegratorConfig,
    maximal_canard_certificate,
    symmetry_generated_equilibria,
    vector_field,
)
from alf.prng import SplitMix64

from conftest import random_permutation, rational_state


def _system(n, response, pert=None, eps=0):
    pert = pert if pert is not None else Perturbation.zero(n)
    return PerturbedSystem(Graph.complete(n), ResponseField(response), pert, eps)


# --- fixed-point spaces --------------------------------------------------------

def test_cyclic_group_fixes_consensus_only():
    fix = fixed_point_space(PermutationGroup.cyclic(5), 5)
    assert fix.is_consensus and fix.dimension == 1


def test_reversal_on_path_clusters():
    group = PermutationGroup((Permutation.reversal(4),))
    fix = fixed_point_space(group, 4)
    assert fix.classes == (frozenset({1, 4}), frozenset({2, 3}))
    assert fix.dimension == 2


def test_trivial_group_fixes_everything():
    fix = fixed_point_space(PermutationGroup.trivial(3), 3)
    assert fix.dimension == 3


def test_symmetric_group_fixed_space_is_consensus():
    for n in (2, 4, 7, 8):
        fix = fixed_point_space(PermutationGroup.symmetric(n), n)
        assert fix.is_consensus


# --- equivariance ---------------------------------------------------------------

def test_complete_graph_equivariance_exact(ex1_response):
    rng = SplitMix64(64)
    sys_ = _system(5, ex1_response)
    samples = [rational_state(rng, 5) for _ in range(10)]
    for _ in range(20):
        sigma = random_permutation(rng, 5)
        assert check_equivariance(sys_, sigma, samples, tol=0)


def test_path_graph_fails_equivariance():
    lap_path = Graph.path(3)
    sys_ = PerturbedSystem(
        lap_path, ResponseField(ResponseFunction.from_coeffs([0, 0, 1])), Perturbation.zero(3), 0
    )
    sigma = Permutation.transposition(3, 1, 2)
    assert not check_equivariance(sys_, sigma, [[Fraction(1), Fraction(2), Fraction(3)]], tol=1e-12)


def test_identity_is_always_a_symmetry(ex1_response):
    rng = SplitMix64(65)
    sys_ = _system(4, ex1_response, Perturbation.random_constant(4, 3, 0, 1), Fraction(1, 10))
    samples = [[rng.uniform(-1, 1) for _ in range(4)] for _ in range(5)]
    assert check_equivariance(sys_, Permutation.identity(4), samples, tol=0)


# --- sign-action equilibria -------------------------------------------------------

def test_sign_action_square_response():
    sys_ = _system(3, ResponseFunction.from_coeffs([0, 0, 1]))
    state, residual = symmetry_generated_equilibria(sys_, 2, [1, -1, 1])
    assert state == [2, -2, 2]
    assert residual == 0.0


def test_sign_action_all_plus_is_consensus(ex1_response):
    sys_ = _system(4, ex1_response)
    state, residual = symmetry_generated_equilibria(sys_, Fraction(3, 7), [1, 1, 1, 1])
    assert state == [Fraction(3, 7)] * 4
    assert residual == 0.0


def test_sign_action_mixed_signs_quartic(ex1_response):
    sys_ = _system(4, ex1_response)
    state, residual = symmetry_generated_equilibria(sys_, Fraction(7, 10), [1, -1, 1, -1])
    assert residual <= 1e-12
    # exact zero in rational arithmetic
    assert residual == 0.0


def test_sign_action_rejects_odd_response():
    sys_ = _system(3, ResponseFunction.from_coeffs([0, 0, 0, 1]))
    with pytest.raises(UnsupportedSymmetryError):
        symmetry_generated_equilibria(sys_, 1, [1, -1, 1])


# --- canard certificate ------------------------------------------------------------

def _certificate(sys_, group):
    rng = SplitMix64(90)
    samples = [rational_state(rng, sys_.n) for _ in range(5)]
    return maximal_canard_certificate(sys_, group, samples)


def test_certificate_uniform_perturbation(ex1_response):
    for n in (3, 10):
        sys_ = _system(n, ex1_response, Perturbation.constant(2, n), Fraction(1, 100))
        cert = _certificate(sys_, PermutationGroup.symmetric(n))
        assert cert.verdict


def test_certificate_fails_for_unequal_components(ex1_response):
    sys_ = _system(3, ex1_response, Perturbation.constant([1, 2, 1]), Fraction(1, 100))
    cert = _certificate(sys_, PermutationGroup.symmetric(3))
    assert not cert.perturbation_equivariant
    assert not cert.verdict


def test_certificate_fails_for_zero_perturbation(ex1_response):
    sys_ = _system(3, ex1_response, Perturbation.zero(3), Fraction(1, 100))
    cert = _certificate(sys_, PermutationGroup.symmetric(3))
    assert not cert.perturbation_nonzero
    assert not cert.verdict


def test_certificate_verdict_confirmed_by_integration(ex1_response):
    # the certified invariant line is checked by actually flowing along it
    sys_ = _system(3, ex1_response, Perturbation.constant(1, 3), Fraction(1, 50))
    cert = _certificate(sys_, PermutationGroup.symmetric(3))
    assert cert.verdict
    traj = integrate(sys_, [1.5] * 3, (0.0, 10.0), IntegratorConfig(dt=1e-3, stride=100))
    for state in traj.states:
        mean = sum(state) / 3
        assert max(abs(v - mean) for v in state) <= 1e-12


def test_certificate_requires_one_orbit(ex1_response):
    # S3 on nodes 1-3 of K4 has order 6 >= 4 but two orbits; the forcing is
    # constant on each, and the field at consensus leaves the consensus line
    sys_ = _system(4, ex1_response, Perturbation.constant([1, 1, 1, 2]), Fraction(1, 10))
    group = PermutationGroup((Permutation.transposition(4, 1, 2), Permutation.transposition(4, 2, 3)))
    cert = _certificate(sys_, group)
    assert cert.generators_commute and cert.perturbation_equivariant and cert.perturbation_nonzero
    assert not cert.fix_is_consensus
    assert not cert.verdict
    half = Fraction(1, 2)
    assert vector_field(sys_, [half] * 4) == [Fraction(1, 10)] * 3 + [Fraction(1, 5)]


def test_certificate_cyclic_group_on_cycle_confirmed_by_integration(ex1_response):
    # a transitive group that is not S_n: the rotations of a 5-cycle
    sys_ = PerturbedSystem(Graph.cycle(5), ResponseField(ex1_response), Perturbation.constant(-1, 5),
                           Fraction(1, 50))
    cert = _certificate(sys_, PermutationGroup.cyclic(5))
    assert cert.verdict
    traj = integrate(sys_, [0.5] * 5, (0.0, 10.0), IntegratorConfig(dt=1e-3, stride=100))
    for state in traj.states:
        mean = sum(state) / 5
        assert max(abs(v - mean) for v in state) <= 1e-12
    assert abs(traj.states[-1][0] - 0.5) > 0.1  # the run moved along the line


def test_certificate_forcing_checks_are_exact(ex1_response):
    # a forcing below any tolerance is still nonzero, and an unequal one
    # breaks equivariance however small the difference
    tiny = _system(3, ex1_response, Perturbation.constant(1e-13, 3), Fraction(1, 100))
    assert _certificate(tiny, PermutationGroup.symmetric(3)).verdict
    skew = _system(3, ex1_response, Perturbation.constant([1, 1, 1 + 1e-13]), Fraction(1, 100))
    cert = _certificate(skew, PermutationGroup.symmetric(3))
    assert not cert.perturbation_equivariant and not cert.verdict
