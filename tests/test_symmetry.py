from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from alf import (
    DimensionMismatchError,
    Graph,
    Permutation,
    PermutationGroup,
    Perturbation,
    PreconditionError,
    PerturbedSystem,
    ResponseField,
    ResponseFunction,
    UnsupportedSymmetryError,
    check_equivariance,
    gauge_shift,
    integrate,
    IntegratorConfig,
    InvariantViolationError,
    maximal_canard_certificate,
    symmetry_generated_equilibria,
    vector_field,
)
from alf import symmetry
from alf.prng import SplitMix64

from conftest import graph_with_automorphism, graph_with_isolated_nodes, random_permutation, rational, rational_state


def _system(n, response, pert=None, eps=0):
    pert = pert if pert is not None else Perturbation.zero(n)
    return PerturbedSystem(Graph.complete(n), ResponseField(response), pert, eps)


# --- fixed-point partitions ----------------------------------------------------

def test_cyclic_group_fixes_consensus_only():
    assert PermutationGroup.cyclic(5).orbits() == [frozenset(range(1, 6))]


def test_reversal_on_path_clusters():
    group = PermutationGroup((Permutation.reversal(4),))
    assert group.orbits() == [frozenset({1, 4}), frozenset({2, 3})]


def test_trivial_group_fixes_everything():
    assert len(PermutationGroup.trivial(3).orbits()) == 3


def test_symmetric_group_fixed_space_is_consensus():
    for n in (2, 4, 7, 8):
        assert len(PermutationGroup.symmetric(n).orbits()) == 1


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


def _sampled_equivariance(sys_, p, samples) -> bool:
    """Whether V(P x) == P V(x) exactly at every sample (the sampled reference)."""
    return all(p.apply(vector_field(sys_, x)) == vector_field(sys_, p.apply(x)) for x in samples)


def _random_system(rng, n, p, automorphic, constant, eps, gauged):
    """A seeded system on n nodes: the graph has p as an automorphism or isolated nodes, half the forcings fix p."""
    g = graph_with_automorphism(rng, p) if automorphic else graph_with_isolated_nodes(rng, n)
    if constant:
        f = ResponseFunction.from_coeffs([rational(rng)])
    else:
        f = ResponseFunction.from_coeffs([rational(rng) for _ in range(1 + rng.next_u64() % 3)] + [1])
    field = ResponseField(f)
    if gauged:
        field = gauge_shift(field, ResponseFunction.from_coeffs([rational(rng), rational(rng), 1]))
    if rng.uniform() < 0.5:
        h = [Fraction(0)] * n
        for orbit in PermutationGroup((p,)).orbits():
            value = Fraction(rng.next_u64() % 3)
            for i in orbit:
                h[i - 1] = value
    else:
        h = [Fraction(rng.next_u64() % 3) for _ in range(n)]
    return PerturbedSystem(g, field, Perturbation.constant(h), eps)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7), automorphic=st.booleans(), constant=st.booleans(),
       eps=st.sampled_from((Fraction(0), Fraction(3, 7))), gauged=st.booleans())
def test_equivariance_verdict_equals_the_sampled_field(seed, n, automorphic, constant, eps, gauged):
    rng = SplitMix64(seed)
    p = random_permutation(rng, n)
    sys_ = _random_system(rng, n, p, automorphic, constant, eps, gauged)
    samples = [rational_state(rng, n) for _ in range(4)]
    if check_equivariance(sys_, p):
        assert _sampled_equivariance(sys_, p, samples)
    else:
        assert any(not _sampled_equivariance(sys_, p, [x]) for x in samples)


def test_certificate_conditions_equal_equivariance_of_every_generator():
    # with eps > 0 and a non-constant f, "commutes and fixes the forcing" is the field's equivariance
    rng = SplitMix64(77)
    seen = set()
    for _ in range(200):
        n = 1 + rng.next_u64() % 7
        p = random_permutation(rng, n)
        sys_ = _random_system(rng, n, p, rng.uniform() < 0.5, False, Fraction(1, 5), rng.uniform() < 0.5)
        group = PermutationGroup((p, random_permutation(rng, n)) if rng.uniform() < 0.5 else (p,))
        cert = maximal_canard_certificate(sys_, group, [])
        verdict = cert.generators_commute and cert.perturbation_equivariant
        assert verdict == all(check_equivariance(sys_, g) for g in group.generators)
        seen.add(verdict)
    assert seen == {True, False}


# --- sign-action equilibria -------------------------------------------------------

def test_sign_action_square_response():
    sys_ = _system(3, ResponseFunction.from_coeffs([0, 0, 1]))
    state = symmetry_generated_equilibria(sys_, 2, [1, -1, 1])
    assert state == [2, -2, 2]
    assert vector_field(sys_, state) == [0] * 3


def test_sign_action_all_plus_is_consensus(ex1_response):
    sys_ = _system(4, ex1_response)
    state = symmetry_generated_equilibria(sys_, Fraction(3, 7), [1, 1, 1, 1])
    assert state == [Fraction(3, 7)] * 4
    assert vector_field(sys_, state) == [0] * 4


def test_sign_action_mixed_signs_quartic(ex1_response):
    sys_ = _system(4, ex1_response)
    state = symmetry_generated_equilibria(sys_, Fraction(7, 10), [1, -1, 1, -1])
    assert state == [Fraction(7, 10), Fraction(-7, 10)] * 2
    assert vector_field(sys_, state) == [0] * 4


def test_sign_action_rejects_odd_response():
    sys_ = _system(3, ResponseFunction.from_coeffs([0, 0, 0, 1]))
    with pytest.raises(UnsupportedSymmetryError):
        symmetry_generated_equilibria(sys_, 1, [1, -1, 1])


def test_sign_action_refuses_a_sign_other_than_plus_or_minus_one(ex1_response):
    with pytest.raises(PreconditionError, match="signs must be"):
        symmetry_generated_equilibria(_system(2, ex1_response), 1, [2, 1])


def test_group_refuses_an_empty_generator_list():
    with pytest.raises(PreconditionError, match="at least one generator"):
        PermutationGroup(())


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


def test_certificate_refuses_a_group_on_the_wrong_node_count(ex1_response):
    sys_ = _system(3, ex1_response, Perturbation.constant(1, 3), Fraction(1, 100))
    with pytest.raises(DimensionMismatchError, match="group acts on 4 symbols"):
        maximal_canard_certificate(sys_, PermutationGroup.symmetric(4), [])


def test_certificate_cross_check_catches_a_wrong_forcing_verdict(ex1_response, monkeypatch):
    # with the forcing predicate broken, a skewed forcing is certified; the exact field at consensus refutes it
    sys_ = _system(3, ex1_response, Perturbation.constant([1, 1, 2]), Fraction(1, 100))
    monkeypatch.setattr(symmetry, "fixes_forcing", lambda sys, p: True)
    with pytest.raises(InvariantViolationError, match="leaves the consensus line"):
        maximal_canard_certificate(sys_, PermutationGroup.symmetric(3), [])


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
