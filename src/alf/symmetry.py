"""Permutation groups, exact equivariance, sign-action equilibria and the canard certificate.

Every verdict is decided from the data, never from samples of the field:
V(x) = -L F(x) + eps h commutes with a permutation P exactly when P fixes
the forcing (or eps is 0) and PL = LP (or f is constant).  A group's
orbits are its fixed-point partition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import PerturbedSystem, vector_field
from .errors import DimensionMismatchError, InvariantViolationError, PreconditionError, UnsupportedSymmetryError
from .graph import Permutation, commutes_with_laplacian, components
from .precision import exact


@dataclass(frozen=True)
class PermutationGroup:
    """Group given by its generators; its orbits come from them without enumerating elements."""

    generators: tuple[Permutation, ...]

    def __post_init__(self):
        if not self.generators:
            raise PreconditionError("need at least one generator (use the identity for the trivial group)")
        n = self.generators[0].n
        if any(g.n != n for g in self.generators):
            raise DimensionMismatchError("generators act on different node counts")

    @property
    def n(self) -> int:
        return self.generators[0].n

    @classmethod
    def trivial(cls, n: int) -> "PermutationGroup":
        return cls((Permutation.identity(n),))

    @classmethod
    def symmetric(cls, n: int) -> "PermutationGroup":
        """Full symmetric group via adjacent transpositions."""
        if n == 1:
            return cls.trivial(1)
        gens = tuple(Permutation.transposition(n, i, i + 1) for i in range(1, n))
        return cls(gens)

    @classmethod
    def cyclic(cls, n: int) -> "PermutationGroup":
        return cls((Permutation.cyclic_shift(n),))

    def orbits(self) -> list[frozenset[int]]:
        """Node orbits under the generated action: each node joined with its image under every generator.

        They are the fixed-point partition: a fixed state is constant on each
        orbit, so the fixed subspace has one dimension per orbit.
        """
        return components(self.n, ((i, gen(i)) for gen in self.generators for i in range(1, self.n + 1)))


def fixes_forcing(sys: PerturbedSystem, p: Permutation) -> bool:
    """Whether P h == h exactly: `h[p(i)] == h[i]` for every node i."""
    h = sys.perturbation.values
    return all(h[target - 1] == v for target, v in zip(p.image, h))


def check_equivariance(sys: PerturbedSystem, p: Permutation, samples=None, tol=None) -> bool:
    """Whether V(P x) == P V(x) for every state x, decided exactly in O(|E| + n).

    V(P x) - P V(x) = (P L - L P) F(x) + eps (h - P h).  F(x) ranges over a
    set with interior unless f is constant, and a mean gauge adds a multiple
    of the all-ones vector, which L P and P L both annihilate; so the field
    commutes with P exactly when (f is constant or L P == P L) and (eps is 0
    or P fixes h).  No field is evaluated.

    `samples` and `tol` are not read; they stay for the callers that pass them.
    """
    if p.n != sys.n:
        raise DimensionMismatchError("permutation size does not match the system")
    return ((sys.field.function.degree == 0 or commutes_with_laplacian(sys.graph, p))
            and (sys.epsilon == 0 or fixes_forcing(sys, p)))


def symmetry_generated_equilibria(sys: PerturbedSystem, c, signs) -> list:
    """The equilibrium (s1*c, ..., sn*c) of the unperturbed field from the sign action.

    Mixed signs need a response invariant under x -> -x.  Then f(s_i c) ==
    f(c) for every i, so F is f(c) times the all-ones vector (a mean gauge
    adds another multiple), which L annihilates: the unperturbed field is
    exactly 0 at the state.
    """
    if len(signs) != sys.n:
        raise DimensionMismatchError(f"need {sys.n} signs")
    if any(s not in (1, -1) for s in signs):
        raise PreconditionError("signs must be +1 or -1")
    nontrivial = any(s == -1 for s in signs) and any(s == 1 for s in signs)
    if nontrivial and not sys.field.function.is_even():
        raise UnsupportedSymmetryError("response lacks sign symmetry; mixed signs do not map consensus to equilibria")
    return [s * exact(c) if isinstance(c, (int, float)) else s * c for s in signs]


@dataclass(frozen=True)
class CanardCertificate:
    """Outcome of the symmetry route to an invariant consensus trajectory."""

    generators_commute: bool
    fix_is_consensus: bool
    perturbation_equivariant: bool
    perturbation_nonzero: bool

    @property
    def verdict(self) -> bool:
        return (
            self.generators_commute
            and self.fix_is_consensus
            and self.perturbation_equivariant
            and self.perturbation_nonzero
        )


def maximal_canard_certificate(sys: PerturbedSystem, group: PermutationGroup, samples) -> CanardCertificate:
    """Check the symmetry conditions making the consensus line a trajectory.

    Conditions, each decided exactly: every generator commutes with the
    Laplacian, the group has one orbit (its fixed space is the consensus
    line), every generator fixes the forcing and the forcing is nonzero.
    Then the field at a consensus point is fixed by the group, so it points
    along the all-ones vector.  A true verdict predicts an invariant
    consensus trajectory; integration tests confirm it downstream, and the
    exact field at the consensus point 0 cross-checks it here
    (InvariantViolationError if it leaves the consensus line).

    `samples` is not read: the forcing is a constant vector, so no state
    needs sampling.  The parameter stays for the callers that pass it.
    """
    if group.n != sys.n:
        raise DimensionMismatchError(f"group acts on {group.n} symbols, the system has {sys.n} nodes")
    cert = CanardCertificate(
        generators_commute=all(commutes_with_laplacian(sys.graph, g) for g in group.generators),
        fix_is_consensus=len(group.orbits()) == 1,
        perturbation_equivariant=all(fixes_forcing(sys, g) for g in group.generators),
        perturbation_nonzero=any(sys.perturbation.values),
    )
    if cert.verdict:
        velocity = vector_field(sys, [0] * sys.n)
        if any(v != velocity[0] for v in velocity):
            raise InvariantViolationError("certified, but the field at consensus leaves the consensus line")
    return cert
