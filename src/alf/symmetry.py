"""Permutation groups, fixed-point spaces, and equivariance checks.

Fixed-point spaces are stored as partitions of the node set: a group element
fixing a state forces equality along its orbits, so the dimension of the
fixed subspace is simply the number of orbit classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dynamics import PerturbedSystem, vector_field
from .errors import DimensionMismatchError, UnsupportedSymmetryError
from .graph import Permutation, commutes_with_laplacian, components
from .precision import exact

EQUIVARIANCE_TOL = 1e-12


@dataclass(frozen=True)
class PermutationGroup:
    """Group given by its generators; its orbits come from them without enumerating elements."""

    generators: tuple[Permutation, ...]

    def __post_init__(self):
        if not self.generators:
            raise ValueError("need at least one generator (use the identity for the trivial group)")
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
        """Node orbits under the generated action: each node joined with its image under every generator."""
        return components(self.n, ((i, gen(i)) for gen in self.generators for i in range(1, self.n + 1)))


@dataclass(frozen=True)
class FixedPointSpace:
    """Partition of nodes into classes forced equal by the group action."""

    classes: tuple[frozenset[int], ...]

    @property
    def dimension(self) -> int:
        return len(self.classes)

    @property
    def is_consensus(self) -> bool:
        return len(self.classes) == 1


def fixed_point_space(group: PermutationGroup, n: int) -> FixedPointSpace:
    if group.n != n:
        raise DimensionMismatchError(f"group acts on {group.n} symbols, requested n={n}")
    return FixedPointSpace(tuple(group.orbits()))


def check_equivariance(sys: PerturbedSystem, p: Permutation, samples, tol: float = EQUIVARIANCE_TOL) -> bool:
    """Whether the full vector field commutes with the permutation at samples.

    Exact (tol 0 meaningful) when the samples are rational.
    """
    if p.n != sys.n:
        raise DimensionMismatchError("permutation size does not match the system")
    for x in samples:
        lhs = p.apply(vector_field(sys, list(x)))
        rhs = vector_field(sys, p.apply(list(x)))
        if any(abs(a - b) > tol for a, b in zip(lhs, rhs)):
            return False
    return True


def symmetry_generated_equilibria(sys: PerturbedSystem, c, signs) -> tuple[list, float]:
    """Equilibrium candidate (s1*c, ..., sn*c) from the sign action.

    Only meaningful for responses invariant under x -> -x; the residual of
    the unperturbed field at the candidate is returned alongside it.
    """
    if len(signs) != sys.n:
        raise DimensionMismatchError(f"need {sys.n} signs")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    nontrivial = any(s == -1 for s in signs) and any(s == 1 for s in signs)
    if nontrivial and not sys.field.function.is_even():
        raise UnsupportedSymmetryError("response lacks sign symmetry; mixed signs do not map consensus to equilibria")
    unperturbed = PerturbedSystem(sys.graph, sys.field, sys.perturbation, Fraction(0))
    state = [s * exact(c) if isinstance(c, (int, float, Fraction)) else s * c for s in signs]
    residual_vec = vector_field(unperturbed, state)
    residual = max(abs(v) for v in residual_vec)
    return state, float(residual)


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
    line), the forcing is constant on it (`h[p(i)] == h[i]` for every
    generator p) and the forcing is nonzero.  Then the field at a consensus
    point is fixed by the group, so it points along the all-ones vector.  A
    true verdict predicts an invariant consensus trajectory; integration
    tests confirm it downstream.

    `samples` is not read: the forcing is a constant vector, so no state
    needs sampling.  The parameter stays for the callers that pass it.
    """
    h = sys.perturbation.values
    return CanardCertificate(
        generators_commute=all(commutes_with_laplacian(sys.graph, g) for g in group.generators),
        fix_is_consensus=fixed_point_space(group, sys.n).is_consensus,
        perturbation_equivariant=all(
            h[g(i) - 1] == h[i - 1] for g in group.generators for i in range(1, sys.n + 1)
        ),
        perturbation_nonzero=any(h),
    )
