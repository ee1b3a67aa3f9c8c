"""Numerical laboratory for absolute Laplacian flows.

Graph-coupled nonlinear diffusion systems x' = -L F(x) + eps H: exact
graph/Laplacian algebra, polynomial response functions, slow-fast reduction
to the (x, k)-plane, transcritical singularity classification with canard
verdicts, symmetry certificates, and precision-configurable integration.
"""

from .dynamics import (
    IntegratorConfig,
    Perturbation,
    PerturbedSystem,
    StandardFormSystem,
    Trajectory,
    integrate,
    is_regular_perturbation,
    to_standard_form,
    vector_field,
)
from .errors import (
    AlfError,
    ConfigError,
    DimensionMismatchError,
    DivergenceError,
    IntegrationStalledError,
    InvalidGraphError,
    InvariantViolationError,
    PreconditionError,
    SymmetryViolationError,
    UnsupportedStructureError,
    UnsupportedSymmetryError,
)
from .graph import (
    Graph,
    Permutation,
    commutes_with_laplacian,
)
from .precision import ScalarContext, exact
from .prng import SplitMix64
from .response import ResponseField, ResponseFunction, gauge_shift
from .slowfast import (
    ManifoldPoint,
    ManifoldSample,
    PlaneSystem,
    SingularityReport,
    analyze_singularity,
    consensus_stability,
    find_singular_points,
    plane_reduce,
    sample_manifold,
    sample_manifolds,
    slow_divergence_integral,
)
from .symmetry import (
    CanardCertificate,
    PermutationGroup,
    check_equivariance,
    maximal_canard_certificate,
    symmetry_generated_equilibria,
)

__version__ = "0.1.0"
