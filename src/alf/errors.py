"""Exception hierarchy shared across the package."""


class AlfError(Exception):
    """Base class for all package-specific errors."""


class InvalidGraphError(AlfError):
    """Graph construction violated an invariant (size, self-loop, weight sign)."""


class DimensionMismatchError(AlfError):
    """Vector or permutation dimension does not match the system size."""


class UnsupportedStructureError(AlfError):
    """Operation requires a structure the input does not have (a graph shape, a polynomial response)."""


class SymmetryViolationError(AlfError):
    """Perturbation does not have the node-exchange shape the reduction needs."""


class UnsupportedSymmetryError(AlfError):
    """Sign-action equilibria requested for a response without sign symmetry."""


class PreconditionError(AlfError):
    """Analysis called at a point that fails its precondition."""


class InvariantViolationError(AlfError):
    """A computed result failed a check it must pass (residual gate, cross-check)."""


class ConfigError(AlfError):
    """Scenario configuration failed schema validation."""

    def __init__(self, details):
        self.details = list(details)
        super().__init__("; ".join(self.details))


class IntegrationError(AlfError):
    """Base for integrator failures; carries the partial trajectory."""

    def __init__(self, message, last_time, trajectory=None):
        self.last_time = last_time
        self.trajectory = trajectory
        super().__init__(message)


class IntegrationStalledError(IntegrationError):
    """Adaptive step size underflowed before reaching the end time."""


class DivergenceError(IntegrationError):
    """A state component exceeded the divergence cutoff.

    dp45 also raises it when its step size underflows on a state that grows
    fast enough to pass the cutoff before the end time (a finite-time blow-up).
    """
