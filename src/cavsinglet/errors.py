"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Operators or states living on different spaces were combined."""


class DegenerateSteadyStateError(RuntimeError):
    """The stationary manifold of a Liouvillian is not one-dimensional."""

    def __init__(self, steady_dim: int, message: str | None = None):
        super().__init__(
            message
            or f"stationary manifold is {steady_dim}-dimensional, expected 1"
        )
        self.steady_dim = steady_dim


class NumericalInstabilityError(RuntimeError):
    """A numeric result violates a structural bound (positivity, conditioning)."""


class NotHermiticityPreservingError(RuntimeError):
    """A matrix given as a Lindblad generator maps some Hermitian operator to
    a non-Hermitian one, so it has no real Hermitian-basis form."""


class SingularPropagatorError(RuntimeError):
    """A closed-form propagator denominator is numerically singular."""

    def __init__(self, block: int, value: complex):
        super().__init__(
            f"near-singular propagator denominator D_{block} = {value:.3e}"
        )
        self.block = block


class NoValidDriveError(ValueError):
    """The requested preparation time is too short for an optimal drive."""


class RecyclingDivergenceError(ValueError):
    """The recycling bottleneck model diverges without microwave driving."""
