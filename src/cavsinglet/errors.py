"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """An operator or state does not have the shape its space requires."""


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


class NoValidDriveError(ValueError):
    """The requested preparation time is too short for an optimal drive."""
