"""Exception types shared across the library."""


class DomainError(ValueError):
    """Argument outside the domain an operation supports."""


class PrecisionError(RuntimeError):
    """A result's error bound or error estimate exceeds the precision or
    tolerance it is held to."""


class SolverError(RuntimeError):
    """Nonlinear solver did not converge; carries the last residual norm."""

    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual


class InternalConsistencyError(RuntimeError):
    """A mathematically impossible state was observed (signals a bug upstream)."""
