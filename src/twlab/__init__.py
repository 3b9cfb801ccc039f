"""Tracy-Widom distribution functions via the Hastings-McLeod Painleve II
solution, with an Airy-kernel Fredholm determinant oracle and an
arbitrary-precision Toeplitz determinant laboratory."""

from .precision import PrecisionContext
from .errors import (DomainError, InternalConsistencyError, PrecisionError,
                     SolverError)

__all__ = [
    "PrecisionContext",
    "DomainError",
    "InternalConsistencyError",
    "PrecisionError",
    "SolverError",
]

__version__ = "0.1.0"
