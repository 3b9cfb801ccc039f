"""Exception types shared across the library, and the one argument rule.

Every public entry point reads a real argument through ``real``, an
integer one through ``index`` and a tolerance through ``positive``: a value
a rule refuses raises DomainError naming the argument, before any work.
They only validate; a caller reads the value itself as before, so an mpf
keeps its bits.
"""

import math
import operator


class DomainError(ValueError):
    """Argument outside the domain an operation supports."""


def real(v, name: str) -> float:
    """float(v) for a finite real v, else DomainError naming ``name``."""
    try:
        f = float(v)
    except (TypeError, ValueError, OverflowError):
        f = math.nan
    if not math.isfinite(f):
        raise DomainError(f"{name} must be a finite real, got {v!r}")
    return f


def index(v, name: str, least: int = None) -> int:
    """operator.index(v) for an integer v >= least, else DomainError naming ``name``."""
    try:
        i = operator.index(v)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {v!r}") from None
    if least is not None and i < least:
        raise DomainError(f"{name} must be >= {least}, got {i}")
    return i


def positive(v, name: str):
    """v for a finite real v > 0, else DomainError naming ``name``.  v is
    compared as itself, never as a float, so a positive mpf below the
    smallest float passes."""
    try:
        ok = 0 < v < math.inf
    except TypeError:
        ok = False
    if not ok:
        raise DomainError(f"{name} must be a finite real > 0, got {v!r}")
    return v


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
