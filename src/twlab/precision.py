"""Working-precision plumbing shared by every numeric kernel.

All kernels compute internally at an elevated precision and hand back values
rounded to the caller's requested precision.  Reported quantities are formed
REPORT_GUARD bits above it (PrecisionContext.workprec) and rounded once;
guards sized to one kernel's own conditioning stay with that kernel.  A
pass that is exact up to rounding, and whose result feeds acceptance checks,
runs once through ``stabilize`` at a precision sized in advance from the a
priori form of its error, and returns its value with a proven absolute
error bound formed from numbers the pass already has; the bound must be at
most 2^-precision_bits, or the pass raises PrecisionError.  No pass is
repeated to confirm another.  The tolerance is a separate target: it is
read only where a truncated expansion is checked, never by a computation
that is exact up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple, TypeVar

from mpmath import mp, mpf

from .errors import PrecisionError

T = TypeVar("T")

REPORT_GUARD = 16


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision (bits) and target tolerance for final results.

    precision_bits: binary mantissa digits used for reported values; passes
        that are exact up to rounding carry an error bound of at most
        2^-precision_bits.
    tolerance: the largest truncation error accepted from an expansion (the
        left-tail series of F and E, the Nystrom size of the Fredholm
        oracle); a result whose estimate exceeds it raises PrecisionError.
    """

    precision_bits: int = 256
    tolerance: float = 1e-12

    def __post_init__(self) -> None:
        if self.precision_bits < 64:
            raise ValueError("precision_bits must be >= 64")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")

    def tol(self) -> mpf:
        return mpf(self.tolerance)

    def workprec(self):
        """mp.workprec at REPORT_GUARD bits above precision_bits."""
        return mp.workprec(self.precision_bits + REPORT_GUARD)


def round_to(value, bits: int):
    """Round a value (or list of values) to ``bits`` mantissa bits."""
    with mp.workprec(bits):
        if isinstance(value, (list, tuple)):
            return type(value)(+v for v in value)
        return +value


def stabilize(
    compute: Callable[[int], Tuple[T, mpf]],
    bits: int,
    ctx: PrecisionContext,
    what: str = "result",
) -> Tuple[T, mpf]:
    """Run ``compute(bits)`` once and return its (value, bound), where bound
    is a proven absolute error bound on value; raise PrecisionError if the
    bound exceeds 2^-ctx.precision_bits."""
    value, bound = compute(bits)
    if not bound <= mpf(2) ** -ctx.precision_bits:
        raise PrecisionError(
            f"{what}: error bound {mp.nstr(bound, 3)} at {bits} bits exceeds "
            f"2^-{ctx.precision_bits}")
    return value, bound
