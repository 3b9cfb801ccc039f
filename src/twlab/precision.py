"""Working-precision plumbing shared by every numeric kernel.

All kernels compute internally at an elevated precision and hand back values
rounded to the caller's requested precision.  Reported quantities are formed
REPORT_GUARD bits above it (PrecisionContext.workprec) and rounded once;
guards sized to one kernel's own conditioning stay with that kernel.  Results
that feed acceptance checks are validated by recomputation at doubled
precision, at most MAX_DOUBLINGS times (``stabilize``), until two passes agree
to the precision they are reported at; nothing is trusted on the strength of a
single pass.  The tolerance is a separate target: it is read only where a
truncated expansion is checked, never by a computation that is exact up to
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple, TypeVar

from mpmath import mp, mpf

from .errors import PrecisionError

T = TypeVar("T")

REPORT_GUARD = 16
MAX_DOUBLINGS = 6


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision (bits) and target tolerance for final results.

    precision_bits: binary mantissa digits used for reported values; passes
        that are exact up to rounding are stabilized to 2^-precision_bits.
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
    compute: Callable[[int], T],
    start_bits: int,
    ctx: PrecisionContext,
    distance: Callable[[T, T], mpf],
    what: str = "result",
) -> Tuple[T, int]:
    """Run ``compute(bits)`` at up to MAX_DOUBLINGS doubling precisions until
    two consecutive results agree to 2^-ctx.precision_bits: (last result,
    bits)."""
    bits = start_bits
    prev = compute(bits)
    for _ in range(MAX_DOUBLINGS):
        bits *= 2
        cur = compute(bits)
        if distance(prev, cur) <= mpf(2) ** -ctx.precision_bits:
            return cur, bits
        prev = cur
    raise PrecisionError(
        f"{what} failed to stabilize to 2^-{ctx.precision_bits} within "
        f"{MAX_DOUBLINGS} precision doublings (reached {bits} bits)"
    )
