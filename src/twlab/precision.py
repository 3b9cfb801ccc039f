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

Both asymptotic series (the Hastings-McLeod left series and the
Euler-Maclaurin tail of zeta'(-1)) are summed by one rule,
sum_to_least_term: optimal truncation, which stops at the least term and
returns the first omitted term as the truncation error.  A caller that
needs 2^-prec sizes the series' argument so that its least term lies below
that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Tuple, TypeVar

from mpmath import libmp, mp, mpf

from .errors import PrecisionError, index, positive

T = TypeVar("T")

REPORT_GUARD = 16


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision (bits) and target tolerance for final results.

    precision_bits: binary mantissa digits used for reported values; passes
        that are exact up to rounding carry an error bound of at most
        2^-precision_bits.
    tolerance: the largest truncation error accepted from an expansion (the
        left-tail series of F and E; the Nystrom size when f2_fredholm runs
        with verify_convergence=True, which no command, check or workload
        does); a result whose estimate exceeds it raises PrecisionError.
    """

    precision_bits: int = 256
    tolerance: float = 1e-12

    def __post_init__(self) -> None:
        index(self.precision_bits, "precision_bits", 64)
        positive(self.tolerance, "tolerance")

    def workprec(self):
        """mp.workprec at REPORT_GUARD bits above precision_bits."""
        return mp.workprec(self.precision_bits + REPORT_GUARD)


def round_to(value, bits: int):
    """Round an mpf, or each mpf of a list or tuple, to ``bits`` mantissa
    bits: the raw tuple is rounded to nearest by libmp.mpf_pos, with no
    precision switch.  The bits are those +value gives under
    mp.workprec(bits)."""
    if isinstance(value, (list, tuple)):
        return type(value)(round_to(v, bits) for v in value)
    return mp.make_mpf(libmp.mpf_pos(value._mpf_, bits, libmp.round_nearest))


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


def sum_to_least_term(terms: Iterable[mpf]) -> Tuple[mpf, mpf]:
    """Sum the terms in order up to the first one that is no smaller than
    the one before it, or smaller than 2^-mp.prec of the sum; that term is
    left out.  Returns (sum, magnitude of the first omitted term).  The
    terms of an asymptotic series do one or the other, so this ends."""
    total, prev = mpf(0), mp.inf
    for term in terms:
        size = abs(term)
        if size >= prev or size < mp.ldexp(abs(total), -mp.prec):
            return total, size
        total += term
        prev = size
