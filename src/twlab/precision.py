"""Working-precision plumbing shared by every numeric kernel.

All kernels compute internally at an elevated precision and hand back values
rounded to the caller's requested precision.  Results that feed acceptance
checks are validated by recomputation at doubled precision (see
``stabilize``); nothing is trusted on the strength of a single pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple, TypeVar

from mpmath import mp, mpf

from .errors import PrecisionError

T = TypeVar("T")


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision (bits) and target tolerance for final results.

    precision_bits: binary mantissa digits used for reported values.
    tolerance: absolute/relative target; a result may only be reported as
        converged after agreeing at two consecutive precisions.
    max_refinements: cap on adaptive precision doublings.
    """

    precision_bits: int = 256
    tolerance: float = 1e-20
    max_refinements: int = 6

    def __post_init__(self) -> None:
        if self.precision_bits < 64:
            raise ValueError("precision_bits must be >= 64")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be >= 1")

    def tol(self) -> mpf:
        return mpf(self.tolerance)


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
    """Run ``compute(bits)`` at doubling precisions until two consecutive
    results agree to ctx.tolerance.  Returns (last result, bits used)."""
    bits = start_bits
    prev = compute(bits)
    for _ in range(ctx.max_refinements):
        bits *= 2
        cur = compute(bits)
        if distance(prev, cur) <= ctx.tol():
            return cur, bits
        prev = cur
    raise PrecisionError(
        f"{what} failed to stabilize to {ctx.tolerance} within "
        f"{ctx.max_refinements} precision doublings (reached {bits} bits)"
    )
