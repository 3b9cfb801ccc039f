"""Gauss-Legendre rules at arbitrary precision.

Each node is found by Newton's method in two stages.  The first runs in
float64 from the Chebyshev-like estimate cos(pi (i + 3/4) / (n + 1/2)) to the
double-precision root.  The second runs on Python integers on the grid
2^-(prec + 24) (twlab.fixedpoint): the three-term Legendre recurrence
(k P_k = (2k - 1) x P_(k-1) - (k - 1) P_(k-2)) costs one integer
multiplication, one shift and one floor division per step.  Each Newton
step doubles the correct bits, so ceil(log2((prec + 8) / 53)) steps reach
2^-(prec + 8) (three up to prec = 416), and one more confirms the stop
|dx| < 2^-(prec + 8): four recurrences per node at 288 bits.  A node that
does not stop within prec.bit_length() + 4 steps raises PrecisionError.
The weight 2 / ((1 - x^2) P_n'(x)^2) is formed once in mpf from the
confirming step's recurrence, so no recurrence runs only for it.  That
recurrence ran at the node less dx, which moves the weight by
2 |x dx| / (1 - x^2) relative: below n^2 2^-(prec + 8), as
1 - x^2 >= sin^2(2.4 / (n + 1/2)) at the outermost node, and in practice
far less, since the confirming dx is a few units of the grid.

Rules are cached per (n, precision).  The library is single-threaded
(mp.workprec sets the process-global mp.prec), so the memo dict needs no
lock.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from mpmath import mp, mpf

from .errors import PrecisionError, index
from .fixedpoint import from_grid

_rule_cache: dict = {}


def _float64_root(n: int, i: int) -> float:
    """The i-th largest root of P_n by Newton's method in float64."""
    x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
    for _ in range(20):
        p0, p1 = 1.0, x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dx = p1 * (x * x - 1) / (n * (x * p1 - p0))
        x -= dx
        if abs(dx) < 1e-14:
            break
    return x


def _legendre_on_grid(n: int, x: int, frac: int) -> Tuple[int, int]:
    """(P_(n-1)(x), P_n(x)) on the grid 2^-frac, for x on the same grid."""
    p0, p1 = 1 << frac, x
    for k in range(2, n + 1):
        p0, p1 = p1, (((2 * k - 1) * x * p1 >> frac) - (k - 1) * p0) // k
    return p0, p1


def gauss_legendre(n: int, prec: int) -> Tuple[List[mpf], List[mpf]]:
    """Nodes and weights of the n-point rule on [-1, 1] at ``prec`` bits."""
    index(n, "n", 1)
    index(prec, "prec", 1)
    key = (n, prec)
    hit = _rule_cache.get(key)
    if hit is not None:
        return hit
    frac = prec + 24
    one = 1 << frac
    stop = 1 << (frac - prec - 8)
    # the correct bits double from the 53 of the float64 root
    steps = prec.bit_length() + 4
    with mp.workprec(frac):
        nodes: List[mpf] = []
        weights: List[mpf] = []
        m = (n + 1) // 2
        for i in range(m):
            x = int(math.ldexp(_float64_root(n, i), frac))
            for _ in range(steps):
                p0, p1 = _legendre_on_grid(n, x, frac)
                # P_n / P_n' with P_n' = n (x P_n - P_(n-1)) / (x^2 - 1)
                x2_minus_one = (x * x >> frac) - one
                dp = n * ((x * p1 >> frac) - p0)
                dx = p1 * x2_minus_one // dp
                x -= dx
                if abs(dx) < stop:
                    break
            else:
                raise PrecisionError(
                    f"Gauss-Legendre node {i} of {n} did not converge to "
                    f"2^-{prec + 8} in {steps} Newton steps")
            # w = 2 / ((1 - x^2) P_n'^2) = 2 (1 - x^2) / (n (x P_n - P_(n-1)))^2
            # from the step that confirmed the node, |dx| < 2^-(prec + 8)
            w = -2 * from_grid(x2_minus_one, frac) / from_grid(dp, frac) ** 2
            nodes.append(from_grid(x, frac))
            weights.append(w)
        # mirror the descending nodes about 0 (exactly, at frac bits)
        half = n // 2
        xs = [-v for v in nodes[:half]] + [mpf(0)] * (n % 2) + nodes[:half][::-1]
        ws = weights + weights[:half][::-1]
    result = (xs, ws)
    _rule_cache[key] = result
    return result
