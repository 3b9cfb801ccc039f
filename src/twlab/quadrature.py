"""Gauss-Legendre rules at arbitrary precision.

Each node r and its weight are found in the five steps below, and only
the last Halley step runs at the full grid 2^-(prec + 24)
(twlab.fixedpoint): one Legendre recurrence per node at that width, after
steps whose precision rises (Johansson and Mezzarobba, SIAM J. Sci.
Comput. 40, 2018).

1. Seed.  Tricomi's asymptotic value x = (1 - (n - 1)/(8 n^3) - (39 -
   28 / sin^2 theta)/(384 n^4)) cos theta, theta = pi (4i + 3)/(4n + 2), for
   the i-th largest root.
2. Float64 Newton until |dx| < 2^-36: two steps for most nodes at n = 80,
   one for most at n >= 240, three at the ends.  The root it leaves is taken to carry
   _FLOAT64_BITS = 48 bits (measured 53-55 for n <= 1000 against a rule
   200 bits finer); the first integer step checks this, as every step does.
3. Halley steps on integer grids.  The three-term recurrence (k P_k =
   (2k - 1) x P_(k-1) - (k - 1) P_(k-2)) costs one integer multiplication,
   one shift and one floor division per step, and gives P = P_n(x) and
   S = (1 - x^2) P_n'(x) = n (P_(n-1) - x P_n).  The Legendre equation
   (1 - x^2) P'' = 2x P' - n(n + 1) P gives P''/P' = q / (1 - x^2) with
   q = 2x - n(n + 1) P/P', so Halley's correction is
   dx = 2 (1 - x^2) P / (2 S - P q), rounded to nearest on the grid.  From an
   error e it leaves C e^3, C = |P'''/(6P')| + (P''/(2P'))^2.  The same
   equation, differentiated, bounds both ratios near the root by
   P''/P' ~ 2x / s and P'''/P' ~ (4x P''/P' + 2 - n(n + 1)) / s, s = 1 - x^2,
   so C <= n(n + 1)/(3s) + 5/s^2 with a factor 2 to spare for the ratios'
   change between x and the root (below 2^-16 relative while |dx| < 2^-36
   and n <= 1000).  The bits the final step needs in its input are set by
   the bounds of step 4; the steps before it are planned back from there,
   each asked for (b + log2 C + 1)/3 bits when the next needs b, and run on
   the grid 2^-(asked + log2 n + 2).  After each step the bits it certified,
   -log2(C |dx|^3 + n 2^-F), replan the rest, so a float64 root worse than
   assumed costs a step, not a wrong node.  At prec = 288 this is one step
   near 2^-118 and the final one; at 544, steps near 2^-81 and 2^-206.
4. Proven stop, with no confirming step.  The final step's |dx| bounds its
   input error, so the node is within C |dx|^3 + n 2^-(prec + 24) of r; the
   second term is the floors of one recurrence and one quotient, an
   estimate from the recurrence's Green's function (measured below one
   unit).  The stop requires this below 2^-(prec + 8), and the weight's
   remainder below (step 5), or raises PrecisionError.
5. The weight comes from the final recurrence.  S' = -n(n + 1) P_n and
   P_n(r) = 0, so the trapezoid rule over [r, x] gives
   S(r) = S(x) + n(n + 1) P_n(x) dx / 2: the first-order term n(n + 1) P dx
   and the second-order one -n(n + 1) P' dx^2 / 2 with P' dx = P.  Its
   remainder, n(n + 1) |dx|^3 max|P''| / 12, is at most
   n(n + 1) |dx|^3 / (6 s^2) relative to S, and the stop holds twice it
   (w depends on S^2), doubled again to spare, below 2^-(prec + 24).  Then
   w = 2 (1 - r^2) / S(r)^2 is one integer division, on a grid
   2 n.bit_length() bits finer, since an outer weight is about 7.5 / n^2,
   and is rounded to prec + 24 bits.  The node's own error moves w by
   2 |r| |dr| / (1 - r^2) relative: below n^2 2^-(prec + 8), as 1 - r^2 >=
   sin^2(2.4 / (n + 1/2)) at the outermost node.

The rule (n, prec) = (80, 288) takes 3.7 ms against 7.2 ms with four
full-width recurrences per node, and (240, 544) 47 ms against 125 ms (best
of 7 in one process; Python 3.11, mpmath without gmpy2, 2-core x86-64 VM).

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

# bits the float64 root is taken to carry into the first Halley step
_FLOAT64_BITS = 48


def _tricomi_seed(n: int, i: int) -> float:
    """Tricomi's asymptotic value of the i-th largest root of P_n."""
    theta = math.pi * (4 * i + 3) / (4 * n + 2)
    return (1 - (n - 1) / (8 * n ** 3)
            - (39 - 28 / math.sin(theta) ** 2) / (384 * n ** 4)) * math.cos(theta)


def _float64_root(n: int, i: int) -> float:
    """The i-th largest root of P_n by Newton's method in float64 from
    _tricomi_seed, to the first step with |dx| < 2^-36."""
    x = _tricomi_seed(n, i)
    for _ in range(20):
        p0, p1 = 1.0, x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dx = p1 * (x * x - 1) / (n * (x * p1 - p0))
        x -= dx
        if abs(dx) < 2.0 ** -36:
            return x
    raise PrecisionError(
        f"Gauss-Legendre node {i} of {n} did not converge in float64 "
        f"in 20 Newton steps")


def _legendre_on_grid(n: int, x: int, frac: int) -> Tuple[int, int]:
    """(P_(n-1)(x), P_n(x)) on the grid 2^-frac, for x on the same grid."""
    p0, p1 = 1 << frac, x
    for k in range(2, n + 1):
        p0, p1 = p1, (((2 * k - 1) * x * p1 >> frac) - (k - 1) * p0) // k
    return p0, p1


def _halley_step(n: int, x: int, frac: int) -> Tuple[int, int, int]:
    """(dx, P_n(x), (1 - x^2) P_n'(x)) on the grid 2^-frac, for x on the
    same grid: Halley's correction, the root being near x - dx, from one
    recurrence (module docstring, stage 3)."""
    p0, p = _legendre_on_grid(n, x, frac)
    s = (1 << frac) - (x * x >> frac)
    sp = n * (p0 - (x * p >> frac))
    q = 2 * x - n * (n + 1) * (p * s // sp)
    den = 2 * sp - (p * q >> frac)
    return (2 * s * p + (den >> 1)) // den, p, sp


def gauss_legendre(n: int, prec: int) -> Tuple[List[mpf], List[mpf]]:
    """Nodes and weights of the n-point rule on [-1, 1] at ``prec`` bits."""
    index(n, "n", 1)
    index(prec, "prec", 1)
    key = (n, prec)
    hit = _rule_cache.get(key)
    if hit is not None:
        return hit
    frac = prec + 24
    goal = prec + 8
    nn1 = n * (n + 1)
    log_n = math.log2(n)
    wide = 2 * n.bit_length()
    steps = prec.bit_length() + 4
    nodes: List[int] = []
    weights: List[int] = []
    for i in range((n + 1) // 2):
        x0 = _float64_root(n, i)
        s0 = 1 - x0 * x0
        # log2 of the cubic constants of the node (Halley) and of the
        # weight (trapezoid), each doubled to spare
        node_c = math.log2(nn1 / (3 * s0) + 5 / (s0 * s0))
        weight_c = math.log2(2 * nn1 / (3 * s0 * s0))
        # bits the final step's input must carry, so that both stop
        final = max(goal + 1 + node_c, frac + weight_c) / 3
        bits, grid = _FLOAT64_BITS, 0
        for _ in range(steps):
            # the bits this step is asked for, planned back from the final
            want, asked = final, None
            while bits < want:
                asked, want = want, (want + node_c + 1) / 3
            width = frac if asked is None else min(frac, math.ceil(asked + log_n + 2))
            x = x << (width - grid) if grid else int(math.ldexp(x0, width))
            grid = width
            dx, p, sp = _halley_step(n, x, grid)
            x -= dx
            # log2 |dx|^3
            cube = 3 * (math.log2(abs(dx)) - grid) if dx else -math.inf
            if grid == frac:
                break
            bits = -max(cube + node_c, log_n - grid) - 1
        else:
            raise PrecisionError(
                f"Gauss-Legendre node {i} of {n} did not converge to "
                f"2^-{goal} in {steps} Halley steps")
        if max(cube + node_c, log_n - frac) + 1 > -goal or cube + weight_c > -frac:
            raise PrecisionError(
                f"Gauss-Legendre node {i} of {n}: the final step's bound "
                f"exceeds 2^-{goal}")
        # w = 2 (1 - r^2) / S(r)^2, S(r) = S(x) + n(n + 1) P(x) dx / 2
        sp += nn1 * p * dx >> (frac + 1)
        s = (1 << frac) - (x * x >> frac)
        nodes.append(x)
        weights.append((s << (2 * frac + 1 + wide)) // (sp * sp))
    with mp.workprec(frac):
        xs = [from_grid(v, frac) for v in nodes]
        ws = [from_grid(v, frac + wide, frac) for v in weights]
        # mirror the descending nodes about 0 (exactly, at frac bits)
        half = n // 2
        xs = [-v for v in xs[:half]] + [mpf(0)] * (n % 2) + xs[:half][::-1]
        ws = ws + ws[:half][::-1]
    result = (xs, ws)
    _rule_cache[key] = result
    return result
