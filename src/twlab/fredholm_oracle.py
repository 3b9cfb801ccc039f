"""Independent route to F2(x): the Fredholm determinant of the Airy-kernel
integral operator on (x, inf),

    F2(x) = det(1 - A_x),   A(u, v) = (Ai(u) Ai'(v) - Ai'(u) Ai(v)) / (u - v),

discretized by Nystrom quadrature.  The half-line is mapped algebraically to
a finite interval and truncated where Ai(u)^2 drops below 1e-40 (the kernel
decays super-exponentially, so Gauss nodes on the mapped interval converge
spectrally).  Ai and Ai' at the nodes come from one specialfn.airy_ai_walk:
a full-precision start at the top node (about u = 16.3), then Taylor steps
down the ascending nodes from the recurrence of Ai'' = u Ai (DLMF 9.2.1).
Walking down is stable because Ai is the recessive solution as u grows, so
the relative error of the start is carried, not amplified; the values are
good to the working precision.  With
a_i = sqrt(w_i) Ai(u_i) and b_i = sqrt(w_i) Ai'(u_i), each entry
sqrt(w_i w_j) A(u_i, u_j) is (a_i b_j - b_i a_j) / (u_i - u_j), and the
diagonal is b_i^2 - u_i a_i^2.  The matrix is assembled in fixed point:
a_i, b_i and u_i are put on the grid 2^-F, F = ctx.precision_bits + 32,
once (fixedpoint.to_grid), and each off-diagonal entry of the lower
triangle is one integer floor division (b_i a_j - a_i b_j) // (u_i - u_j),
whose numerator is exact.

The symmetrized matrix delta_ij - sqrt(w_i w_j) A(u_i, u_j) is positive
definite with eigenvalues in (0, 1]; its determinant is the product of the
pivots of linalg.cholesky_log_pivots, the fixed-point Cholesky the Toeplitz
lab uses too, which takes the integer lower triangle as it is.  The diagonal
is at least 0.82 at x = -8, m = 80, and nearer 1 for larger x, so the 2^-F
grid is about as accurate as F-bit floating point (see linalg).  Positive
definiteness is what makes that factorization unconditionally stable, and a
nonpositive pivot (an operator norm that reached 1) raises
InternalConsistencyError.

This module is the cross-validation oracle for the Painleve route and never
calls into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from mpmath import mp, mpf

from . import specialfn
from .errors import DomainError, PrecisionError
from .fixedpoint import to_grid
from .linalg import cholesky_log_pivots
from .precision import PrecisionContext, round_to
from .quadrature import gauss_legendre

_MAP_SCALE = 10.0
_TRUNC_AI_SQ = 1e-40


@dataclass(frozen=True)
class QuadratureRule:
    """Mapped Nystrom rule on (x, u_cut): nodes ascending, weights positive."""

    nodes: List[mpf]
    weights: List[mpf]
    size: int


def _truncation_point(x: float) -> float:
    """u beyond which Ai(u)^2 < _TRUNC_AI_SQ (fixed-point on the decay law)."""
    target = -0.5 * math.log(_TRUNC_AI_SQ)  # bound on -log Ai(u)
    u = (1.5 * target) ** (2.0 / 3.0)
    for _ in range(8):
        u = (1.5 * (target - math.log(2 * math.sqrt(math.pi) * u ** 0.25))) ** (2.0 / 3.0)
    return max(u, x + 1.0)


def build_rule(x, m: int, ctx: PrecisionContext) -> QuadratureRule:
    """m-point Gauss-Legendre rule pushed through u = x + 10 (1+s)/(1-s)."""
    if m < 20:
        raise DomainError("quadrature size m must be >= 20")
    xf = float(x)
    u_cut = _truncation_point(xf)
    prec = ctx.precision_bits + 32
    with mp.workprec(prec):
        x = mpf(x)
        scale = mpf(_MAP_SCALE)
        span = mpf(u_cut) - x
        s_max = (span - scale) / (span + scale)
        xs, ws = gauss_legendre(m, prec)
        half = (s_max + 1) / 2
        mid = (s_max - 1) / 2
        nodes: List[mpf] = []
        weights: List[mpf] = []
        for s_ref, w_ref in zip(xs, ws):
            s = mid + half * s_ref
            u = x + scale * (1 + s) / (1 - s)
            du_ds = 2 * scale / (1 - s) ** 2
            nodes.append(u)
            weights.append(w_ref * half * du_ds)
    return QuadratureRule(nodes=nodes, weights=weights, size=m)


def nystrom_matrix(x, m: int, ctx: PrecisionContext) -> Tuple[List[List[int]], int]:
    """The lower triangle of delta_ij - sqrt(w_i w_j) A(u_i, u_j) in fixed
    point, and its fraction bits F = ctx.precision_bits + 32: rows[i][j],
    j <= i, is the entry times 2^F, the input of linalg.cholesky_log_pivots."""
    rule = build_rule(x, m, ctx)
    airy = specialfn.airy_ai_walk(rule.nodes, ctx.precision_bits)
    frac = ctx.precision_bits + 32
    with mp.workprec(frac):
        sq = [mp.sqrt(w) for w in rule.weights]
        a = [to_grid(s * ai, frac) for s, (ai, _) in zip(sq, airy)]
        b = [to_grid(s * aip, frac) for s, (_, aip) in zip(sq, airy)]
        u = [to_grid(v, frac) for v in rule.nodes]
    one = 1 << frac
    rows: List[List[int]] = []
    for i in range(m):
        ai, bi, ui = a[i], b[i], u[i]
        # u ascends, so ui - uj > 0; units 2^-2F over 2^-F give 2^-F
        row = [(bi * aj - ai * bj) // (ui - uj)
               for aj, bj, uj in zip(a[:i], b[:i], u[:i])]
        row.append(one - ((bi * bi - ((ui * ai * ai) >> frac)) >> frac))
        rows.append(row)
    return rows, frac


def _f2_once(x, m: int, ctx: PrecisionContext) -> mpf:
    rows, frac = nystrom_matrix(x, m, ctx)
    with mp.workprec(frac):
        return mp.exp(mp.fsum(cholesky_log_pivots(
            rows, frac, "Nystrom matrix (operator norm must stay below 1)")))


def f2_fredholm(x, m: int, ctx: PrecisionContext,
                verify_convergence: bool = True) -> mpf:
    """F2(x) = det(1 - A_x) by Nystrom discretization with m nodes.

    With verify_convergence, the value is recomputed at 2m nodes and a
    PrecisionError is raised if the two disagree beyond ctx.tolerance."""
    try:
        xf = float(x)
    except (TypeError, ValueError):
        raise DomainError(f"x must be a finite real, got {x!r}")
    if not math.isfinite(xf):
        raise DomainError(f"x must be a finite real, got {x!r}")
    val = _f2_once(x, m, ctx)
    if verify_convergence:
        ref = _f2_once(x, 2 * m, ctx)
        if abs(val - ref) > ctx.tol():
            raise PrecisionError(
                f"Nystrom size m={m} is too small for tolerance "
                f"{ctx.tolerance} at x={x}: |f2(m) - f2(2m)| = {abs(val - ref)}")
        val = ref
    return round_to(val, ctx.precision_bits)
