"""Independent route to F2(x): the Fredholm determinant of the Airy-kernel
integral operator on (x, inf),

    F2(x) = det(1 - A_x),   A(u, v) = (Ai(u) Ai'(v) - Ai'(u) Ai(v)) / (u - v),

discretized by Nystrom quadrature.  The half-line is mapped algebraically to
a finite interval and truncated at u_cut, where Ai(u)^2 drops below 1e-40
(the kernel decays super-exponentially, so Gauss nodes on the mapped
interval converge spectrally).  Ai and Ai' at the nodes come from one
specialfn.airy_ai_walk down from u_cut: a full-precision start there (about
u = 16.35 for every x <= 15, so the walk's memo serves every such x), then
Taylor steps down the ascending nodes from the recurrence of Ai'' = u Ai
(DLMF 9.2.1).  Walking down is stable because Ai is the recessive solution
as u grows, so the relative error of the start is carried, not amplified;
the values are good to the working precision.

The kernel is integrable, which is what ties F2 to Painleve II: with a_i =
sqrt(w_i) Ai(u_i) and b_i = sqrt(w_i) Ai'(u_i), the symmetrized matrix
M_ij = delta_ij - sqrt(w_i w_j) A(u_i, u_j) is

    M_ij = (b_i a_j - a_i b_j) / (u_i - u_j),  i != j,
    M_ii = d_i = 1 - (b_i^2 - u_i a_i^2),

Cauchy-like with displacement rank 2.  nystrom_matrix returns it in that
generator form, never assembled: a, b, u and d on the grid 2^-F, F =
ctx.precision_bits + 32 (fixedpoint.to_grid, once).  Its determinant is the
product of the pivots of linalg.cauchy_schur_pivots, a generalized Schur
pass on the generators in O(m^2) integer operations (the O(m^3) Cholesky of
the assembled matrix is left to the Toeplitz lab).  The pass states its
backward error on the grid (linalg.cauchy_schur_entry_error, from the
largest generator or multiplier it held, the node span and gap, and m):
2^(22-F) at x = 4 to 2^(28-F) at x = -8 per entry for m = 80.

M is positive definite with eigenvalues in (0, 1]; its diagonal is at
least 0.82 at x = -8, m = 80, and nearer 1 for larger x, so the 2^-F grid
is about as accurate as F-bit floating point (see linalg).  A nonpositive
pivot (an operator norm that reached 1) raises InternalConsistencyError.

This module is the cross-validation oracle for the Painleve route and never
calls into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple

from mpmath import mp, mpf

from . import specialfn
from .errors import DomainError, PrecisionError
from .fixedpoint import to_grid
from .linalg import cauchy_schur_pivots
from .precision import PrecisionContext, round_to
from .quadrature import gauss_legendre

_MAP_SCALE = 10.0
_TRUNC_AI_SQ = 1e-40


@dataclass(frozen=True)
class QuadratureRule:
    """Mapped Nystrom rule on (x, cut), cut the truncation point u_cut:
    nodes ascending, weights positive."""

    nodes: List[mpf]
    weights: List[mpf]
    size: int
    cut: float


class NystromGenerators(NamedTuple):
    """The Nystrom matrix in the generator form of the module docstring,
    each entry times 2^frac_bits: the arguments of linalg.
    cauchy_schur_pivots, in its order."""

    a: List[int]
    b: List[int]
    u: List[int]
    d: List[int]
    frac_bits: int


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
    return QuadratureRule(nodes=nodes, weights=weights, size=m, cut=u_cut)


def nystrom_matrix(x, m: int, ctx: PrecisionContext) -> NystromGenerators:
    """delta_ij - sqrt(w_i w_j) A(u_i, u_j) in generator form on the grid
    2^-F, F = ctx.precision_bits + 32 (see the module docstring)."""
    rule = build_rule(x, m, ctx)
    airy = specialfn.airy_ai_walk(rule.nodes + [mpf(rule.cut)],
                                  ctx.precision_bits)[:-1]
    frac = ctx.precision_bits + 32
    with mp.workprec(frac):
        sq = [mp.sqrt(w) for w in rule.weights]
        a = [to_grid(s * ai, frac) for s, (ai, _) in zip(sq, airy)]
        b = [to_grid(s * aip, frac) for s, (_, aip) in zip(sq, airy)]
        u = [to_grid(v, frac) for v in rule.nodes]
    one = 1 << frac
    d = [one - ((bi * bi - ((ui * ai * ai) >> frac)) >> frac)
         for ai, bi, ui in zip(a, b, u)]
    return NystromGenerators(a, b, u, d, frac)


def _f2_once(x, m: int, ctx: PrecisionContext) -> mpf:
    gen = nystrom_matrix(x, m, ctx)
    pivots, _ = cauchy_schur_pivots(
        *gen, "Nystrom matrix (operator norm must stay below 1)")
    with mp.workprec(gen.frac_bits):
        return mp.ldexp(mp.fprod(pivots), -m * gen.frac_bits)


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
