"""Independent route to F2(x): the Fredholm determinant of the Airy-kernel
integral operator on (x, inf),

    F2(x) = det(1 - A_x),   A(u, v) = (Ai(u) Ai'(v) - Ai'(u) Ai(v)) / (u - v),

discretized by Nystrom quadrature.  The half-line is mapped algebraically to
a finite interval and truncated at u_cut, where Ai(u)^2 drops below 1e-40
(the kernel decays super-exponentially, so Gauss nodes on the mapped
interval converge spectrally).

The path from the rule to the generators runs on Python integers
(twlab.fixedpoint); after the Gauss-Legendre rule is read, no mpf
operation runs per node.  build_rule maps the Gauss nodes and weights on
the grid 2^-Q, Q = ctx.precision_bits + 48, one floor each, and returns
those integers; the reference nodes and weights on [-1, 1], which do not
depend on x, are put on that grid once per (m, precision) and kept
(_reference_rule), so a new x costs only their map.  Ai and Ai' at the
nodes come from one specialfn.airy_ai_walk_grid down from u_cut on that
grid: a full-precision start there (about u = 16.35 for every x <= 15,
so the walk's memo serves every such x), then Taylor steps down the
ascending nodes from the recurrence of Ai'' = u Ai (DLMF 9.2.1), each an
exact difference of the nodes.  Walking down is stable because Ai is the
recessive solution as u grows, so the relative error of the start is
carried, not amplified.

The kernel is integrable, which is what ties F2 to Painleve II: with a_i =
sqrt(w_i) Ai(u_i) and b_i = sqrt(w_i) Ai'(u_i), the symmetrized matrix
M_ij = delta_ij - sqrt(w_i w_j) A(u_i, u_j) is

    M_ij = (b_i a_j - a_i b_j) / (u_i - u_j),  i != j,
    M_ii = d_i = 1 - (b_i^2 - u_i a_i^2),

Cauchy-like with displacement rank 2.  nystrom_matrix returns it in that
generator form, never assembled: a, b, u and d on the grid 2^-F, F =
ctx.precision_bits + 32, each a_i and b_i from the walk's integers by one
product and one shift (its docstring states their error in units of
2^-F).  Its determinant is the product of the pivots of
linalg.cauchy_schur_pivots, a generalized Schur pass on the generators in
O(m^2) integer operations (the O(m^3) Cholesky of the assembled matrix is
left to the Toeplitz lab), multiplied in integers, cut to F + 64 bits
whenever it grows longer, and rounded once to F bits (_pivot_product).
The pass states its backward error on the grid
(linalg.cauchy_schur_entry_error, from the largest generator or multiplier
it held, the node span and gap, and m): 2^(21.6-F) at x = 4 to
2^(27.9-F) at x = -8 per entry for m = 80.

M is positive definite with eigenvalues in (0, 1]; its diagonal is at
least 0.82 at x = -8, m = 80, and nearer 1 for larger x, so the 2^-F grid
is about as accurate as F-bit floating point (see linalg).  The true
operator's norm is below 1, so a nonpositive pivot (a discretized norm that
reached 1) means the rule is too coarse for the kernel at that x: f2_fredholm
raises PrecisionError naming x and m (m = 40 at x = -12, for one; m = 80
resolves it).

This module is the cross-validation oracle for the Painleve route and never
calls into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Tuple

from mpmath import libmp, mp, mpf

from . import specialfn
from .errors import InternalConsistencyError, PrecisionError, index, real
from .fixedpoint import to_grid
from .linalg import cauchy_schur_pivots
from .precision import PrecisionContext, round_to
from .quadrature import gauss_legendre

_MAP_SCALE = 10
_TRUNC_AI_SQ = 1e-40


@dataclass(frozen=True)
class QuadratureRule:
    """Mapped Nystrom rule on (x, cut), cut the truncation point u_cut:
    the nodes (ascending) and the weights (positive) times 2^frac_bits, as
    the integers node_grid and weight_grid."""

    cut: float
    node_grid: List[int]
    weight_grid: List[int]
    frac_bits: int


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


_reference_rule_cache: Dict[Tuple[int, int, int], Tuple[List[int], List[int]]] = {}


def _reference_rule(m: int, prec: int, q: int) -> Tuple[List[int], List[int]]:
    """The m-point Gauss-Legendre nodes and weights on [-1, 1] at prec bits
    (quadrature.gauss_legendre), truncated onto the grid 2^-q: the part of
    every rule that does not depend on x, memoised per (m, prec, q)."""
    key = (m, prec, q)
    if key not in _reference_rule_cache:
        xs, ws = gauss_legendre(m, prec)
        _reference_rule_cache[key] = ([to_grid(v, q) for v in xs],
                                      [to_grid(v, q) for v in ws])
    return _reference_rule_cache[key]


def build_rule(x, m: int, ctx: PrecisionContext) -> QuadratureRule:
    """m-point Gauss-Legendre rule pushed through u = x + 10 (1+s)/(1-s),
    mapped on the grid 2^-Q, Q = ctx.precision_bits + 48: one floor per
    node and per weight.  The reference nodes and weights are put on the
    grid once per (m, precision) (_reference_rule); only their map to
    (x, u_cut) is formed per x."""
    index(m, "m", 20)
    u_cut = _truncation_point(real(x, "x"))
    prec = ctx.precision_bits + 32
    q = prec + 16
    one = 1 << q
    scale = _MAP_SCALE
    with mp.workprec(prec):
        left = to_grid(mpf(x), q)
    span = to_grid(u_cut, q) - left
    s_max = ((span - scale * one) << q) // (span + scale * one)
    half, mid = (s_max + one) >> 1, (s_max - one) >> 1
    xs, ws = _reference_rule(m, prec, q)
    nodes: List[int] = []
    weights: List[int] = []
    for s_ref, w_ref in zip(xs, ws):
        s = mid + (half * s_ref >> q)
        nodes.append(left + ((scale * (one + s)) << q) // (one - s))
        # w_ref half du/ds, du/ds = 2 scale / (1 - s)^2
        weights.append(((2 * scale * half * w_ref) << q) // (one - s) ** 2)
    return QuadratureRule(cut=u_cut, node_grid=nodes, weight_grid=weights,
                          frac_bits=q)


def nystrom_matrix(x, m: int, ctx: PrecisionContext) -> NystromGenerators:
    """delta_ij - sqrt(w_i w_j) A(u_i, u_j) in generator form on the grid
    2^-F, F = ctx.precision_bits + 32 (see the module docstring), from the
    integers of build_rule and specialfn.airy_ai_walk_grid: per node one
    math.isqrt for sqrt(w_i) on the rule's grid 2^-Q, and one product and
    one shift each for a_i and b_i.

    a_i and b_i lie within 2 units of 2^-F of sqrt(w_i) Ai(u_i) and
    sqrt(w_i) Ai'(u_i) at the rule's u_i and w_i.  The shift floors once.
    The walk runs 8 bits above the precision F - 32 it is asked for, so
    its grid keeps F + 16 bits of max(|Ai|, |Ai'|) and its error (one floor
    per term, shift and division over its m steps) stays below one unit
    of 2^-F: measured, 1.05 units together with the floor at x = -2 and
    -8, m = 80, against 24 at the precision F - 32 itself.  The isqrt's
    floor adds less than 2^-Q.  u_i is the rule's node floored onto 2^-F,
    and d_i = 1 - (b_i^2 - u_i a_i^2) is formed from these with two floors,
    so it lies within 2 + 4 (|b_i| + |u_i a_i|) + a_i^2 units of its exact
    value."""
    rule = build_rule(x, m, ctx)
    q = rule.frac_bits
    walk = specialfn.airy_ai_walk_grid(rule.node_grid + [to_grid(rule.cut, q)],
                                       q, ctx.precision_bits + 8)
    frac = ctx.precision_bits + 32
    a: List[int] = []
    b: List[int] = []
    for w, (ai, aip, f) in zip(rule.weight_grid, walk):
        sq = math.isqrt(w << q)
        a.append(sq * ai >> (q + f - frac))
        b.append(sq * aip >> (q + f - frac))
    u = [v >> (q - frac) for v in rule.node_grid]
    one = 1 << frac
    d = [one - ((bi * bi - ((ui * ai * ai) >> frac)) >> frac)
         for ai, bi, ui in zip(a, b, u)]
    return NystromGenerators(a, b, u, d, frac)


def _pivot_product(pivots: List[int], frac_bits: int) -> mpf:
    """The product of the pivots p_k 2^-F, F = frac_bits, rounded once to
    nearest at F bits.  The integer product is exact but for one cut: each
    time it grows past F + 64 bits it is truncated to F + 64, a relative
    change below 2^-(F+63), so before the one rounding it lies within
    m 2^-(F+63) relative of the exact product.  The pivots must be
    positive."""
    keep = frac_bits + 64
    man, exp = 1, -len(pivots) * frac_bits
    for p in pivots:
        man *= p
        extra = man.bit_length() - keep
        if extra > 0:
            man >>= extra
            exp += extra
    return mp.make_mpf(libmp.from_man_exp(man, exp, frac_bits, libmp.round_nearest))


def _f2_once(x, m: int, ctx: PrecisionContext) -> mpf:
    gen = nystrom_matrix(x, m, ctx)
    try:
        pivots, _ = cauchy_schur_pivots(
            *gen, "Nystrom matrix (operator norm must stay below 1)")
    except InternalConsistencyError as exc:
        raise PrecisionError(
            f"the Nystrom rule with m={m} nodes under-resolves the Airy kernel "
            f"at x={x}; take a larger m ({exc})") from exc
    return _pivot_product(pivots, gen.frac_bits)


def f2_fredholm(x, m: int, ctx: PrecisionContext,
                verify_convergence: bool = True) -> mpf:
    """F2(x) = det(1 - A_x) by Nystrom discretization with m nodes.

    With verify_convergence, the value is recomputed at 2m nodes and a
    PrecisionError is raised if the two disagree beyond ctx.tolerance.  An
    under-resolved rule (a nonpositive Schur pivot) raises PrecisionError
    too."""
    val = _f2_once(x, m, ctx)
    if verify_convergence:
        ref = _f2_once(x, 2 * m, ctx)
        if abs(val - ref) > ctx.tolerance:
            raise PrecisionError(
                f"Nystrom size m={m} is too small for tolerance "
                f"{ctx.tolerance} at x={x}: |f2(m) - f2(2m)| = {abs(val - ref)}")
        val = ref
    return round_to(val, ctx.precision_bits)
