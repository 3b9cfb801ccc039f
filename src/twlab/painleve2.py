"""Hastings-McLeod problem: solve q'' = 2 q^3 + x q between asymptotic
boundary conditions and expose q, q', R = (q')^2 - x q^2 - q^4 and their
integrals.

The problem is posed as a two-point BVP on piecewise Chebyshev-Lobatto
collocation elements.  A damped float64 Newton iteration (numpy, with a
block-tridiagonal elimination of the Jacobian) reaches the float64 rounding
floor; defect correction then brings the solution to the requested
precision: the float64 Jacobian is eliminated once, and each sweep
evaluates the residual at the working precision and subtracts J64^-1 r
(iterative refinement).  The refinement runs in fixed point on Python
integers (twlab.fixedpoint) on one grid 2^-F per mesh: the edges and the
reference nodes go on it once, and the nodes, the scales 2/h and 4/h^2 and
D1 are formed from them in integers, with no mpf operation per node.  D1 is
exactly skew-centrosymmetric on the grid, so D2 = D1 D1 is exactly
centrosymmetric, and every dot with either is folded by parity, at half
the products (the DCT below folds to a quarter).  u and r stay on the grid.
Each float64 value (the warm start, then each step) enters it as a short
integer and a shift read from np.frexp, and each row of D u is built and
updated from those alone, by short products.  numpy is imported only by
the solve; reading a stored solution never needs it.
One-sided shooting is useless here: the wanted solution is a separatrix and
the growing modes amplify like exp(c |x|^(3/2)) from either end, which is
exactly why the two-point formulation is mandatory.

The solution is stored once, as each element's nodal values of q and q'.
Every read goes through one integer table (_Table) per read, integrand and
precision, built whole for that read: _points for q and q' at a point,
_integrals for the integrals of q and R.  Both start from each element's
exact Chebyshev coefficients (_coefficients), an integer DCT-I of its nodal
values folded by the matrix's parities, with no mpf operation per node: the
stored values go on each element's grid from their raw mantissas
(fixedpoint.row_to_grid), R's nodal values are formed in integers from the
edges and the reference nodes, each put on one exact grid once per
solution (_exact_grid, _r_row), and the DCT matrix is shifted from one row
of p + 1 products (_dct_on_grid).  No table keeps those coefficients: a
point table regrids every row to its own fixed-point grid
(fixedpoint.regrid; q spans seven decades on the default window, so one
grid for all rows would lose the relative accuracy where q is small), and
an integral table integrates them term by term.  No command reads one
integrand both ways, so R never forms point rows and q' never forms
integrals.  A read puts x on its table's grid as the caller passes it (a
float exactly) and checks the window in integers (_Table.locate): only an
x that lands on an end of the window, or is not finite, costs an mpf
comparison.  A point value of q or q' is then one bisection, one floor
division for the element coordinate and one integer Clenshaw sum over the
element's row; an integral of q or R is one such sum of the antiderivative
row plus a cumulative edge value, per end point (integrate_kind).  The
integral from x_left, which both Tracy-Widom representations read, needs
no sum at its x_left end: each integral table reads that end once, and
cumulative_integrals locates x once for R and q, whose tables share one
grid, and subtracts it from one sum per integrand.  Both read through
_integral: the cumulative edge value plus the sum, less the start, each
rounded to nearest at precision_bits + REPORT_GUARD on raw mpf tuples,
with no ambient precision switch.

The left boundary data come from the large-negative expansion

    q(x) = sqrt(-x/2) (1 + a_1 x^-3 + a_2 x^-6 + ...),

whose coefficients satisfy a closed recursion obtained by substituting the
ansatz into the ODE:

    a_m = (c_m a_{m-1} - T_m) / 2,
    c_m = 1/4 - 9 (m-1)^2,
    T_m = sum_{i+j+k=m, i,j,k<m} a_i a_j a_k.

This reproduces a_1 = 1/8 and a_2 = -73/128 exactly (printed sources
disagree beyond a_2; the tests check the recursion against the ODE).  The
A_k = 2^(4k) a_k are integers.  With S_m = sum_j A_j A_{m-j} and I_m its
part without A_m (0 < j < m), 2^(4m) T_m = sum_{0<i<m} A_i S_{m-i} + I_m,
so one O(m) integer step gives each coefficient (_left_series):

    2 A_m = (4 - 144 (m-1)^2) A_{m-1} - sum_{0<i<m} A_i S_{m-i} - I_m,
    S_m = I_m + 2 A_m.

As R' = -q^2 = (x/2) P(x^-3)^2 with P(v) = sum a_k v^k, the same S_m give
R = sum rho_m x^(2-3m), rho_m = S_m / (2^(4m+1) (2 - 3m)), with no constant
of integration (2 - 3m is never 0).

The series is asymptotic.  Each sum over it is precision.sum_to_least_term,
the one rule for every asymptotic series of the library: it stops at the
first term that does not shrink, or that lies below 2^-prec of the sum,
and returns that first omitted term as its error estimate (optimal
truncation; Boyd, Acta Appl. Math. 56, 1999): at x = -12, after some 21
terms, 2.3e-19 for q and about 5e-20 for the tail integrals of q and R.
"""

from __future__ import annotations

import json
import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List, Sequence,
                    Tuple, TypeVar)

from mpmath import libmp, mp, mpf

from . import fixedpoint, specialfn
from .errors import DomainError, SolverError, index, real
from .precision import REPORT_GUARD, PrecisionContext, round_to, sum_to_least_term

if TYPE_CHECKING:
    import numpy as np

SCHEMA_VERSION = 2
# Raise when a change to the solver or its window policy changes the
# solution it returns for the same arguments; disk caches are keyed by it.
SOLVER_VERSION = 6

log = logging.getLogger(__name__)
T = TypeVar("T")


# ---------------------------------------------------------------------------
# Large-negative-x series for q and R
# ---------------------------------------------------------------------------

def _left_series() -> Iterator[Tuple[int, int]]:
    """(A_k, S_k) for k = 0, 1, 2, ... without end: A_k = 2^(4k) a_k and
    S_k = sum_j A_j A_(k-j), both integers (see the module docstring)."""
    a, s = [1], [1]
    yield 1, 1
    for m in count(1):
        inner = sum(a[j] * a[m - j] for j in range(1, m))
        twice = ((4 - 144 * (m - 1) ** 2) * a[m - 1] - inner
                 - sum(a[i] * s[m - i] for i in range(1, m)))
        assert not twice & 1, "a left-series coefficient left the 2^-4k grid"
        a.append(twice >> 1)
        s.append(inner + twice)
        yield a[m], s[m]


def r_left_series_coefficients(order: int) -> Tuple[Fraction, ...]:
    """rho_0..rho_order of R(x) = sum rho_m x^(2-3m), exactly.  (The x^-9
    coefficient of R/(x^2/4) printed in the sources does not match this
    series; the tests check its scale against the solved R.)"""
    return tuple(Fraction(s, 2 * 16 ** m * (2 - 3 * m))
                 for m, (_, s) in zip(range(order + 1), _left_series()))


def _left_terms(x) -> Iterator[Tuple[int, int, int, mpf]]:
    """(k, A_k, S_k, (16 x^3)^-k) for k = 0, 1, 2, ...: the k-th term of
    each left series is a rational multiple of A_k or S_k times the power."""
    v = 1 / (16 * mpf(x) ** 3)
    return ((k, a, s, v ** k) for k, (a, s) in enumerate(_left_series()))


def q_left_boundary_value(x) -> Tuple[mpf, mpf]:
    """Optimally truncated left-series value of q and its error estimate."""
    pref = mp.sqrt(-mpf(x) / 2)
    s, omitted = sum_to_least_term(a * w for _, a, _, w in _left_terms(x))
    return pref * s, pref * omitted


def left_tail_q_regularized(x_left) -> Tuple[mpf, mpf]:
    """integral_{-inf}^{x_left} (q(y) - sqrt(|y|/2)) dy from the series.

    The k-th term, a_k sqrt(|y|/2) y^(-3k), integrates to
    sqrt(|x|^3/2) a_k x^(-3k) / (3k - 3/2) at x = x_left.
    Returns (value, error estimate = first omitted term's integral)."""
    pref = mp.sqrt(-mpf(x_left) ** 3 / 2)
    s, omitted = sum_to_least_term(2 * a * w / (6 * k - 3)
                                   for k, a, _, w in _left_terms(x_left) if k)
    return pref * s, pref * omitted


def left_tail_r_regularized(x_left) -> Tuple[mpf, mpf]:
    """integral_{-inf}^{x_left} (R(y) - y^2/4 + 1/(8y)) dy from the series.

    Term m >= 2, rho_m y^(2-3m), integrates to |x|^3 rho_m x^(-3m) / (3m-3)
    at x = x_left."""
    pref = -mpf(x_left) ** 3
    total, omitted = sum_to_least_term(s * w / (6 * (2 - 3 * m) * (m - 1))
                                       for m, _, s, w in _left_terms(x_left) if m > 1)
    return pref * total, pref * omitted


# ---------------------------------------------------------------------------
# Collocation discretization
# ---------------------------------------------------------------------------

def _lobatto_nodes(p: int) -> List[mpf]:
    """Chebyshev-Lobatto nodes on [-1, 1], ascending."""
    return [-mp.cos(mp.pi * j / p) for j in range(p + 1)]


def _diff_matrix(nodes: Sequence, frac: int) -> List[List[int]]:
    """First-derivative collocation matrix for the Lobatto nodes on the grid
    2^-frac, exactly skew-centrosymmetric: the entries of rows 0..p/2 (the
    left half of the middle row) are computed at the working precision and
    truncated onto the grid, row p - i is minus row i reversed, and each
    diagonal entry is minus its row's off-diagonal sum (for stability), so
    every row sums to zero."""
    p = len(nodes) - 1
    c = [2 if j in (0, p) else 1 for j in range(p + 1)]
    d = [[0] * (p + 1) for _ in range(p + 1)]
    for i in range(p // 2 + 1):
        for j in range(p + 1):
            if j != i and (2 * i < p or 2 * j < p):
                v = fixedpoint.to_grid((c[i] / c[j]) * (-1) ** (i + j)
                                       / (nodes[i] - nodes[j]), frac)
                d[i][j], d[p - i][p - j] = v, -v
    for i, row in enumerate(d):
        row[i] = -sum(row)
    return d


def _fold(rows: Sequence[Sequence[int]], sign: int):
    """The rows i <= p/2 of a (p+1)-column operator whose row p - i is
    ``sign`` times row i reversed, folded for _folded_dots: per row
    (ev, od, sign) with ev_j = M_ij + M_i,p-j and od_j = M_ij - M_i,p-j for
    j < p/2, and ev ending in M_i,p/2 when p is even.  A half that is all
    zero (the middle row's) is left empty."""
    p = len(rows[0]) - 1
    n = (p + 1) // 2
    out = []
    for row in rows:
        ev = [row[j] + row[p - j] for j in range(n)] + ([row[n]] if p % 2 == 0 else [])
        od = [row[j] - row[p - j] for j in range(n)]
        out.append((ev if any(ev) else [], od if any(od) else [], sign))
    return out


def _folded_dots(pairs, v: Sequence[int]) -> List[int]:
    """The exact dots of every row of a folded operator (_fold) with v,
    folded by parity as _dct is: with s_j = v_j + v_(p-j) and
    a_j = v_j - v_(p-j), j <= p/2, E = ev . s and O = od . a, row i is
    (E + O)/2 and row p - i is sign (E - O)/2, half the products of the
    full rows."""
    p = len(v) - 1
    rev = v[::-1]
    s = [x + y for x, y in zip(v[:p // 2 + 1], rev)]
    a = [x - y for x, y in zip(v[:(p + 1) // 2], rev)]
    dot = fixedpoint.dot
    out = [0] * (p + 1)
    for i, (ev, od, sign) in enumerate(pairs):
        e, o = dot(ev, s), dot(od, a)
        out[i] = (e + o) >> 1
        out[p - i] = sign * ((e - o) >> 1)
    return out


# Fraction bits of the refinement's fixed-point grid beyond the working
# precision prec: u, its residual and the operators live on the grid
# 2^-(prec + 48).  D1 is prec-bit values no smaller than 2^-48, truncated
# onto it (exactly, in practice) and mirrored; D2 is the exact integer
# product D1 D1 floored once onto it.  The nodes and the scales 2/h and
# 4/h^2 come from the edges and the reference nodes on the grid, one floor
# each.  A floor costs one unit, and a row of 4/h^2 D2 sums to about 2^21 in
# absolute value on the default mesh (2^27 at h = 0.058), so the residual is
# good to about 2^-(prec + 26), far below the stop at 2^-(prec - 24).  An mp
# copy of u at prec bits would add 2^-prec times that row sum, which exceeds
# the stop once the row sum passes 2^24.  The dots D2 u and D1 u (units
# 2^-2F) are built and updated from float64 steps only, each a short
# integer shifted, so they stay exact and no sweep adds a floor to these.
_RESIDUAL_GUARD = 48


class _Mesh:
    """Element layout and operators on the refinement's fixed-point grid
    2^-frac, frac = precision + _RESIDUAL_GUARD, formed in integers: the
    edges and the reference nodes are put on the grid once, each node is
    ((a + b) 2^F + (b - a) t) >> (F + 1) and the scales 2/h and 4/h^2 are
    2^(2F+1) // (b - a) and 2^(3F+2) // (b - a)^2.  D1 (_diff_matrix) is
    exactly skew-centrosymmetric, so D2 = (D1 D1) >> F is exactly
    centrosymmetric and only its top half is multiplied out.  The rows the
    residual reads (dot_pairs) and D1 (d1_pairs) are kept folded for
    _folded_dots.  The float64 copies for the Jacobian are read from these
    integers.  The mpf edges and reference nodes are kept for the stored
    solution."""

    def __init__(self, x_left: mpf, x_right: mpf, k_elems: int, p: int):
        import numpy as np

        self.k = k_elems
        self.p = p
        f = self.frac = mp.prec + _RESIDUAL_GUARD
        grid, dot = fixedpoint.to_grid, fixedpoint.dot
        self.edges = [x_left + (x_right - x_left) * e / k_elems
                      for e in range(k_elems + 1)]
        self.ref = _lobatto_nodes(p)
        edges = [grid(v, f) for v in self.edges]
        ref = [grid(t, f) for t in self.ref]
        bounds = list(zip(edges, edges[1:]))
        self.h_fixed = [b - a for a, b in bounds]
        self.nodes_fixed = [[(((a + b) << f) + (b - a) * t) >> (f + 1) for t in ref]
                            for a, b in bounds]
        self.scale1_fixed = [(1 << (2 * f + 1)) // h for h in self.h_fixed]
        self.scale2_fixed = [(1 << (3 * f + 2)) // (h * h) for h in self.h_fixed]
        d1 = self.d1_fixed = _diff_matrix(self.ref, f)
        half = p // 2 + 1
        top = [[dot(row, col) >> f for col in zip(*d1)] for row in d1[:half]]
        self.d2_fixed = top + [top[p - i][::-1] for i in range(half, p + 1)]
        # the rows whose dots with u the residual reads: D1 at node 0, D2 at
        # the interior nodes, D1 at node p (minus node 0's row reversed)
        self.dot_pairs = _fold(d1[:1], -1) + _fold(top[1:], 1)
        self.d1_pairs = _fold(d1[:half], -1)
        # int / int rounds correctly; float() of an integer this long overflows
        one = 1 << f
        self.d1_f = np.array([[v / one for v in row] for row in d1])
        self.d2_f = np.array([[v / one for v in row] for row in self.d2_fixed])
        self.h_f = np.array([h / one for h in self.h_fixed])
        self.nodes_f = np.array([[x / one for x in row] for row in self.nodes_fixed])


def _steps_on_grid(delta: np.ndarray, scale: int) -> List[Tuple[List[int], int]]:
    """Per row of the float64 array delta, (m, s) with m_j 2^s equal to
    fixedpoint.to_grid(delta_j, scale), truncated toward zero, m short.

    np.frexp splits each entry into a 53-bit integer mantissa and an
    exponent; its trailing zeros and the bits below the grid are shifted
    off in int64, and s is the least remaining exponent of the row.  No
    float ever holds delta 2^scale, which overflows for scale near 1024."""
    import numpy as np

    if not np.isfinite(delta).all():
        raise SolverError("float64 refinement step is not finite")
    mant, ex = np.frexp(delta)
    man = (mant * 2.0 ** 53).astype(np.int64)
    shift = ex.astype(np.int64) + (scale - 53)
    low = np.minimum(np.maximum(-shift, 0), 63)
    man = np.sign(man) * (np.abs(man) >> low)
    tz = np.frexp((man & -man).astype(float))[1] - 1
    man >>= np.maximum(tz, 0)
    shift = np.maximum(shift, 0) + np.maximum(tz, 0)
    nonzero = man != 0
    base = np.where(nonzero, shift, np.iinfo(np.int64).max).min(axis=1)
    base = np.where(nonzero.any(axis=1), base, 0)
    shift = np.where(nonzero, shift - base[:, None], 0)
    return [([m << d for m, d in zip(mrow, drow)], b)
            for mrow, drow, b in zip(man.tolist(), shift.tolist(), base.tolist())]


def _subtract_step(mesh: _Mesh, de: List[int], step: Tuple[List[int], int]) -> List[int]:
    """The dots de of a block u_e (D1 u at node 0, D2 u at nodes 1..p-1 and
    D1 u at node p, units 2^-2F) updated to u_e - m 2^s, exactly, for the
    step (m, s) of _steps_on_grid: D (u_e - m 2^s) = D u_e - (D m) 2^s,
    with D m folded dots of short integers."""
    m, shift = step
    if not any(m):
        return de
    return [d - (w << shift) for d, w in zip(de, _folded_dots(mesh.dot_pairs, m))]


def _ode_residual(mesh: _Mesh, u: List[List[int]], dots: List[List[int]],
                  bc_l: int, bc_r: int) -> List[List[int]]:
    """Residual blocks of the nodal blocks u, both on the mesh's grid 2^-F,
    F = mesh.frac, given their dots (_subtract_step) and the boundary values
    on the grid; row 0/p of each element carry the boundary or coupling
    conditions, rows 1..p-1 the ODE.

    Each D2 u or D1 u is an exact dot (units 2^-2F), and the 4/h^2 or 2/h
    scale multiplies it before one shift back to the grid, so each entry
    carries a few floors of 2^-F (see _RESIDUAL_GUARD)."""
    k, p, f = mesh.k, mesh.p, mesh.frac
    ff = 2 * f
    s1, s2 = mesh.scale1_fixed, mesh.scale2_fixed
    res = []
    for e in range(k):
        ue, de, xs = u[e], dots[e], mesh.nodes_fixed[e]
        r = [0] * (p + 1)
        r[0] = ue[0] - bc_l if e == 0 else u[e - 1][p] - ue[0]
        for i in range(1, p):
            v = ue[i]
            r[i] = (((s2[e] * de[i]) >> ff)
                    - (((((2 * v * v) >> f) + xs[i]) * v) >> f))
        if e == k - 1:
            r[p] = ue[p] - bc_r
        else:
            r[p] = (s1[e] * de[p] - s1[e + 1] * dots[e + 1][0]) >> ff
        res.append(r)
    return res


def _residual64(mesh: _Mesh, u: np.ndarray, bc_l: float, bc_r: float) -> np.ndarray:
    """_ode_residual in float64 on the (k, p+1) nodal array."""
    import numpy as np

    d1, d2, h = mesh.d1_f, mesh.d2_f, mesh.h_f
    inner = u[:, 1:-1]
    r = np.empty_like(u)
    r[:, 1:-1] = ((4 / h ** 2)[:, None] * (u @ d2[1:-1].T)
                  - (2 * inner ** 2 + mesh.nodes_f[:, 1:-1]) * inner)
    r[0, 0] = u[0, 0] - bc_l
    r[1:, 0] = u[:-1, -1] - u[1:, 0]
    r[:-1, -1] = (2 / h[:-1]) * (u[:-1] @ d1[-1]) - (2 / h[1:]) * (u[1:] @ d1[0])
    r[-1, -1] = u[-1, -1] - bc_r
    return r


def _factor64(mesh: _Mesh, u: np.ndarray):
    """Block elimination of the float64 Jacobian at ``u``.

    The Jacobian is block tridiagonal: diagonal blocks A_e, a sub-diagonal
    block with the single unit entry (0, p) (continuity of q) and a
    super-diagonal block whose only nonzero row p is c_e (continuity of q').
    So A_e^-1 times the super-diagonal block is the rank-one g_e c_e^T with
    g_e = A_e^-1 e_p, and eliminating it changes only row 0 of the next
    pivot block.  Returns (inverted pivot blocks, g, c) for _solve64."""
    import numpy as np

    d1, d2, h = mesh.d1_f, mesh.d2_f, mesh.h_f
    k, n = u.shape
    a = np.zeros((k, n, n))
    a[:, 1:-1, :] = (4 / h ** 2)[:, None, None] * d2[1:-1]
    inner = np.arange(1, n - 1)
    a[:, inner, inner] -= 6 * u[:, 1:-1] ** 2 + mesh.nodes_f[:, 1:-1]
    a[:, 0, 0] = -1.0
    a[0, 0, 0] = 1.0
    a[:-1, -1, :] = (2 / h[:-1])[:, None] * d1[-1]
    a[-1, -1, -1] = 1.0
    c = -(2 / h[1:])[:, None] * d1[0]
    inv = np.empty_like(a)
    for e in range(k):
        if e:
            a[e, 0] -= inv[e - 1, -1, -1] * c[e - 1]
        inv[e] = np.linalg.inv(a[e])
    return inv, inv[:-1, :, -1], c


def _solve64(fac, r: np.ndarray) -> np.ndarray:
    """J^-1 r for the Jacobian eliminated by _factor64."""
    import numpy as np

    inv, g, c = fac
    y = np.empty_like(r)
    carry = 0.0
    for e in range(len(r)):
        b = r[e].copy()
        b[0] -= carry
        y[e] = inv[e] @ b
        carry = y[e, -1]
    for e in range(len(r) - 2, -1, -1):
        y[e] -= g[e] * (c[e] @ y[e + 1])
    return y


def _initial_guess(x: np.ndarray) -> np.ndarray:
    """Ai(0) exp(-2/3 x^(3/2)) for x >= 0, sqrt(-x/2) for x <= -1, and a
    linear blend between Ai(0) and sqrt(1/2) on (-1, 0)."""
    import numpy as np

    ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    right = ai0 * np.exp(-2.0 / 3.0 * np.maximum(x, 0.0) ** 1.5)
    w = -x
    blend = (1 - w) * ai0 + w * np.sqrt(0.5)
    left = np.sqrt(np.maximum(-x, 0.0) / 2.0)
    return np.where(x >= 0.0, right, np.where(x <= -1.0, left, blend))


_WARM_MAX_ITER = 40
_WARM_ACCEPT = 1e-6


def _warm_start(mesh: _Mesh, bc_l: float, bc_r: float):
    """Damped (Armijo-backtracked) float64 Newton from the asymptotic guess.

    Stops at the float64 rounding floor: once the residual is below
    _WARM_ACCEPT, a full Newton step that does not lower it is noise.
    Returns (u, the _factor64 elimination of the Jacobian at u), so that
    _refine does not eliminate it again."""
    import numpy as np

    def trial(lam):
        v = u - lam * delta
        r = _residual64(mesh, v, bc_l, bc_r)
        return v, r, np.abs(r).max()

    u = _initial_guess(mesh.nodes_f)
    res = _residual64(mesh, u, bc_l, bc_r)
    norm = np.abs(res).max()
    fac = _factor64(mesh, u)
    for it in range(1, _WARM_MAX_ITER + 1):
        delta = _solve64(fac, res)
        lam = 1.0
        u_new, res_new, norm_new = trial(lam)
        if norm <= _WARM_ACCEPT and norm_new > 0.75 * norm:
            break
        while norm_new > (1 - 0.25 * lam) * norm:
            lam /= 2
            if lam < 1e-8:
                raise SolverError("float64 warm start: backtracking stalled",
                                  residual=float(norm))
            u_new, res_new, norm_new = trial(lam)
        u, res, norm = u_new, res_new, norm_new
        fac = _factor64(mesh, u)
    log.debug("float64 warm start: %d Newton iterations, residual %.3e", it, norm)
    if norm > _WARM_ACCEPT:
        raise SolverError("float64 warm start did not converge", residual=float(norm))
    return u, fac


def _refine(mesh: _Mesh, u64: np.ndarray, fac, bc_l: mpf, bc_r: mpf, stop: mpf):
    """Defect correction at the working precision: u <- u - J64^-1 r(u), with
    the float64 Jacobian J64 = J(u64) eliminated once, by the warm start
    that returned u64 and ``fac`` (Higham, Accuracy and Stability, ch. 12).
    u and r stay on the mesh's fixed-point grid
    2^-F, F = mesh.frac, throughout: each sweep is one integer residual
    (_ode_residual), one float64 solve and one integer subtraction per node.
    Every float64 value enters the grid through _steps_on_grid, as a short
    integer m and a shift s, and the dots D u the residual reads follow it
    by _subtract_step: u starts at 0 and takes the step -u64, and each sweep
    subtracts its step, so every dot is an exact sum of folded short
    products and no full-width product is ever formed.  The grid lies
    _RESIDUAL_GUARD bits below the working precision, so the rounding of u
    sets no floor on the residual above ``stop`` on a fine mesh.

    r is divided by a power of two at least its largest entry before it is
    rounded to float64, so its size never underflows.  Raises SolverError
    if a sweep does not halve the residual.  Returns (u, residual blocks),
    both on the grid."""
    import numpy as np

    f, p = mesh.frac, mesh.p
    u = [[0] * (p + 1) for _ in range(mesh.k)]
    dots = [[0] * (p + 1) for _ in range(mesh.k)]

    def subtract(steps):
        for e, step in enumerate(steps):
            m, shift = step
            u[e] = [v - (w << shift) for v, w in zip(u[e], m)]
            dots[e] = _subtract_step(mesh, dots[e], step)

    subtract(_steps_on_grid(-u64, f))
    bc_l, bc_r = fixedpoint.to_grid(bc_l, f), fixedpoint.to_grid(bc_r, f)
    res = _ode_residual(mesh, u, dots, bc_l, bc_r)
    norm = max(abs(v) for row in res for v in row)
    limit = fixedpoint.to_grid(stop, f)
    sweep = 0
    while norm > limit:
        sweep += 1
        # r / 2^scale lies in [-1, 1]; J^-1 of it is the step in units 2^-(F - scale)
        scale = norm.bit_length()
        den = 1 << scale
        delta = _solve64(fac, np.array([[v / den for v in row] for row in res]))
        subtract(_steps_on_grid(delta, scale))
        res = _ode_residual(mesh, u, dots, bc_l, bc_r)
        new = max(abs(v) for row in res for v in row)
        log.debug("refinement sweep %d: residual %s", sweep,
                  mp.nstr(fixedpoint.from_grid(new, f), 3))
        if 2 * new > norm:
            raise SolverError("defect correction stopped contracting",
                              residual=fixedpoint.from_grid(new, f, mp.prec))
        norm = new
    return u, res


# ---------------------------------------------------------------------------
# Public solution object
# ---------------------------------------------------------------------------

# Guard bits of the fixed-point reads beyond the requested precision: the
# largest coefficient of each row, and t, carry bits + _READ_GUARD bits, so
# the n^2/2 units a degree-24 Clenshaw sum can lose (fixedpoint) leave about
# 23 bits to spare against the row's largest coefficient.
_READ_GUARD = 32


@dataclass
class HMSolution:
    """Immutable solution record.

    Stores each element's edges and its nodal values of q and q' once.
    Every value derived from them is kept by ``cached``, its one memo rule:
    the Tracy-Widom constants of twdist, the integer tables of _points and
    _integrals that every read goes through (the table checks and locates x
    in integers, _Table.locate, and sums one row), and the edges and the
    reference nodes on one grid each, which the tables of every precision
    shift (_r_row).
    from_json_dict decodes each stored value exactly and rejects, with a
    ValueError, a document that lacks a stored key, whose arrays do not fit
    together or whose values could not have been written by to_json_dict:
    edges that do not ascend strictly from x_left to x_right, a ref that
    does not ascend strictly from -1 to 1, or fewer than 64 precision
    bits.

    The library is single-threaded (mp.workprec sets the process-global
    mp.prec), so the memo dict needs no lock."""

    x_left: mpf
    x_right: mpf
    residual_norm: mpf
    precision_bits: int
    _edges: List[mpf] = field(repr=False)
    _elem_q: List[List[mpf]] = field(repr=False)
    _elem_qp: List[List[mpf]] = field(repr=False)
    _ref: List[mpf] = field(repr=False)
    _cum_cache: dict = field(repr=False, default_factory=dict, compare=False)

    @property
    def p(self) -> int:
        return len(self._ref) - 1

    @property
    def elements(self) -> int:
        return len(self._elem_q)

    def _read(self, kind: str, x) -> mpf:
        """Integer Clenshaw sum of the located element's row of the ``kind``
        table, rounded to max(mp.prec, precision_bits + REPORT_GUARD) bits."""
        bits = self.precision_bits
        table = self.cached(("points", kind, bits), _points, self, kind, bits)
        e, t = table.locate(x)
        frac, row = table.rows[e]
        return fixedpoint.from_grid(fixedpoint.clenshaw(row, t, table.frac),
                                    frac, max(mp.prec, bits + REPORT_GUARD))

    def cached(self, key, build: Callable[..., T], *args) -> T:
        """build(*args) once per key for this solution; later calls share
        its value.  Quantities derived from one solution are kept here rather
        than in module-level memos, so they live and die with it."""
        hit = self._cum_cache.get(key)
        if hit is None:
            hit = self._cum_cache[key] = build(*args)
        return hit

    def q_at(self, x) -> mpf:
        return self._read("q", x)

    def q_prime_at(self, x) -> mpf:
        return self._read("qp", x)

    def to_json_dict(self) -> dict:
        def enc(v: mpf):
            sign, man, exp, bc = v._mpf_
            return [sign, hex(int(man)), exp, bc]

        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "hastings_mcleod_solution",
            "precision_bits": self.precision_bits,
            "x_left": enc(self.x_left),
            "x_right": enc(self.x_right),
            "residual_norm": enc(self.residual_norm),
            "edges": list(map(enc, self._edges)),
            "elem_q": [list(map(enc, row)) for row in self._elem_q],
            "elem_qp": [list(map(enc, row)) for row in self._elem_qp],
            "ref": list(map(enc, self._ref)),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, doc: dict) -> "HMSolution":
        if not isinstance(doc, dict) or doc.get("schema_version") != SCHEMA_VERSION:
            raise ValueError("unsupported solution schema version")

        def dec(t):
            # one exact normalisation of the stored (sign, man, exp, bc)
            sign, man_hex, exp, bc = t
            man = int(man_hex, 16)
            if (sign not in (0, 1) or man < 0 or type(exp) is not int
                    or bc != man.bit_length()):
                raise ValueError(f"solution document holds a malformed value {t!r}")
            return mp.make_mpf(libmp.from_man_exp(-man if sign else man, exp))

        try:
            x_left, x_right, residual_norm = (
                dec(doc[k]) for k in ("x_left", "x_right", "residual_norm"))
            edges = list(map(dec, doc["edges"]))
            elem_q = [list(map(dec, r)) for r in doc["elem_q"]]
            elem_qp = [list(map(dec, r)) for r in doc["elem_qp"]]
            ref = list(map(dec, doc["ref"]))
            bits = doc["precision_bits"]
        except KeyError as exc:
            raise ValueError(f"solution document has no {exc.args[0]!r}") from exc
        except TypeError as exc:
            raise ValueError(f"solution document holds a value of the wrong "
                             f"type: {exc}") from exc
        if not (elem_q and len(edges) == len(elem_q) + 1 == len(elem_qp) + 1
                and all(len(row) == len(ref) for row in elem_q + elem_qp)):
            raise ValueError("solution arrays do not fit together: need "
                             "len(edges) = len(elem_q) + 1 = len(elem_qp) + 1 "
                             "and len(ref) entries in every row")
        if type(bits) is not int or bits < 64:
            raise ValueError("solution precision_bits is not an integer >= 64")
        if not (edges[0] == x_left and edges[-1] == x_right
                and all(a < b for a, b in zip(edges, edges[1:]))):
            raise ValueError("solution edges do not ascend strictly from "
                             "x_left to x_right")
        if not (ref[0] == -1 and ref[-1] == 1
                and all(a < b for a, b in zip(ref, ref[1:]))):
            raise ValueError("solution ref does not ascend strictly from -1 to 1")
        return cls(
            x_left=x_left,
            x_right=x_right,
            residual_norm=residual_norm,
            precision_bits=bits,
            _edges=edges,
            _elem_q=elem_q,
            _elem_qp=elem_qp,
            _ref=ref,
        )

    @classmethod
    def from_json(cls, text: str) -> "HMSolution":
        return cls.from_json_dict(json.loads(text))


def r_of(solution: HMSolution, x) -> mpf:
    """R(x) = (q')^2 - x q^2 - q^4 from the interpolated solution."""
    with mp.workprec(max(mp.prec, solution.precision_bits + REPORT_GUARD)):
        x = mpf(x)
        q = solution.q_at(x)
        qp = solution.q_prime_at(x)
        return qp * qp - x * q * q - q ** 4


# ---------------------------------------------------------------------------
# Chebyshev tables on the collocation elements
# ---------------------------------------------------------------------------

# Guard bits of q and q' beyond the R row's width (_r_row).  Truncating q, q'
# and x onto the grid 2^-F moves R by about (2|q'| + 2|x q| + q^2) 2^-F.  At
# the right end q' is about -sqrt(x) q and R only (q')^2 / (2 x^(3/2)), so R
# loses about 10 bits against q and q' at x = 8 (11 at x = 12); 16 keep those
# floors a small fraction of one unit of R's row grid.
_R_GUARD = 16


def _r_row(solution: HMSolution, e: int, width: int) -> Tuple[int, List[int]]:
    """Element e's nodal values of R = (q')^2 - x q^2 - q^4 as a row
    (F, integers) with ``width`` bits in its largest entry.

    q, q' and the nodes x = (a + b)/2 + (b - a)/2 t go on one grid 2^-F_e,
    F_e = width + _R_GUARD - mag(largest |q|, |q'|) (fixedpoint.row_to_grid;
    x costs one floor), so R is exact on them in units 2^-4F_e and one
    fixedpoint.regrid takes it to the row's width.  The edges and the
    reference nodes t are kept once per solution as exact integers on their
    finest grids (_exact_grid) and shifted to each F_e (fixedpoint.rescale),
    which gives fixedpoint.to_grid(v, F_e) of each without an mpf."""
    q = solution._elem_q[e]
    n = len(q)
    f, grid = fixedpoint.row_to_grid(q + solution._elem_qp[e], width + _R_GUARD)
    ge, edges = solution.cached(("edges",), _exact_grid, solution._edges)
    a, b = fixedpoint.rescale(edges[e:e + 2], ge, f)
    g, ref = solution.cached(("ref",), _exact_grid, solution._ref)
    ref = fixedpoint.rescale(ref, g, f)
    mid = (a + b) << f
    r = []
    for t, v, vp in zip(ref, grid[:n], grid[n:]):
        x = (mid + (b - a) * t) >> (f + 1)
        v2 = v * v
        r.append(((vp * vp) << (2 * f)) - ((x * v2) << f) - v2 * v2)
    return fixedpoint.regrid(r, 4 * f, width)


def _exact_grid(values: Sequence[mpf]) -> Tuple[int, List[int]]:
    """(G, [v 2^G]): the values as exact integers on the grid 2^-G of their
    smallest unit, G = max(-exp) over the nonzero ones."""
    g = max(-v._mpf_[2] for v in values if v)
    return g, [fixedpoint.to_grid(v, g) for v in values]


_dct_cache: Dict[Tuple[int, int], Tuple[int, List[List[int]]]] = {}


def _dct_on_grid(p: int, bits: int) -> Tuple[int, List[List[int]]]:
    """(F, rows): the first floor(p/2) + 1 columns of the (p+1) x (p+1)
    DCT-I matrix that takes the values at -cos(pi j/p) to the coefficients
    of T_0..T_p, on the reads' grid 2^-F, F = bits + _READ_GUARD.  Entry
    (n, j) is (-1)^n h_n h_j (2/p) cos(pi m/p), m = nj mod 2p, with
    h = 1/2 at the ends 0 and p and 1 elsewhere, formed at F + 16 bits and
    truncated onto the grid, its one error.  cos(pi (2p - m)/p) =
    cos(pi m/p), so p + 1 products P_m = (2/p) cos(pi m/p) serve, each
    rounded once at F + 16 bits and truncated onto the grid once.  The
    entry is then a signed right shift of P_m's integer by the number of
    ends among n and j: rounding to nearest commutes with the exact factors
    +-1, 1/2 and 1/4, so the entry formed in mpf is that factor times P_m,
    and truncation toward zero commutes with a right shift
    (trunc(trunc(a) / 2^k) = trunc(a / 2^k)), so its integer is P_m's
    shifted.  Both folds of _dct rest on P_(p-m) = -P_m for the integers:
    cos(pi (p - m)/p) = -cos(pi m/p) and truncation toward zero is odd, and
    the test suite checks the integers for p <= 48 at widths 64 to 1024
    bits.  By it entry (n, p - j) is (-1)^n entry (n, j), so these columns
    determine the integer matrix, and entry (p - n, j) is (-1)^(p+j) entry
    (n, j), so its rows n <= p/2 do; _dct reads only those, a quarter of
    the products for even p.  Memoised per (p, bits)."""
    key = (p, bits)
    if key in _dct_cache:
        return _dct_cache[key]
    frac = bits + _READ_GUARD
    with mp.workprec(frac + 16):
        two_over_p = mpf(2) / p
        prods = [fixedpoint.to_grid(two_over_p * mp.cospi(mpf(m) / p), frac)
                 for m in range(p + 1)]
    rows = []
    for n in range(p + 1):
        row = []
        for j in range(p // 2 + 1):
            v, k = prods[p - abs(p - n * j % (2 * p))], (n in (0, p)) + (j in (0, p))
            v = v >> k if v >= 0 else -(-v >> k)
            row.append(-v if n & 1 else v)
        rows.append(row)
    return _dct_cache.setdefault(key, (frac, rows))


_dct_halves_cache: Dict[Tuple[int, int], Tuple[int, List[Tuple[List[int], List[int]]]]] = {}


def _dct_halves(p: int, bits: int) -> Tuple[int, List[Tuple[List[int], List[int]]]]:
    """(F, halves): the rows n <= p/2 of _dct_on_grid(p, bits), the ones
    _dct reads, each split into its even-j and odd-j columns.  Memoised per
    (p, bits) beside the matrix."""
    key = (p, bits)
    if key not in _dct_halves_cache:
        frac, rows = _dct_on_grid(p, bits)
        _dct_halves_cache[key] = (frac, [(row[::2], row[1::2])
                                         for row in rows[:p // 2 + 1]])
    return _dct_halves_cache[key]


def _dct(halves: List[Tuple[List[int], List[int]]],
         values: Sequence[int]) -> List[int]:
    """The exact integer DCT-I of the p + 1 values by the matrix whose rows
    n <= p/2, split by column parity, are ``halves`` (_dct_halves), folded
    by its two parities, which both rest on P_(p-m) = -P_m.  Entry
    (n, p - j) is (-1)^n entry (n, j), so c_n is the dot of row n with the
    folded values g_j = f_j + (-1)^n f_(p-j), j < p/2, and f_(p/2) when p
    is even.  Entry (p - n, j) is (-1)^(p+j) entry (n, j), so only rows
    n <= p/2 are read: with A and B the dots of row n's even-j and odd-j
    columns with the g of n, c_n = A + B, and with A' and B' those with the
    g of p - n, c_(p-n) = (-1)^p (A' - B').  For even p, n and p - n share
    a parity, so A' = A and B' = B are reused: a quarter of the full
    matrix's products (169 of 625 at p = 24); for odd p, the same loop
    forms A' and B' from the other folded values, half the products."""
    p = len(values) - 1
    head = values[:p // 2 + 1]
    tail = values[::-1]
    even = [a + b for a, b in zip(head, tail)]
    odd = [a - b for a, b in zip(head, tail)]
    if p % 2 == 0:
        even[-1] = odd[-1] = values[p // 2]
    folded = [(g[::2], g[1::2]) for g in (even, odd)]
    sign = -1 if p & 1 else 1
    dot = fixedpoint.dot
    out = [0] * (p + 1)
    for n, (re, ro) in enumerate(halves):
        ge, go = folded[n & 1]
        a, b = dot(re, ge), dot(ro, go)
        me, mo = folded[(p - n) & 1]
        ma, mb = (a, b) if me is ge else (dot(re, me), dot(ro, mo))
        out[p - n] = sign * (ma - mb)
        out[n] = a + b  # last, so c_(p/2) is A + B
    return out


# the integrands integrate_kind accepts
_KINDS = ("q", "r")


def _coefficients(solution: HMSolution, kind: str,
                  bits: int) -> List[Tuple[int, List[int]]]:
    """Per element, (F_e, c): the exact coefficients c_n 2^-F_e of T_0..T_p
    in t in [-1, 1] of the degree-p interpolant of ``kind`` at ``bits``
    bits, a DCT-I of the nodal values at the Lobatto points (Trefethen,
    ATAP, ch. 3).  Each is one exact integer dot of the matrix
    (_dct_on_grid, its kept rows split by column parity once in
    _dct_halves, folded by its column and row parities in _dct, a quarter
    of the products for even p: 169 of 625 at p = 24) with the element's
    values on a grid with bits + REPORT_GUARD + _READ_GUARD bits in the
    largest: q and q' by row_to_grid of the stored values, R formed in
    integers (_r_row)."""
    dct_frac, halves = _dct_halves(solution.p, bits)
    width = bits + REPORT_GUARD + _READ_GUARD
    values = solution._elem_q if kind == "q" else solution._elem_qp
    out = []
    for e in range(solution.elements):
        frac, row = (_r_row(solution, e, width) if kind == "r"
                     else fixedpoint.row_to_grid(values[e], width))
        out.append((frac + dct_frac, _dct(halves, row)))
    return out


class _Table:
    """One read of the interpolant of an integrand at ``bits`` bits, built
    whole by _points or _integrals: the grid 2^-frac, frac =
    bits + _READ_GUARD, that locate puts x on, and one row per element,
    (F_e, integers) with frac bits in its largest entry, that the read sums
    at the located t.  The grid depends on the solution and bits alone, so
    the tables of every integrand at one precision share it.  An integral
    table also holds cum, the integral from x_left to every edge, and
    left_end, its read at x_left at bits + REPORT_GUARD, the precision of
    every integral at ``bits``.

    It lives in the solution's memo dict, so it keeps the values it reads
    and not the solution, which would make a reference cycle that only the
    cyclic collector frees."""

    def __init__(self, solution: HMSolution, bits: int,
                 rows: List[Tuple[int, List[int]]], cum: List[mpf] = None):
        self.x_left, self.x_right = solution.x_left, solution.x_right
        ge, edges = solution.cached(("edges",), _exact_grid, solution._edges)
        f = self.frac = bits + _READ_GUARD
        self.lo, self.hi = (fixedpoint.to_grid(v, f)
                            for v in (self.x_left, self.x_right))
        self.edges = fixedpoint.rescale(edges, ge, f)
        self.rows, self.cum = rows, cum
        if cum is not None:
            self.left_end = self.upto(*self.locate(self.x_left), bits + REPORT_GUARD)

    def locate(self, x) -> Tuple[int, int]:
        """(e, t): the element e = [a, b] that holds x, and the coordinate
        t = (2x - a - b) / (b - a) of x in it on the grid 2^-frac, by one
        floor division.  x is truncated onto the grid as the caller passes
        it (a float is read exactly, an mpf is not rounded first); the
        edges of a solution at the table's bits lie on it exactly.

        The window check runs in integers: truncation is monotone, so
        lo < xf < hi proves x_left < x < x_right.  Only an xf on lo or hi,
        or an x that is not finite, is compared exactly; anything outside,
        nan included, raises DomainError."""
        f, lo, hi, edges = self.frac, self.lo, self.hi, self.edges
        try:
            xf = fixedpoint.to_grid(x, f)
        except ValueError:  # inf or nan, which the exact comparison rejects
            xf = lo
        if not lo < xf < hi and not (lo <= xf <= hi
                                     and self.x_left <= x <= self.x_right):
            raise DomainError(f"x={x} outside solution window "
                              f"[{self.x_left}, {self.x_right}]")
        e = bisect_right(edges, xf, 1, len(edges) - 1) - 1
        a, b = edges[e], edges[e + 1]
        return e, ((2 * xf - a - b) << f) // (b - a)

    def upto(self, e: int, t: int, prec: int) -> tuple:
        """The integral from edges[0] to the point at t in element e (as
        locate gives them), as a raw mpf tuple rounded to nearest at prec
        bits: cum[e] plus one Clenshaw sum of the element's antiderivative
        row, which is exact until that one rounding."""
        frac, row = self.rows[e]
        tail = libmp.from_man_exp(fixedpoint.clenshaw(row, t, self.frac), -frac)
        return libmp.mpf_add(self.cum[e]._mpf_, tail, prec, libmp.round_nearest)


def _points(solution: HMSolution, kind: str, bits: int) -> _Table:
    """The point table of ``kind`` at ``bits`` bits, which HMSolution._read
    keeps by HMSolution.cached: each element's exact coefficients regridded
    to frac bits."""
    return _Table(solution, bits, [fixedpoint.regrid(c, frac, bits + _READ_GUARD)
                                   for frac, c in _coefficients(solution, kind, bits)])


def _integrals(solution: HMSolution, kind: str, bits: int) -> _Table:
    """The integral table of ``kind`` at ``bits`` bits, which its readers
    keep by HMSolution.cached: per element [a, b], the coefficients of the
    antiderivative in x (zero at a) of its exact coefficients, a row with
    bits + _READ_GUARD bits in its largest entry, and cum, the integral
    from x_left to every edge rounded to bits + REPORT_GUARD.  The
    coefficients integrate term by term (ATAP, ch. 19), with h/2 on the
    grid 2^-(bits + _READ_GUARD) and one floor per coefficient.  h/2 is the
    exact integer h of the edges on their grid (_exact_grid) rounded to
    nearest at bits + REPORT_GUARD, halved and truncated onto the grid,
    with no mpf: for a table below the solution's precision that rounding
    is not exact, and it is kept as the value the tables are pinned with."""
    g = bits + _READ_GUARD
    wp = bits + REPORT_GUARD
    ge, edges = solution.cached(("edges",), _exact_grid, solution._edges)
    coefficients = _coefficients(solution, kind, bits)
    rows, cum = [], [mpf(0)]
    with mp.workprec(wp):
        for e, (frac, c) in enumerate(coefficients):
            # b_k = (h/2)(c_(k-1) - c_(k+1)) / (2k) with c_0 counted twice, on
            # the grid 2^-(frac + g); b_0 makes the antiderivative 0 at t = -1
            _, man, exp, _ = libmp.from_man_exp(edges[e + 1] - edges[e], -ge - 1,
                                                wp, libmp.round_nearest)
            [half] = fixedpoint.rescale([man], -exp, g)
            c = [2 * c[0]] + c[1:] + [0, 0]
            b = [0] + [half * (c[k - 1] - c[k + 1]) // (2 * k)
                       for k in range(1, len(c) - 1)]
            b[0] = sum(b[1::2]) - sum(b[2::2])
            rows.append(fixedpoint.regrid(b, frac + g, g))
            cum.append(cum[-1] + fixedpoint.from_grid(sum(b), frac + g))
    return _Table(solution, bits, rows, cum)


def _integral(table: _Table, e: int, t: int, start: tuple, wp: int) -> mpf:
    """The integral from the point whose upto is ``start`` to the point at
    t in element e, the read every integral of q or R makes: upto at wp,
    less start, rounded to nearest at wp on raw mpf tuples, with no
    ambient precision switch."""
    return mp.make_mpf(libmp.mpf_sub(table.upto(e, t, wp), start, wp,
                                     libmp.round_nearest))


def read_point(x, ctx: PrecisionContext, name: str = "x") -> mpf:
    """x as an mpf whatever the ambient mp.prec, the one read of a point by
    the integrals and tw_point: an mpf, int or float exactly, with no switch
    of the global mp.prec; anything else must pass errors.real (DomainError
    naming the caller's ``name``) and is rounded to nearest at the working
    precision precision_bits + REPORT_GUARD, so a string is read to that
    precision.  An mpf or float nan or inf is refused by the window check
    (_Table.locate)."""
    if isinstance(x, (mpf, int, float)):
        return mp.convert(x)
    real(x, name)
    with mp.workprec(ctx.precision_bits + REPORT_GUARD):
        return mp.convert(x)


def integrate_kind(solution: HMSolution, kind: str, a, b,
                   ctx: PrecisionContext) -> mpf:
    """Integral over [a, b] of q or R from the cached element
    antiderivatives: one integer locate (_Table.locate) and one Clenshaw
    sum per end point, read through _integral as cumulative_integrals is."""
    if kind not in _KINDS:
        raise ValueError(f"unknown integrand kind {kind!r}")
    a, b = read_point(a, ctx, "a"), read_point(b, ctx, "b")
    bits = ctx.precision_bits
    table = solution.cached(("integrals", kind, bits), _integrals, solution, kind, bits)
    (ea, ta), (eb, tb) = (table.locate(x) for x in (a, b))
    if not a <= b:
        raise DomainError("integration bounds must satisfy a <= b")
    wp = bits + REPORT_GUARD
    return _integral(table, eb, tb, table.upto(ea, ta, wp), wp)


def cumulative_integrals(solution: HMSolution, x,
                         ctx: PrecisionContext) -> Tuple[mpf, mpf]:
    """(int_{x_left}^x R, int_{x_left}^x q), the read both Tracy-Widom
    representations share, and at x = x_right the window integrals of
    their right constants (twdist._form_right): bit for bit integrate_kind
    from solution.x_left to x for each.  The R and q tables at one
    precision have the same grid (_Table), so x (read_point) is located
    once, on the R table, and each integrand costs one Clenshaw sum less
    its table's left_end.  Raises DomainError outside the solution window."""
    x = read_point(x, ctx)
    bits = ctx.precision_bits
    tables = [solution.cached(("integrals", kind, bits), _integrals, solution, kind, bits)
              for kind in ("r", "q")]
    e, t = tables[0].locate(x)
    wp = bits + REPORT_GUARD
    return tuple(_integral(table, e, t, table.left_end, wp) for table in tables)


# ---------------------------------------------------------------------------
# The solver
# ---------------------------------------------------------------------------

_ELEMENT_DEGREE = 24


def element_count(nodes: int) -> int:
    """The elements of degree _ELEMENT_DEGREE of a solve with ``nodes``
    collocation nodes."""
    return max(2, round((nodes - 1) / _ELEMENT_DEGREE))


def solve_hastings_mcleod(x_left=-12, x_right=8, nodes: int = 1100,
                          ctx: PrecisionContext = None) -> HMSolution:
    """Solve the boundary value problem on [x_left, x_right].

    Boundary values are pinned to the asymptotic branches: Ai(x_right) on the
    right, summed to the working precision, and the left series summed to
    its least term (q_left_boundary_value) on the left, whose first omitted
    term is 2.3e-19 at the default x_left = -12 and shrinks like
    exp(-c |x_left|^(3/2)) further out.  The boundary errors decay inward
    (the linearized equation damps boundary perturbations exponentially).

    The float64 warm start starts from closed forms (Ai(0) exp(-2/3 x^(3/2))
    on the right, sqrt(-x/2) on the left); defect correction at
    precision_bits + 64 guard bits then runs until the collocation residual
    is at most 2^-(precision_bits + 40).  Raises SolverError (with the last
    residual) if the warm start fails or a sweep does not halve the residual.
    The warm-start iteration count and every sweep's residual are logged at
    DEBUG level.  Only ctx.precision_bits enters the solve; the solution
    does not depend on ctx.tolerance.
    """
    ctx = ctx or PrecisionContext()
    real(x_left, "x_left")
    real(x_right, "x_right")
    index(nodes, "nodes", 200)
    x_left = mpf(x_left)
    x_right = mpf(x_right)
    if not x_left <= -6:
        raise DomainError("x_left must be <= -6 (left series accuracy)")
    if not x_right >= 6:
        raise DomainError("x_right must be >= 6 (right decay accuracy)")

    p, k_elems = _ELEMENT_DEGREE, element_count(nodes)
    prec = ctx.precision_bits + 64

    with mp.workprec(prec):
        mesh = _Mesh(x_left, x_right, k_elems, p)
        bc_l = q_left_boundary_value(x_left)[0]
        bc_r = specialfn.airy_ai(x_right, prec)[0]
        u64, fac = _warm_start(mesh, float(bc_l), float(bc_r))
        u, res = _refine(mesh, u64, fac, bc_l, bc_r, stop=mpf(2) ** (-(prec - 24)))

    # every stored value is rounded once from the grid: q from u, and
    # q' = (2/h) D1 u from one exact folded dot in units 2^-3F
    out_prec = ctx.precision_bits
    f = mesh.frac
    elem_q = [[fixedpoint.from_grid(v, f, out_prec) for v in ue] for ue in u]
    elem_qp = [[fixedpoint.from_grid(scale * w, 3 * f, out_prec)
                for w in _folded_dots(mesh.d1_pairs, ue)]
               for scale, ue in zip(mesh.scale1_fixed, u)]
    res_norm = max(abs(v) for row in res for v in row[1:p])
    return HMSolution(
        x_left=round_to(x_left, out_prec),
        x_right=round_to(x_right, out_prec),
        residual_norm=fixedpoint.from_grid(res_norm, f, out_prec),
        precision_bits=ctx.precision_bits,
        _edges=round_to(mesh.edges, out_prec),
        _elem_q=elem_q,
        _elem_qp=elem_qp,
        _ref=round_to(mesh.ref, out_prec),
    )
