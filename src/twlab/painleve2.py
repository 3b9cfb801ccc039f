"""Hastings-McLeod problem: solve q'' = 2 q^3 + x q between asymptotic
boundary conditions and expose q, q', R = (q')^2 - x q^2 - q^4 and their
integrals.

The problem is posed as a two-point BVP on piecewise Chebyshev-Lobatto
collocation elements and solved by damped Newton iteration, first in float64
(warm start) and then at the requested precision with a block-tridiagonal
elimination.  One-sided shooting is useless here: the wanted solution is a
separatrix and the growing modes amplify like exp(c |x|^(3/2)) from either
end, which is exactly why the two-point formulation is mandatory.

The solution is stored once, as each element's nodal values of q and q'.
Point values come from barycentric interpolation on an element; integrals
of q, R and q^2 integrate each element's Chebyshev interpolant term by term
(integrate_kind), so every query is one Clenshaw sum plus a cumulative edge
value.

The left boundary data come from the large-negative expansion

    q(x) = sqrt(-x/2) (1 + a_1 x^-3 + a_2 x^-6 + ...),

whose coefficients satisfy a closed recursion obtained by substituting the
ansatz into the ODE:

    a_m = (c_m a_{m-1} - T_m) / 2,
    c_m = 1/4 + 3(m-1) - 3(m-1)(3m-2),
    T_m = sum_{i+j+k=m, i,j,k<m} a_i a_j a_k.

This reproduces a_1 = 1/8 and a_2 = -73/128 exactly; higher coefficients are
generated on demand (and are cross-checked numerically in the test suite, as
printed sources disagree beyond a_2).
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np
from mpmath import mp, mpf

from . import specialfn
from .errors import DomainError, SolverError, UnsupportedOrderError
from .precision import PrecisionContext, round_to

SCHEMA_VERSION = 2


# ---------------------------------------------------------------------------
# Large-negative-x series for q and R (exact rational coefficients)
# ---------------------------------------------------------------------------

def hm_left_series_coefficients(order: int) -> List[Fraction]:
    """a_0..a_order of q(x) = sqrt(-x/2) * sum a_k x^(-3k)."""
    a = [Fraction(1)]
    for m in range(1, order + 1):
        cm = Fraction(1, 4) + 3 * (m - 1) - 3 * (m - 1) * (3 * m - 2)
        tm = Fraction(0)
        for i in range(m):
            for j in range(m - i + 1):
                k = m - i - j
                if j < m and k < m:
                    tm += a[i] * a[j] * a[k]
        a.append((cm * a[m - 1] - tm) / 2)
    return a


def r_left_series_coefficients(order: int) -> List[Fraction]:
    """rho_0..rho_order of R(x) = sum rho_m x^(2-3m).

    Derived by pushing the q-series through R = (q')^2 - x q^2 - q^4:
    with P(v) = sum a_k v^k, v = x^-3, and P1 = sum (-3k) a_k v^k,

        R = (x^2/4)(2 P^2 - P^4) - (1/x)(P^2/8 + P P1 / 2 + P1^2 / 2).
    """
    a = hm_left_series_coefficients(order + 1)
    n = order + 2

    def mul(u: Sequence[Fraction], v: Sequence[Fraction]) -> List[Fraction]:
        out = [Fraction(0)] * n
        for i, ui in enumerate(u):
            if i >= n:
                break
            for j, vj in enumerate(v):
                if i + j >= n:
                    break
                out[i + j] += ui * vj
        return out

    p = list(a[:n]) + [Fraction(0)] * max(0, n - len(a))
    p1 = [Fraction(-3 * k) * p[k] for k in range(n)]
    p2 = mul(p, p)
    p4 = mul(p2, p2)
    pp1 = mul(p, p1)
    p1p1 = mul(p1, p1)
    rho: List[Fraction] = []
    for m in range(order + 1):
        val = Fraction(1, 4) * (2 * p2[m] - p4[m])
        if m >= 1:
            val -= p2[m - 1] / 8 + pp1[m - 1] / 2 + p1p1[m - 1] / 2
        rho.append(val)
    return rho


def q_left_asymptotic(x, order: int):
    """Partial sum of the left expansion of q through x^(-3*order)."""
    x = mpf(x)
    if not x <= -2:
        raise DomainError("left series for q is unreliable for x > -2")
    if not 0 <= order <= 3:
        raise UnsupportedOrderError("q_left_asymptotic supports orders 0..3")
    a = hm_left_series_coefficients(order)
    s = mpf(0)
    for k in range(order, -1, -1):
        s = s / x ** 3 + mpf(a[k].numerator) / a[k].denominator
    return mp.sqrt(-x / 2) * s


def r_left_asymptotic(x, order: int):
    """Partial sum of the left expansion of R through x^(2-3*order).

    Orders above 2 are not exposed: the printed x^-9 coefficient in the
    sources does not match the recursion, so only the scale of that term is
    asserted (empirically) by the tests.
    """
    x = mpf(x)
    if not x <= -2:
        raise DomainError("left series for R is unreliable for x > -2")
    if order > 2:
        raise UnsupportedOrderError("r_left_asymptotic supports orders 0..2")
    if order < 0:
        raise UnsupportedOrderError("order must be >= 0")
    rho = r_left_series_coefficients(order)
    s = mpf(0)
    for m in range(order, -1, -1):
        s = s / x ** 3 + mpf(rho[m].numerator) / rho[m].denominator
    return x * x * s


def _series_value_adaptive(x: mpf, coeffs: List[Fraction], power0: int,
                           step: int = -3) -> Tuple[mpf, mpf, int]:
    """Sum coeffs[m] * x^(power0 + step*m) until the terms stop shrinking.

    Returns (partial sum, magnitude of first omitted term, terms used)."""
    s = mpf(0)
    prev = mp.inf
    omitted = mpf(0)
    used = 0
    for m, c in enumerate(coeffs):
        term = mpf(c.numerator) / c.denominator * x ** (power0 + step * m)
        if abs(term) >= prev:
            omitted = abs(term)
            break
        s += term
        prev = abs(term)
        used = m + 1
    else:
        omitted = prev  # ran out of coefficients; last term as the estimate
    return s, omitted, used


_LEFT_SERIES_ORDER = 8


def q_left_boundary_value(x) -> Tuple[mpf, mpf]:
    """Optimally truncated left-series value of q and its error estimate."""
    x = mpf(x)
    a = hm_left_series_coefficients(_LEFT_SERIES_ORDER)
    s, omitted, _ = _series_value_adaptive(x, a, 0)
    pref = mp.sqrt(-x / 2)
    return pref * s, abs(pref) * omitted


def left_tail_q_regularized(x_left) -> Tuple[mpf, mpf]:
    """integral_{-inf}^{x_left} (q(y) - sqrt(|y|/2)) dy from the series.

    With y = -s the k-th series term contributes
    a_k (-1)^k s^(1/2-3k) / sqrt(2), integrating to
    a_k (-1)^k s_L^(3/2-3k) / (sqrt(2) (3k - 3/2)).
    Returns (value, error estimate = first omitted term's integral)."""
    s_l = -mpf(x_left)
    a = hm_left_series_coefficients(_LEFT_SERIES_ORDER)
    total = mpf(0)
    prev = mp.inf
    omitted = mpf(0)
    for k in range(1, len(a)):
        c = mpf(a[k].numerator) / a[k].denominator
        term = (-1) ** k * c * s_l ** (mpf(3) / 2 - 3 * k) / (3 * k - mpf(3) / 2) / mp.sqrt(2)
        if abs(term) >= prev:
            omitted = abs(term)
            break
        total += term
        prev = abs(term)
    else:
        omitted = prev
    return total, omitted


def left_tail_r_regularized(x_left) -> Tuple[mpf, mpf]:
    """integral_{-inf}^{x_left} (R(y) - y^2/4 + 1/(8y)) dy from the series.

    Term m >= 2 contributes rho_m (-1)^m s_L^(3-3m) / (3m-3)."""
    s_l = -mpf(x_left)
    rho = r_left_series_coefficients(_LEFT_SERIES_ORDER)
    total = mpf(0)
    prev = mp.inf
    omitted = mpf(0)
    for m in range(2, len(rho)):
        c = mpf(rho[m].numerator) / rho[m].denominator
        term = (-1) ** m * c * s_l ** (3 - 3 * m) / (3 * m - 3)
        if abs(term) >= prev:
            omitted = abs(term)
            break
        total += term
        prev = abs(term)
    else:
        omitted = prev
    return total, omitted


# ---------------------------------------------------------------------------
# Collocation discretization
# ---------------------------------------------------------------------------

def _lobatto_nodes(p: int) -> List[mpf]:
    """Chebyshev-Lobatto nodes on [-1, 1], ascending."""
    return [-mp.cos(mp.pi * j / p) for j in range(p + 1)]


def _diff_matrix(nodes: Sequence) -> List[List]:
    """First-derivative collocation matrix for the given nodes (negative-sum
    diagonal for stability)."""
    p = len(nodes) - 1
    c = [2 if j in (0, p) else 1 for j in range(p + 1)]
    d = [[None] * (p + 1) for _ in range(p + 1)]
    for i in range(p + 1):
        row_sum = mpf(0) if isinstance(nodes[0], mpf) else 0.0
        for j in range(p + 1):
            if i != j:
                v = (c[i] / c[j]) * (-1) ** (i + j) / (nodes[i] - nodes[j])
                d[i][j] = v
                row_sum += v
        d[i][i] = -row_sum
    return d


def _mat_mul(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    zero = a[0][0] * 0
    out = [[zero] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            ait = ai[t]
            if ait == 0:
                continue
            bt = b[t]
            for j in range(m):
                oi[j] += ait * bt[j]
    return out


def _lu_factor(a):
    """In-place LU with partial pivoting; returns (lu, piv)."""
    n = len(a)
    lu = [row[:] for row in a]
    piv = list(range(n))
    for k in range(n):
        pr = max(range(k, n), key=lambda r: abs(lu[r][k]))
        if lu[pr][k] == 0:
            raise SolverError("singular Newton block")
        if pr != k:
            lu[pr], lu[k] = lu[k], lu[pr]
            piv[pr], piv[k] = piv[k], piv[pr]
        inv = 1 / lu[k][k]
        for r in range(k + 1, n):
            f = lu[r][k] * inv
            lu[r][k] = f
            if f != 0:
                lrow, krow = lu[r], lu[k]
                for c in range(k + 1, n):
                    lrow[c] -= f * krow[c]
    return lu, piv


def _lu_solve_vec(lu, piv, b):
    n = len(lu)
    x = [b[piv[i]] for i in range(n)]
    for i in range(1, n):
        s = x[i]
        row = lu[i]
        for j in range(i):
            s -= row[j] * x[j]
        x[i] = s
    for i in range(n - 1, -1, -1):
        s = x[i]
        row = lu[i]
        for j in range(i + 1, n):
            s -= row[j] * x[j]
        x[i] = s / row[i]
    return x


def _lu_solve_mat(lu, piv, b):
    n = len(lu)
    m = len(b[0])
    cols = []
    for j in range(m):
        cols.append(_lu_solve_vec(lu, piv, [b[i][j] for i in range(n)]))
    return [[cols[j][i] for j in range(m)] for i in range(n)]


class _Mesh:
    """Element layout plus reference operators at a fixed precision."""

    def __init__(self, x_left, x_right, k_elems: int, p: int, use_mp: bool):
        self.k = k_elems
        self.p = p
        if use_mp:
            xl, xr = mpf(x_left), mpf(x_right)
            self.edges = [xl + (xr - xl) * e / k_elems for e in range(k_elems + 1)]
            self.ref = _lobatto_nodes(p)
        else:
            xl, xr = float(x_left), float(x_right)
            self.edges = [xl + (xr - xl) * e / k_elems for e in range(k_elems + 1)]
            self.ref = [float(v) for v in _lobatto_nodes(p)]
        self.d1 = _diff_matrix(self.ref)
        self.d2 = _mat_mul(self.d1, self.d1)
        self.h = [self.edges[e + 1] - self.edges[e] for e in range(k_elems)]
        self.nodes = []
        for e in range(k_elems):
            mid = (self.edges[e + 1] + self.edges[e]) / 2
            half = self.h[e] / 2
            self.nodes.append([mid + half * t for t in self.ref])


def _ode_residual(mesh: _Mesh, u, bc_l, bc_r):
    """Residual blocks; row 0/p of each element carry coupling conditions."""
    k, p = mesh.k, mesh.p
    res = []
    for e in range(k):
        ue = u[e]
        scale2 = 4 / (mesh.h[e] * mesh.h[e])
        r = [None] * (p + 1)
        if e == 0:
            r[0] = ue[0] - bc_l
        else:
            r[0] = u[e - 1][p] - ue[0]
        for i in range(1, p):
            acc = ue[0] * 0
            row = mesh.d2[i]
            for j in range(p + 1):
                acc += row[j] * ue[j]
            x = mesh.nodes[e][i]
            r[i] = scale2 * acc - 2 * ue[i] ** 3 - x * ue[i]
        if e == k - 1:
            r[p] = ue[p] - bc_r
        else:
            s_a = 2 / mesh.h[e]
            s_b = 2 / mesh.h[e + 1]
            da = mesh.d1[p]
            db = mesh.d1[0]
            acc = ue[0] * 0
            for j in range(p + 1):
                acc += s_a * da[j] * ue[j] - s_b * db[j] * u[e + 1][j]
            r[p] = acc
        res.append(r)
    return res


def _newton_step(mesh: _Mesh, u, res):
    """One block-tridiagonal Newton solve; returns the update delta."""
    k, p = mesh.k, mesh.p
    n = p + 1
    zero = u[0][0] * 0
    s_fact = []
    g_blocks = []
    y_vecs = []
    for e in range(k):
        a = [[zero] * n for _ in range(n)]
        scale2 = 4 / (mesh.h[e] * mesh.h[e])
        if e == 0:
            a[0][0] = zero + 1
        else:
            a[0][0] = zero - 1
        for i in range(1, p):
            row = a[i]
            d2row = mesh.d2[i]
            for j in range(n):
                row[j] = scale2 * d2row[j]
            x = mesh.nodes[e][i]
            row[i] = row[i] - (6 * u[e][i] ** 2 + x)
        if e == k - 1:
            a[p][p] = zero + 1
        else:
            s_a = 2 / mesh.h[e]
            for j in range(n):
                a[p][j] = s_a * mesh.d1[p][j]
        rhs = [-v for v in res[e]]
        if e > 0:
            # fold B_e G_{e-1} into A and B_e y_{e-1} into the rhs;
            # B_e has a single unit entry at (0, p)
            gp = g_blocks[e - 1]
            yp = y_vecs[e - 1]
            for j in range(n):
                a[0][j] -= gp[p][j]
            rhs[0] -= yp[p]
        lu, piv = _lu_factor(a)
        if e < k - 1:
            c = [[zero] * n for _ in range(n)]
            s_b = 2 / mesh.h[e + 1]
            for j in range(n):
                c[p][j] = -s_b * mesh.d1[0][j]
            g_blocks.append(_lu_solve_mat(lu, piv, c))
        else:
            g_blocks.append(None)
        y_vecs.append(_lu_solve_vec(lu, piv, rhs))
        s_fact.append((lu, piv))
    delta = [None] * k
    delta[k - 1] = y_vecs[k - 1]
    for e in range(k - 2, -1, -1):
        g = g_blocks[e]
        dnext = delta[e + 1]
        delta[e] = [y_vecs[e][i] - sum(g[i][j] * dnext[j] for j in range(n))
                    for i in range(n)]
    return delta


def _res_norm(res) -> float:
    return max(abs(float(v)) for r in res for v in r)


def _newton_iterate(mesh: _Mesh, u, bc_l, bc_r, stop_tol: float,
                    max_iter: int, floor_accept: float) -> Tuple[list, float]:
    """Damped (Armijo-backtracked) Newton.  Stops at ``stop_tol``, or accepts
    a stall at the arithmetic noise floor if already below ``floor_accept``."""
    res = _ode_residual(mesh, u, bc_l, bc_r)
    norm = _res_norm(res)
    for _ in range(max_iter):
        if norm <= stop_tol:
            break
        delta = _newton_step(mesh, u, res)
        lam = 1.0
        while True:
            trial = [[u[e][i] + lam * delta[e][i] for i in range(mesh.p + 1)]
                     for e in range(mesh.k)]
            tres = _ode_residual(mesh, trial, bc_l, bc_r)
            tnorm = _res_norm(tres)
            if tnorm <= (1 - 0.25 * lam) * norm or lam < 1e-8:
                break
            lam *= 0.5
        if lam < 1e-8 and tnorm >= 0.5 * norm:
            # no further progress: rounding floor of the residual evaluation
            if norm <= floor_accept:
                break
            raise SolverError("Newton backtracking stalled", residual=norm)
        u, res, norm = trial, tres, tnorm
    if norm > floor_accept:
        raise SolverError("Newton did not converge", residual=norm)
    return u, norm, res


# ---------------------------------------------------------------------------
# Public solution object
# ---------------------------------------------------------------------------

@dataclass
class HMSolution:
    """Immutable solution record; safe for concurrent reads.

    Stores each element's edges and its nodal values of q and q' once; the
    global grid and the nodal q, q', R are derived from them."""

    x_left: mpf
    x_right: mpf
    residual_norm: mpf
    precision_bits: int
    _edges: List[mpf] = field(repr=False)
    _elem_q: List[List[mpf]] = field(repr=False)
    _elem_qp: List[List[mpf]] = field(repr=False)
    _ref: List[mpf] = field(repr=False)
    _cum_cache: dict = field(repr=False, default_factory=dict, compare=False)
    _cum_lock: threading.Lock = field(repr=False, compare=False,
                                      default_factory=threading.Lock)

    @property
    def p(self) -> int:
        return len(self._ref) - 1

    def _elem_nodes(self, e: int) -> List[mpf]:
        a, b = self._edges[e], self._edges[e + 1]
        return [(a + b) / 2 + (b - a) / 2 * t for t in self._ref]

    @staticmethod
    def _merged(rows: List[List[mpf]]) -> List[mpf]:
        """Per-element rows joined into one grid list; an interface node is
        kept from the element on its left."""
        return [v for e, row in enumerate(rows) for v in (row[1:] if e else row)]

    @property
    def grid(self) -> List[mpf]:
        with mp.workprec(self.precision_bits + 16):
            nodes = [self._elem_nodes(e) for e in range(len(self._elem_q))]
        return round_to(self._merged(nodes), self.precision_bits)

    @property
    def q_values(self) -> List[mpf]:
        return self._merged(self._elem_q)

    @property
    def q_prime_values(self) -> List[mpf]:
        """q' on the grid; interface nodes carry the average of the two
        one-sided derivatives, which agree to the continuity tolerance."""
        qp = self._elem_qp
        with mp.workprec(self.precision_bits + 16):
            rows = [row[:-1] + [(row[-1] + qp[e + 1][0]) / 2]
                    for e, row in enumerate(qp[:-1])] + [qp[-1]]
        return round_to(self._merged(rows), self.precision_bits)

    @property
    def r_values(self) -> List[mpf]:
        with mp.workprec(self.precision_bits + 16):
            rv = [qp * qp - x * q * q - q ** 4 for x, q, qp in
                  zip(self.grid, self.q_values, self.q_prime_values)]
        return round_to(rv, self.precision_bits)

    def _locate(self, x: mpf) -> int:
        if x < self.x_left or x > self.x_right:
            raise DomainError(f"x={x} outside solution window "
                              f"[{self.x_left}, {self.x_right}]")
        e = bisect_right(self._edges, x) - 1
        return min(max(e, 0), len(self._elem_q) - 1)

    def _bary(self, e: int, x: mpf, values: List[mpf]) -> mpf:
        with mp.workprec(max(mp.prec, self.precision_bits + 16)):
            a, b = self._edges[e], self._edges[e + 1]
            t = (2 * x - a - b) / (b - a)
            p = self.p
            num = mpf(0)
            den = mpf(0)
            for j in range(p + 1):
                dt = t - self._ref[j]
                if dt == 0:
                    return values[j]
                w = mpf(-1) ** j * (mpf("0.5") if j in (0, p) else mpf(1))
                w /= dt
                num += w * values[j]
                den += w
            return num / den

    def q_at(self, x) -> mpf:
        x = mpf(x)
        e = self._locate(x)
        return self._bary(e, x, self._elem_q[e])

    def q_prime_at(self, x) -> mpf:
        x = mpf(x)
        e = self._locate(x)
        return self._bary(e, x, self._elem_qp[e])

    def to_json_dict(self) -> dict:
        def enc(v: mpf):
            sign, man, exp, bc = v._mpf_
            return [sign, hex(int(man)), exp, bc]

        def enc_list(vs):
            return [enc(v) for v in vs]

        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "hastings_mcleod_solution",
            "precision_bits": self.precision_bits,
            "x_left": enc(self.x_left),
            "x_right": enc(self.x_right),
            "residual_norm": enc(self.residual_norm),
            "edges": enc_list(self._edges),
            "elem_q": [enc_list(row) for row in self._elem_q],
            "elem_qp": [enc_list(row) for row in self._elem_qp],
            "ref": enc_list(self._ref),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, doc: dict) -> "HMSolution":
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise ValueError("unsupported solution schema version")

        def dec(t):
            sign, man_hex, exp, bc = t
            # constructing from a raw tuple rounds at the working precision
            with mp.workprec(max(int(bc), 8) + 8):
                return mpf((sign, int(man_hex, 16), exp, bc))

        def dec_list(ts):
            return [dec(t) for t in ts]

        return cls(
            x_left=dec(doc["x_left"]),
            x_right=dec(doc["x_right"]),
            residual_norm=dec(doc["residual_norm"]),
            precision_bits=doc["precision_bits"],
            _edges=dec_list(doc["edges"]),
            _elem_q=[dec_list(r) for r in doc["elem_q"]],
            _elem_qp=[dec_list(r) for r in doc["elem_qp"]],
            _ref=dec_list(doc["ref"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "HMSolution":
        return cls.from_json_dict(json.loads(text))


def r_of(solution: HMSolution, x) -> mpf:
    """R(x) = (q')^2 - x q^2 - q^4 from the interpolated solution."""
    with mp.workprec(max(mp.prec, solution.precision_bits + 16)):
        x = mpf(x)
        q = solution.q_at(x)
        qp = solution.q_prime_at(x)
        return qp * qp - x * q * q - q ** 4


def r_quadrature_route(solution: HMSolution, x, ctx: PrecisionContext) -> mpf:
    """R(x) by the defining integral: quadrature of q^2 up to x_right plus the
    closed-form Airy tail (q ~ Ai there, and int_s^inf Ai^2 has the exact
    antiderivative Ai'(s)^2 - s Ai(s)^2)."""
    with mp.workprec(ctx.precision_bits + 16):
        body = integrate_kind(solution, "q2", x, solution.x_right, ctx)
        ai, aip = specialfn.airy_ai(solution.x_right, ctx)
        return body + (aip * aip - solution.x_right * ai * ai)


# ---------------------------------------------------------------------------
# Spectral integration on the collocation elements
# ---------------------------------------------------------------------------

def _nodal_values(solution: HMSolution, kind: str, e: int) -> List[mpf]:
    """Element e's nodal values of the integrand named ``kind``."""
    q = solution._elem_q[e]
    if kind == "q":
        return q
    if kind == "q2":
        return [v * v for v in q]
    xs = solution._elem_nodes(e)
    return [qp * qp - x * v * v - v ** 4
            for x, v, qp in zip(xs, q, solution._elem_qp[e])]


def _antiderivatives(solution: HMSolution, kind: str, ctx: PrecisionContext):
    """Per element, the Chebyshev coefficients of the antiderivative of the
    degree-p interpolant of ``kind`` (zero at the element's left edge, in
    units of x), and its cumulative values from x_left to every edge.

    Cached per (kind, precision).  The nodes -cos(pi j/p) are the Lobatto
    points, so the coefficients come from a DCT-I of the nodal values and
    integrate term by term: int T_n = T_(n+1)/(2(n+1)) - T_(n-1)/(2(n-1))
    (Trefethen, ATAP, ch. 19)."""
    key = (kind, ctx.precision_bits)
    with solution._cum_lock:
        hit = solution._cum_cache.get(key)
    if hit is not None:
        return hit
    p = solution.p
    with mp.workprec(ctx.precision_bits + 16):
        cosines = [mp.cospi(mpf(m) / p) for m in range(2 * p)]
        half = [mpf(1) / 2 if j in (0, p) else mpf(1) for j in range(p + 1)]
        # values at -cos(pi j/p) -> coefficients of T_0..T_p
        dct = [[(-1) ** n * half[n] * half[j] * 2 / p * cosines[n * j % (2 * p)]
                for j in range(p + 1)] for n in range(p + 1)]
        coeffs, cum = [], [mpf(0)]
        for e in range(len(solution._elem_q)):
            f = _nodal_values(solution, kind, e)
            c = [mp.fdot(row, f) for row in dct] + [mpf(0), mpf(0)]
            scale = (solution._edges[e + 1] - solution._edges[e]) / 2
            b = [mpf(0), scale * (c[0] - c[2] / 2)]
            b += [scale * (c[k - 1] - c[k + 1]) / (2 * k) for k in range(2, p + 2)]
            b[0] = -sum((-1) ** k * b[k] for k in range(1, p + 2))
            coeffs.append(b)
            cum.append(cum[-1] + mp.fsum(b))
    with solution._cum_lock:
        solution._cum_cache[key] = (coeffs, cum)
    return coeffs, cum


def _clenshaw(coeffs: List[mpf], t: mpf) -> mpf:
    """sum coeffs[k] T_k(t)."""
    b1 = b2 = mpf(0)
    for c in reversed(coeffs[1:]):
        b1, b2 = 2 * t * b1 - b2 + c, b1
    return t * b1 - b2 + coeffs[0]


_KINDS = ("q", "r", "q2", "q_reg", "r_reg")


def integrate_kind(solution: HMSolution, kind: str, a, b,
                   ctx: PrecisionContext) -> mpf:
    """Integral over [a, b] of q, R, q^2, or the regularized q - sqrt(-y/2)
    and R - y^2/4 (for b <= 0), from the cached element antiderivatives:
    one Clenshaw sum per end point."""
    if kind not in _KINDS:
        raise ValueError(f"unknown integrand kind {kind!r}")
    a, b = mpf(a), mpf(b)
    if b < a:
        raise DomainError("integration bounds must satisfy a <= b")
    if a < solution.x_left or b > solution.x_right:
        raise DomainError("integration bounds must lie inside the grid")
    if kind.endswith("_reg") and b > 0:
        raise DomainError(f"{kind} integrates only up to 0 (sqrt(-y) branches there)")
    coeffs, cum = _antiderivatives(solution, kind.partition("_")[0], ctx)
    edges = solution._edges

    def upto(x: mpf) -> mpf:
        # integral from x_left to x
        e = solution._locate(x)
        lo, hi = edges[e], edges[e + 1]
        return cum[e] + _clenshaw(coeffs[e], (2 * x - lo - hi) / (hi - lo))

    with mp.workprec(ctx.precision_bits + 16):
        total = upto(b) - upto(a)
        if kind == "q_reg":
            total -= mp.sqrt(2) / 3 * ((-a) ** mpf("1.5") - (-b) ** mpf("1.5"))
        elif kind == "r_reg":
            total -= (b ** 3 - a ** 3) / 12
        return total


# ---------------------------------------------------------------------------
# The solver
# ---------------------------------------------------------------------------

_ELEMENT_DEGREE = 24


def solve_hastings_mcleod(x_left=-12, x_right=8, nodes: int = 1100,
                          ctx: PrecisionContext = None) -> HMSolution:
    """Solve the boundary value problem on [x_left, x_right].

    Boundary values are pinned to the asymptotic branches: Ai(x_right) on the
    right, the optimally truncated left series on the left.  Both carry an
    error below the first omitted series term, which decays inward (the
    linearized equation damps boundary perturbations exponentially).
    """
    ctx = ctx or PrecisionContext()
    x_left = mpf(x_left)
    x_right = mpf(x_right)
    if not x_left <= -6:
        raise DomainError("x_left must be <= -6 (left series accuracy)")
    if not x_right >= 6:
        raise DomainError("x_right must be >= 6 (right decay accuracy)")
    if nodes < 200:
        raise DomainError("at least 200 collocation nodes are required")

    p = _ELEMENT_DEGREE
    k_elems = max(2, round((nodes - 1) / p))
    prec = ctx.precision_bits + 64

    # float64 warm start from the blended asymptotic guess
    mesh_f = _Mesh(x_left, x_right, k_elems, p, use_mp=False)
    guess_ctx = PrecisionContext(64, 1e-12, 4)
    ai0 = float(specialfn.airy_ai(0, guess_ctx)[0])

    def guess(x: float) -> float:
        if x >= 0.0:
            return float(specialfn.airy_ai(x, guess_ctx)[0])
        if x <= -1.0:
            return float(np.sqrt(-x / 2.0))
        w = -x
        return (1 - w) * ai0 + w * float(np.sqrt(0.5))

    u_f = [[guess(x) for x in elem] for elem in mesh_f.nodes]
    bc_l_f = float(q_left_boundary_value(x_left)[0])
    bc_r_f = float(specialfn.airy_ai(float(x_right), guess_ctx)[0])
    try:
        u_f, norm_f, _ = _newton_iterate(mesh_f, u_f, bc_l_f, bc_r_f,
                                         stop_tol=1e-11, max_iter=40,
                                         floor_accept=1e-6)
    except SolverError as exc:
        raise SolverError(f"float64 warm start failed: {exc}",
                          residual=exc.residual)

    with mp.workprec(prec):
        mesh = _Mesh(x_left, x_right, k_elems, p, use_mp=True)
        hp_ctx = PrecisionContext(prec, ctx.tolerance, ctx.max_refinements)
        bc_l, bc_err = q_left_boundary_value(x_left)
        bc_r = specialfn.airy_ai(x_right, hp_ctx)[0]
        u = [[mpf(v) for v in row] for row in u_f]
        stop = float(mpf(2) ** (-(prec - 24)))
        try:
            u, norm, res = _newton_iterate(mesh, u, bc_l, bc_r,
                                           stop_tol=stop, max_iter=12,
                                           floor_accept=stop * 1e8)
        except SolverError as exc:
            raise SolverError(f"high-precision Newton failed: {exc}",
                              residual=exc.residual)

        elem_qp = [[2 / mesh.h[e] * mp.fdot(row, u[e]) for row in mesh.d1]
                   for e in range(k_elems)]

        interior_res = []
        for e in range(k_elems):
            interior_res.extend(abs(v) for v in res[e][1:p])
        res_norm = max(interior_res)

    out_prec = ctx.precision_bits
    sol = HMSolution(
        x_left=round_to(x_left, out_prec),
        x_right=round_to(x_right, out_prec),
        residual_norm=round_to(res_norm, out_prec),
        precision_bits=ctx.precision_bits,
        _edges=round_to(mesh.edges, out_prec),
        _elem_q=[round_to(row, out_prec) for row in u],
        _elem_qp=[round_to(row, out_prec) for row in elem_qp],
        _ref=round_to(mesh.ref, out_prec),
    )
    return sol
