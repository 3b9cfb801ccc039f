"""Arbitrary-precision Toeplitz determinant laboratory.

Computes, for the symbol exp(2t cos theta) on the unit circle:

  * D_n(t)        = det(I_{j-k}(2t)),                  0 <= j,k <= n-1
  * D_l^{++}(t)   = det(I_{j-k}(2t) - I_{j+k+2}(2t)),  0 <= j,k <= l-1
  * D_l^{-+}(t)   = det(I_{j-k}(2t) + I_{j+k+1}(2t)),  0 <= j,k <= l-1

(The ++ family is the Gram matrix of second-kind Chebyshev polynomials
against sqrt(1-x^2) e^(2tx), hence the minus sign; displayed definitions
carrying "+ I_{j+k+2}" do not reproduce either the product identities over
kappa, pi or the F E limit, both of which this module's tests pin down.)

plus the orthogonal-polynomial objects derived from the plain family:
log kappa_q^2 = log D_q - log D_{q+1} (leading-coefficient ladder), the
negated log pivots of the integer fixed-point Cholesky of the moment matrix
(linalg.cholesky_log_pivots, shared with the Fredholm oracle), and pi_q(0),
the constant term of the monic orthogonal polynomial (the q-th reflection
coefficient), from the Levinson-Durbin recursion on the moments I_k(2t).
Each pass puts its Bessel row on the grid 2^-bits of its own precision once
and runs both, and the LU below, on it in integers.  Levinson-Durbin is a
generic Toeplitz solver, not the discrete Painleve II recurrence, so kappa
and pi stay independent of the Painleve module they are compared against;
and since they come from two different computations, the Verblunsky
identity 1 - pi_q(0)^2 = kappa_{q-1}^2 / kappa_q^2 checks both.
toeplitz_log_det_lu checks the ladder's determinants by the second integer
factorisation, the pivoted LU of linalg.lu_log_abs_pivots: the same grid,
but a different factorisation, elimination order and rounding path.

Everything is computed at adaptive precision by precision.stabilize: the
working precision starts at ctx.precision_bits + guard_bits(t), with
guard_bits(t) = ceil(4 t log2 e) + 64, and doubles until two consecutive
passes agree to ctx.tolerance.  The guard is sized to the conditioning.
Each moment matrix is the Gram matrix of a basis that is orthonormal (up to
a constant) for a base weight, taken against that weight times e^(2t cos
theta), whose values lie in [e^(-2t), e^(2t)]; so its condition number is
at most e^(4t).  The size e^(t^2) of D_n does not come from cancellation,
since log D_n is a sum of log pivots.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from mpmath import mp, mpf

from . import painleve2, specialfn, twdist
from .errors import DomainError, InternalConsistencyError
from .fixedpoint import dot, from_grid, to_grid
from .linalg import cholesky_log_pivots, lu_log_abs_pivots
from .precision import PrecisionContext, round_to, stabilize
from .quadrature import gauss_legendre

_LOG2_E = 1.4426950408889634

KINDS = ("plain", "plus_plus", "minus_plus")


@dataclass(frozen=True)
class MomentMatrixSpec:
    """Which moment matrix: symbol parameter t, dimension n, and family."""

    t: float
    n: int
    kind: str = "plain"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise DomainError(f"kind must be one of {KINDS}")
        if self.n < 1:
            raise DomainError("matrix dimension n must be >= 1")
        if not self.t > 0:
            raise DomainError("symbol parameter t must be positive")


def guard_bits(t: float) -> int:
    """Bits lost at most to the conditioning (<= e^(4t)) of the moment
    matrices, plus 64; see the module docstring."""
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"symbol parameter t must be finite, got {t}")
    return int(math.ceil(4.0 * t * _LOG2_E)) + 64


# ---------------------------------------------------------------------------
# Core ladder: Cholesky pivots of the moment matrix + Levinson-Durbin for pi
# ---------------------------------------------------------------------------

def _moment_row(t, n: int, kind: str, bits: int) -> List[int]:
    """I_j(2t) on the grid 2^-bits, for every j an n x n family matrix reads."""
    max_j = n - 1 if kind == "plain" else 2 * n
    return [to_grid(v, bits) for v in
            specialfn.bessel_i_row(max_j, 2 * mpf(t), PrecisionContext(bits, 1e-30, 1))]


def _moment_matrix(row: Sequence, n: int, kind: str) -> List[list]:
    """The n x n moment matrix of the family from its row of moments."""
    mat = [[None] * n for _ in range(n)]
    for j in range(n):
        for k in range(n):
            v = row[abs(j - k)]
            if kind == "plus_plus":
                v = v - row[j + k + 2]
            elif kind == "minus_plus":
                v = v + row[j + k + 1]
            mat[j][k] = v
    return mat


def _levinson_constant_terms(moments: Sequence[int], q_max: int,
                             bits: int) -> Dict[int, mpf]:
    """pi_q(0) for q = 1..q_max by the Levinson-Durbin recursion on the
    moments c_k = moments[k], k <= q_max, on the grid 2^-bits.  With a the
    coefficients of the monic pi_q (a_q = 1) and E_q = <pi_q, pi_q> =
    D_{q+1}/D_q:

        pi_{q+1}(0) = -(sum_k a_k c_{k+1}) / E_q,
        pi_{q+1}(z) = z pi_q(z) + pi_{q+1}(0) z^q pi_q(1/z),
        E_{q+1}     = E_q (1 - pi_{q+1}(0)^2).

    a and E_q stay on the grid: each step is one exact dot and one floor per
    division or product, O(q_max^2) integer operations in all."""
    one = 1 << bits
    a = [one]
    energy = moments[0]
    out: Dict[int, mpf] = {}
    for q in range(q_max):
        r = -dot(a, moments[1:q + 2]) // energy
        a = [r] + [a[k - 1] + ((r * a[q - k]) >> bits) for k in range(1, q + 1)] + [one]
        energy = (energy * (one * one - r * r)) >> (2 * bits)
        out[q + 1] = from_grid(r, bits)
    return out


@dataclass
class _Ladder:
    t: float
    kind: str
    n_cap: int
    log_pivots: List[mpf]          # log(D_{k+1}/D_k), k = 0..n_cap-1
    pi0: Dict[int, mpf]            # q -> pi_q(0) (plain family only)
    precision_bits_used: int
    out_bits: int

    def log_d(self, n: int) -> mpf:
        if n < 0 or n > self.n_cap:
            raise DomainError(f"D_{n} not available (ladder up to {self.n_cap})")
        with mp.workprec(max(mp.prec, self.out_bits + 16)):
            return mp.fsum(self.log_pivots[:n]) if n else mpf(0)

    def log_kappa_sq(self, q: int) -> mpf:
        # kappa_q^2 = D_q / D_{q+1}
        if q < 0 or q >= self.n_cap:
            raise DomainError(f"kappa_{q} not available")
        return -self.log_pivots[q]


_LADDER_CACHE_SIZE = 8


class _LadderCache(OrderedDict):
    """The ladders of the last _LADDER_CACHE_SIZE keys used: a lookup or a
    store makes its key the newest, and a store past the bound evicts the
    oldest."""

    def get(self, key, default=None):
        if key not in self:
            return default
        self.move_to_end(key)
        return self[key]

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self.move_to_end(key)
        if len(self) > _LADDER_CACHE_SIZE:
            self.popitem(last=False)


_ladder_cache = _LadderCache()
_ladder_lock = threading.Lock()

_LadderValues = Tuple[List[mpf], Dict[int, mpf]]


def _ladder_pass(t, kind: str, n_cap: int) -> Callable[[int], _LadderValues]:
    """One precision pass of the ladder, for ``stabilize``: the log pivots
    and, for the plain family, pi_q(0) for 0 < q < n_cap."""

    def one(bits: int) -> _LadderValues:
        with mp.workprec(bits):
            row = _moment_row(t, n_cap, kind, bits)
            pivots = cholesky_log_pivots(_moment_matrix(row, n_cap, kind), bits,
                                         f"{kind} moment matrix (t={t})")
            pi0 = (_levinson_constant_terms(row, n_cap - 1, bits)
                   if kind == "plain" else {})
            return pivots, pi0

    return one


def _ladder_distance(a: _LadderValues, b: _LadderValues) -> mpf:
    return max(abs(x - y) for x, y in zip(a[0] + list(a[1].values()),
                                          b[0] + list(b[1].values())))


def get_ladder(t, kind: str, n_cap: int, ctx: PrecisionContext) -> _Ladder:
    """Log pivots log(D_{k+1}/D_k), k < n_cap, and for the plain family
    pi_q(0), 0 < q < n_cap, stabilized from ctx.precision_bits +
    guard_bits(t) bits and kept to ctx.precision_bits + 64 bits.  Cached per
    (t, kind, precision parameters) for the last _LADDER_CACHE_SIZE keys
    used; a request beyond the cached n_cap builds the larger ladder, which
    replaces the cached one."""
    key = (repr(mpf(t)), kind, ctx.precision_bits, ctx.tolerance,
           ctx.max_refinements)
    with _ladder_lock:
        hit = _ladder_cache.get(key)
    if hit is not None and hit.n_cap >= n_cap:
        return hit
    (pivots, pi0), used = stabilize(
        _ladder_pass(t, kind, n_cap), ctx.precision_bits + guard_bits(t), ctx,
        _ladder_distance, what=f"toeplitz ladder (t={t}, kind={kind}, n={n_cap})")
    out_bits = ctx.precision_bits + 64
    ladder = _Ladder(
        t=float(t),
        kind=kind,
        n_cap=n_cap,
        log_pivots=round_to(pivots, out_bits),
        pi0={q: round_to(v, out_bits) for q, v in pi0.items()},
        precision_bits_used=used,
        out_bits=out_bits,
    )
    with _ladder_lock:
        _ladder_cache[key] = ladder
    return ladder


# ---------------------------------------------------------------------------
# Spec-level operations
# ---------------------------------------------------------------------------

def toeplitz_log_det(spec: MomentMatrixSpec, ctx: PrecisionContext) -> mpf:
    """log of the determinant (D_0 := 1 by convention)."""
    ladder = get_ladder(spec.t, spec.kind, spec.n, ctx)
    return round_to(ladder.log_d(spec.n), ctx.precision_bits)


def toeplitz_log_det_lu(spec: MomentMatrixSpec, ctx: PrecisionContext) -> mpf:
    """Independent route: a pivoted LU of the full moment matrix
    (linalg.lu_log_abs_pivots), sharing nothing with the Cholesky of the
    ladder but the grid (different factorisation, elimination order and
    rounding path), stabilized the same way.  Used to check telescoping
    identities non-vacuously.

    Each pass builds the matrix in integers from the row of _moment_row, as
    a ladder pass does.  The determinants of these matrices are positive,
    so the log of |det| is log det."""

    def one(bits: int) -> mpf:
        with mp.workprec(bits):
            row = _moment_row(spec.t, spec.n, spec.kind, bits)
            return mp.fsum(lu_log_abs_pivots(
                _moment_matrix(row, spec.n, spec.kind), bits,
                f"{spec.kind} moment matrix (t={spec.t})"))

    val, _ = stabilize(one, ctx.precision_bits + guard_bits(spec.t), ctx,
                       lambda a, b: abs(a - b),
                       what=f"LU log-determinant (t={spec.t}, n={spec.n})")
    return round_to(val, ctx.precision_bits)


def kappa_sq(q: int, t, ctx: PrecisionContext) -> mpf:
    """log kappa_q^2 = log D_q - log D_{q+1}; always negative (the scaled
    determinants e^(-t^2) D_n are increasing probabilities)."""
    if q < 0:
        raise DomainError("q must be >= 0")
    ladder = get_ladder(t, "plain", q + 1, ctx)
    val = ladder.log_kappa_sq(q)
    if not val < 0:
        raise InternalConsistencyError(
            f"kappa_{q}^2(t={t}) >= 1; determinant ladder inconsistent")
    return round_to(val, ctx.precision_bits)


def pi_zero(q: int, t, ctx: PrecisionContext) -> mpf:
    """Constant term pi_q(0;t) of the monic orthogonal polynomial."""
    if q < 1:
        raise DomainError("q must be >= 1")
    ladder = get_ladder(t, "plain", q + 1, ctx)
    val = ladder.pi0[q]
    if not abs(val) < 1:
        raise InternalConsistencyError(
            f"|pi_{q}(0)| >= 1 at t={t}; Levinson recursion inconsistent")
    return round_to(val, ctx.precision_bits)


def d_pm_log(kind: str, ell: int, t, ctx: PrecisionContext) -> mpf:
    """log D_ell^{++} or log D_ell^{-+}."""
    if kind not in ("plus_plus", "minus_plus"):
        raise DomainError("kind must be plus_plus or minus_plus")
    if ell < 1:
        raise DomainError("ell must be >= 1")
    ladder = get_ladder(t, kind, ell, ctx)
    return round_to(ladder.log_d(ell), ctx.precision_bits)


# ---------------------------------------------------------------------------
# Airy-regime predictions
# ---------------------------------------------------------------------------

def airy_kappa_correction(q: int, t) -> mpf:
    """-1/(8(2t-q)) - 1/(12q): first correction of the kappa prediction
    below; negative on 0 < q < 2t and must stay above -1/2 before being fed
    to a logarithm."""
    t = mpf(t)
    return -1 / (8 * (2 * t - q)) - mpf(1) / (12 * q)


def airy_log_kappa_prediction(q: int, t, include_correction: bool = True) -> mpf:
    """Predicted log kappa_{q-1}^{-2} in the Airy regime:

        -q(-gamma + log gamma + 1) + (1/2) log gamma
            - log(1 - 1/(8(2t-q)) - 1/(12q)),   gamma = 2t/q,

    the last term only when include_correction (the explicitly computable
    first correction of the local-parametrix expansion)."""
    t = mpf(t)
    if q < 1 or not q < 2 * t:
        raise DomainError("prediction requires 1 <= q < 2t")
    corr = airy_kappa_correction(q, t)
    if not abs(corr) < mpf(1) / 2:
        raise DomainError(
            f"correction {corr} out of range at q={q}, t={t}; q too close "
            "to the edge of the prediction region")
    prec = mp.prec
    with mp.workprec(prec + 16):
        gamma = 2 * t / q
        val = -q * (-gamma + mp.log(gamma) + 1) + mp.log(gamma) / 2
        if include_correction:
            val -= mp.log(1 + corr)
        return +val


def pi_zero_airy_prediction(q: int, t) -> mpf:
    """Leading Airy-regime prediction (-1)^q sqrt((2t - q)/(2t))."""
    t = mpf(t)
    if q < 1 or not q < 2 * t:
        raise DomainError("prediction requires 1 <= q < 2t")
    return (-1) ** q * mp.sqrt((2 * t - q) / (2 * t))


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanRecord:
    q: int
    gamma: mpf
    log_kappa_sq: mpf
    pi0: Optional[mpf]
    log_kappa_sq_airy_pred: Optional[mpf]
    pi0_airy_pred: Optional[mpf]


@dataclass(frozen=True)
class ToeplitzScan:
    t: float
    records: List[ScanRecord]
    precision_bits_used: int


def toeplitz_scan(t, q_values: Sequence[int], ctx: PrecisionContext,
                  with_pi: bool = True) -> ToeplitzScan:
    """Per-q ladder records at fixed t, with Airy-regime predictions where
    defined (prediction of log kappa_q^2 uses the q+1 formula)."""
    q_values = sorted(set(int(q) for q in q_values))
    if q_values and q_values[0] < 1:
        raise DomainError("scan q values must be >= 1")
    n_cap = q_values[-1] + 1 if q_values else 1
    ladder = get_ladder(t, "plain", n_cap, ctx)
    t_mp = mpf(t)
    records = []
    with mp.workprec(ctx.precision_bits):
        for q in q_values:
            pred_k = None
            pred_pi = None
            if (q + 1 < 2 * t_mp
                    and abs(airy_kappa_correction(q + 1, t_mp)) < mpf(1) / 2):
                pred_k = -airy_log_kappa_prediction(q + 1, t)
            if q < 2 * t_mp:
                pred_pi = pi_zero_airy_prediction(q, t)
            records.append(ScanRecord(
                q=q,
                gamma=+(2 * t_mp / q),
                log_kappa_sq=+ladder.log_kappa_sq(q),
                pi0=(+ladder.pi0[q]) if with_pi and q in ladder.pi0 else None,
                log_kappa_sq_airy_pred=pred_k,
                pi0_airy_pred=pred_pi,
            ))
    return ToeplitzScan(t=float(t), records=records,
                        precision_bits_used=ladder.precision_bits_used)


# ---------------------------------------------------------------------------
# Product-split reports (F2 side)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SumPartsReport:
    t: float
    x: float
    L: int
    M: int
    n: int
    exact_part: mpf
    airy_part: mpf
    painleve_part: mpf
    total: mpf                    # -t^2 + exact + airy + painleve
    total_direct: mpf             # log(e^(-t^2) D_n) via the LU route
    exact_part_limit: mpf
    airy_part_limit: mpf
    painleve_part_limit: mpf
    f2_reference: mpf


def _tw_reference(x, sol: painleve2.HMSolution, ctx: PrecisionContext,
                  check: bool) -> twdist.TWPoint:
    """The Painleve-route TW point at x that the double-scaling limits are
    compared with: ctx's precision, tolerance relaxed to at least 1e-12,
    since the left-tail series of a default-window solution cannot reach the
    tighter tolerances the ladders are stabilized to."""
    tw_ctx = PrecisionContext(ctx.precision_bits, max(ctx.tolerance, 1e-12),
                              ctx.max_refinements)
    return twdist.tw_point(x, sol, twdist.TailConstants.compute(tw_ctx),
                           tw_ctx, check=check)


def _exact_part_bracket(L: int, t_mp: mpf, zp: mpf) -> mpf:
    """2Lt - (L^2/2) log(2t) + (L^2/2 - 1/12) log L - (3/4) L^2 + zeta'(-1),
    the large-t form of log D_L(t), at the working precision."""
    l_mp = mpf(L)
    return (2 * l_mp * t_mp - l_mp ** 2 / 2 * mp.log(2 * t_mp)
            + (l_mp ** 2 / 2 - mpf(1) / 12) * mp.log(l_mp)
            - mpf(3) / 4 * l_mp ** 2 + zp)


def sum_parts_report(t, x, L: int, M: int, sol: painleve2.HMSolution,
                     ctx: PrecisionContext) -> SumPartsReport:
    """Split log(e^(-t^2) D_n), n = floor(2t + x t^(1/3)), as

        -t^2 + log D_L                                   (exact part)
        + sum_{q=L+1}^{floor(2t - M t^(1/3) - 1)} log kappa_{q-1}^(-2)   (Airy)
        + sum_{q=floor(2t - M t^(1/3))}^{n} log kappa_{q-1}^(-2)     (Painleve)

    and report each part next to its large-t limit.  The Painleve-part limit
    is +int_{-M}^x R(y) dy (log kappa^(-2) ~ +R/t^(1/3) > 0; the printed
    minus sign in some sources is inconsistent with the total)."""
    t_mp = mpf(t)
    x_mp = mpf(x)
    with mp.workprec(ctx.precision_bits + 16):
        t13 = t_mp ** (mpf(1) / 3)
        n = int(mp.floor(2 * t_mp + x_mp * t13))
        q_airy_hi = int(mp.floor(2 * t_mp - mpf(M) * t13 - 1))
    if not (1 <= L < q_airy_hi):
        raise DomainError(f"need 1 <= L < 2t - M t^(1/3) - 1, got L={L}, "
                          f"hi={q_airy_hi}")
    if n <= q_airy_hi:
        raise DomainError("Painleve window is empty; decrease M or raise t")
    ladder = get_ladder(t, "plain", n, ctx)
    zp = specialfn.zeta_prime_minus_one(ctx)
    with mp.workprec(ctx.precision_bits + 16):
        exact = ladder.log_d(L)
        airy = mp.fsum(ladder.log_pivots[q - 1] for q in range(L + 1, q_airy_hi + 1))
        painleve = mp.fsum(ladder.log_pivots[q - 1] for q in range(q_airy_hi + 1, n + 1))
        total = -t_mp ** 2 + exact + airy + painleve
        m_mp = mpf(M)
        exact_limit = _exact_part_bracket(L, t_mp, zp)
        airy_limit = (t_mp ** 2 - (exact_limit - zp) - m_mp ** 3 / 12
                      - mp.log(m_mp) / 8 + mp.log(2) / 24)
        painleve_limit = painleve2.integrate_kind(sol, "r", -m_mp, x_mp, ctx)
    direct = toeplitz_log_det_lu(MomentMatrixSpec(float(t), n, "plain"), ctx)
    f2_ref = _tw_reference(x, sol, ctx, check=True).F2
    with mp.workprec(ctx.precision_bits + 16):
        total_direct = direct - t_mp ** 2
    r = round_to((exact, airy, painleve, total,
                  total_direct, exact_limit, airy_limit,
                  painleve_limit, f2_ref), ctx.precision_bits)
    return SumPartsReport(t=float(t), x=float(x), L=L, M=M, n=n,
                          exact_part=r[0], airy_part=r[1], painleve_part=r[2],
                          total=r[3], total_direct=r[4],
                          exact_part_limit=r[5], airy_part_limit=r[6],
                          painleve_part_limit=r[7], f2_reference=r[8])


def exact_part_limit_check(L: int, t, ctx: PrecisionContext) -> mpf:
    """Residual log D_L(t) - {2Lt - (L^2/2) log(2t) + (L^2/2 - 1/12) log L
    - (3/4) L^2 + zeta'(-1)}; tends to 0 as t then L grow."""
    if L < 2:
        raise DomainError("L must be >= 2")
    logd = toeplitz_log_det(MomentMatrixSpec(float(t), L, "plain"), ctx)
    zp = specialfn.zeta_prime_minus_one(ctx)
    with mp.workprec(ctx.precision_bits + 16):
        return round_to(logd - _exact_part_bracket(L, mpf(t), zp),
                        ctx.precision_bits)


def selberg_hermite_log_closed(L: int, t, ctx: PrecisionContext) -> mpf:
    """log of the Gaussian Selberg integral
    pi^(L/2) 2^(-L(L-1)/2) t^(-L^2/2) G(L+1)."""
    if L < 1:
        raise DomainError("L must be >= 1")
    logg = specialfn.log_barnes_g(L + 1, ctx)
    with mp.workprec(ctx.precision_bits + 16):
        t_mp = mpf(t)
        return round_to(
            mpf(L) / 2 * mp.log(mp.pi) - mpf(L * (L - 1)) / 2 * mp.log(2)
            - mpf(L * L) / 2 * mp.log(t_mp) + logg, ctx.precision_bits)


def selberg_hermite_log_quadrature(L: int, t, ctx: PrecisionContext,
                                   points: int = 60) -> mpf:
    """Direct tensor quadrature of
    (1/L!) int exp(-t sum x_i^2) prod (x_i - x_j)^2 dx over R^L, for L <= 3.

    After x = u/sqrt(t) the integrand is exp(-|u|^2) times a polynomial;
    [-8.5, 8.5]^L truncates it below 1e-31."""
    if not 1 <= L <= 3:
        raise DomainError("direct quadrature only supported for L <= 3")
    prec = ctx.precision_bits + 16
    xs, ws = gauss_legendre(points, prec)
    with mp.workprec(prec):
        t_mp = mpf(t)
        a = mpf("8.5")
        us = [a * v for v in xs]
        wts = [a * w for w in ws]
        gs = [mp.exp(-u * u) for u in us]
        total = mpf(0)
        if L == 1:
            total = mp.fsum(w * g for w, g in zip(wts, gs))
        elif L == 2:
            for i in range(points):
                for j in range(points):
                    d = us[i] - us[j]
                    total += wts[i] * wts[j] * gs[i] * gs[j] * d * d
        else:
            for i in range(points):
                for j in range(points):
                    dij = (us[i] - us[j]) ** 2
                    wij = wts[i] * wts[j] * gs[i] * gs[j]
                    if wij == 0:
                        continue
                    for k in range(points):
                        dt = dij * (us[i] - us[k]) ** 2 * (us[j] - us[k]) ** 2
                        total += wij * wts[k] * gs[k] * dt
        total /= mp.factorial(L)
        return round_to(mp.log(total) - mpf(L * L) / 2 * mp.log(t_mp),
                        ctx.precision_bits)


# ---------------------------------------------------------------------------
# E-side scaffolding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EDoubleScalingReport:
    t: float
    x: float
    L: int
    M: int
    ell: int
    fe_reference: mpf             # F(x) E(x)
    d_pp_value: mpf               # e^(-t^2/2) D_{ell-1}^{++}
    d_mp_value: mpf               # e^(-t^2/2 - t) D_ell^{-+}
    exact_part: mpf
    airy_part: mpf
    painleve_part: mpf
    total_two_log_e: mpf          # -t + exact + airy + painleve
    identity_gap: mpf             # total vs log(e^-t D++ D-+ / D_{2l-1})
    exact_part_limit: mpf
    airy_part_limit: mpf
    painleve_part_limit: mpf
    two_log_e_reference: mpf


def e_double_scaling_check(t, x, L: int, M: int, sol: painleve2.HMSolution,
                           ctx: PrecisionContext) -> EDoubleScalingReport:
    """Finite-t values of the E-side decomposition

        2 log E(x) ~ -t + log(D_{L-1}^{++} D_L^{-+} / D_{2L-1})
                     + sum_{j=L}^{floor(t - (M/2) t^(1/3))} log[(1+pi_{2j})(1-pi_{2j+1})]
                     + sum_{j=...+1}^{ell-1}                log[(1+pi_{2j})(1-pi_{2j+1})]

    with ell = floor(t + (x/2) t^(1/3)), next to the parts' limits and the
    product convergence of e^(-t^2/2) D_{ell-1}^{++} to F E."""
    t_mp = mpf(t)
    x_mp = mpf(x)
    with mp.workprec(ctx.precision_bits + 16):
        t13 = t_mp ** (mpf(1) / 3)
        ell = int(mp.floor(t_mp + x_mp / 2 * t13))
        j_airy_hi = int(mp.floor(t_mp - mpf(M) / 2 * t13))
    if L < 2 or not L <= j_airy_hi:
        raise DomainError(f"need 2 <= L <= floor(t - (M/2) t^(1/3)) = {j_airy_hi}")
    if ell - 1 < j_airy_hi:
        raise DomainError("Painleve window is empty; decrease M or raise t")

    plain = get_ladder(t, "plain", 2 * ell, ctx)
    pp = get_ladder(t, "plus_plus", max(ell - 1, L - 1), ctx)
    mp_lad = get_ladder(t, "minus_plus", max(ell, L), ctx)
    tw_ref = _tw_reference(x, sol, ctx, check=False)

    with mp.workprec(ctx.precision_bits + 16):
        exact = pp.log_d(L - 1) + mp_lad.log_d(L) - plain.log_d(2 * L - 1)

        def term(j: int) -> mpf:
            return (mp.log(1 + plain.pi0[2 * j])
                    + mp.log(1 - plain.pi0[2 * j + 1]))

        airy = mp.fsum(term(j) for j in range(L, j_airy_hi + 1))
        painleve = mp.fsum(term(j) for j in range(j_airy_hi + 1, ell))
        total = -t_mp + exact + airy + painleve
        direct = (-t_mp + pp.log_d(ell - 1) + mp_lad.log_d(ell)
                  - plain.log_d(2 * ell - 1))
        identity_gap = total - direct

        d_pp = mp.exp(-t_mp ** 2 / 2 + pp.log_d(ell - 1))
        d_mp = mp.exp(-t_mp ** 2 / 2 - t_mp + mp_lad.log_d(ell))

        log2 = mp.log(2)
        m_mp = mpf(M)
        sqrt2 = mp.sqrt(2)
        exact_limit = (2 * L - 1) * log2
        airy_limit = t_mp - sqrt2 / 3 * m_mp ** mpf("1.5") - (2 * L - mpf("0.5")) * log2
        painleve_limit = painleve2.integrate_kind(sol, "q", -m_mp, x_mp, ctx)
        two_log_e = 2 * mp.log(tw_ref.E)

    r = round_to((tw_ref.F1, d_pp, d_mp, exact, airy, painleve, total,
                  identity_gap, exact_limit, airy_limit, painleve_limit,
                  two_log_e), ctx.precision_bits)
    return EDoubleScalingReport(
        t=float(t), x=float(x), L=L, M=M, ell=ell,
        fe_reference=r[0], d_pp_value=r[1], d_mp_value=r[2],
        exact_part=r[3], airy_part=r[4], painleve_part=r[5],
        total_two_log_e=r[6], identity_gap=r[7],
        exact_part_limit=r[8], airy_part_limit=r[9],
        painleve_part_limit=r[10], two_log_e_reference=r[11])


def pi_partial_sums(t, x, k_max: int, sol: painleve2.HMSolution,
                    ctx: PrecisionContext, parity: str = "odd") -> List[mpf]:
    """Residuals r_K = sum_{j=ell}^{ell+K} log(1 -+ pi_{2j+1 or 2j+2}(0))
    + log E(x) for K = 0..k_max; both tend to 0 as K and t grow.

    parity='odd' uses log(1 - pi_{2j+1}), parity='even' log(1 + pi_{2j+2})."""
    if parity not in ("odd", "even"):
        raise DomainError("parity must be 'odd' or 'even'")
    t_mp = mpf(t)
    x_mp = mpf(x)
    with mp.workprec(ctx.precision_bits + 16):
        ell = int(mp.floor(t_mp + x_mp / 2 * t_mp ** (mpf(1) / 3)))
    q_hi = 2 * (ell + k_max) + 2
    plain = get_ladder(t, "plain", q_hi + 1, ctx)
    e = _tw_reference(x, sol, ctx, check=False).E
    out: List[mpf] = []
    with mp.workprec(ctx.precision_bits + 16):
        log_e = mp.log(e)
        acc = mpf(0)
        for k in range(k_max + 1):
            j = ell + k
            if parity == "odd":
                acc += mp.log(1 - plain.pi0[2 * j + 1])
            else:
                acc += mp.log(1 + plain.pi0[2 * j + 2])
            out.append(+(acc + log_e))
    return round_to(out, ctx.precision_bits)
