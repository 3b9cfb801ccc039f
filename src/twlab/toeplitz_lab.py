"""Arbitrary-precision Toeplitz determinant laboratory.

Computes, for the symbol exp(2t cos theta) on the unit circle:

  * D_n(t)        = det(I_{j-k}(2t)),                  0 <= j,k <= n-1
  * D_l^{++}(t)   = det(I_{j-k}(2t) - I_{j+k+2}(2t)),  0 <= j,k <= l-1
  * D_l^{-+}(t)   = det(I_{j-k}(2t) + I_{j+k+1}(2t)),  0 <= j,k <= l-1

(The ++ family is the Gram matrix of second-kind Chebyshev polynomials
against sqrt(1-x^2) e^(2tx), hence the minus sign; displayed definitions
carrying "+ I_{j+k+2}" do not reproduce either the product identities over
kappa, pi or the F E limit, both of which this module's tests pin down.)

plus the orthogonal-polynomial objects of the plain family: log kappa_q^2 =
log D_q - log D_{q+1} (leading-coefficient ladder) and pi_q(0), the constant
term of the monic orthogonal polynomial (the q-th reflection coefficient).

One pass gives all three families.  The Levinson-Durbin recursion on the
moments I_k(2t), put on the grid 2^-bits of the pass's precision once, runs
in O(n^2) integer operations (_levinson_constant_terms) and yields pi_q(0)
and the energies E_q = D_{q+1}/D_q, the plain log pivots.  The +- log
pivots follow step by step from the product identities of Baik and Rains,
Algebraic aspects of increasing subsequences, Duke Math. J. 109 (2001):

    log(D^{++}_{l+1}/D^{++}_l) = log E_{2l+1} + log(1 + pi_{2l+2}(0)),
    log(D^{-+}_{l+1}/D^{-+}_l) = log E_{2l}   + log(1 - pi_{2l+1}(0)),

so the pass to n returns three ladders (_ladder_pass): the plain one to n
and each +- one to (n - 1) // 2, each a plain record (_Ladder) with its own
bound, which get_ladder caches together.  Levinson-Durbin is a generic
Toeplitz solver, not the discrete Painleve II recurrence, and this module
imports no Painleve module, so kappa and pi stay independent of the route
they are compared against: twlab.checks, which holds the product-split
reports (sum_parts_report, e_double_scaling_check), joins the two.

The integer Cholesky of the full moment matrix of a family (linalg.
cholesky_log_pivots, _cholesky_ladder) is the independent route to its
ladder.  It is not on the path of the ladders, and since the pass forms
kappa from pi by E_{q+1} = E_q (1 - pi_{q+1}(0)^2), the Verblunsky
identity, the product identities and the reports' telescoping read one
side from it.

Each ladder pass and Cholesky runs once, through precision.stabilize, at
ctx.precision_bits + guard_bits(t, n, route) bits, a guard sized from the
a priori form of that route's own bound (below), and returns its values
with a proven absolute error bound; the bound must be at most
2^-ctx.precision_bits.  The determinants are exact up to rounding, so no
tolerance is read here.  Each bound is formed from numbers the pass
already has:

  * input: each moment is off by at most one grid unit 2^-bits plus
    specialfn.bessel_i_row_error(bits) = 2^-(bits + 31), the integer
    Miller row's 18 N units of 2^-(bits + ceil(2t log2 e) + 64) relative to
    values at most e^(2t) and its one rounding to bits + 32 bits at that
    size; an entry of a family matrix by at most twice that;
  * the Levinson ladder: Cybenko's residual recursion bounds each pi_q(0);
    log E_q then carries the input error of c_0, for each step the change
    of log(1 - x^2) between the computed and the exact pi_k(0), and one
    floor; each log(1 +- pi) term adds err_pi / (1 - |pi| - err_pi); every
    log and sum adds its rounding.  A ladder's bound is the sum of the
    bounds of its pivots, so it covers each pivot and each log D_n, and the
    plain one also each pi_q(0) (_levinson_constant_terms);
  * the Cholesky: the backward error on the grid,
    linalg.cholesky_entry_error, and conditioning: every family matrix has
    lambda_min >= e^(-2t), so ||M^-1||_2 <= e^(2t), and
    linalg.log_det_error turns the entry bounds into one bound for log D_n,
    for every n at once, and twice it for each log pivot, a difference of
    two of them.

The conditioning argument: each moment matrix is the Gram matrix of a basis
that is orthonormal for a base weight, taken against that weight times
e^(2t cos theta), whose values lie in [e^(-2t), e^(2t)]; at t = 0 every
family matrix is the identity (I_k(0) = 0 for k != 0), so the base Gram
matrix is the identity and every eigenvalue lies in [e^(-2t), e^(2t)].  The
size e^(t^2) of D_n does not come from cancellation, since log D_n is a sum
of log pivots.

The a priori forms of the bounds, in grid units 2^-bits, size the guards:

  * the Cholesky: twice log_det_error's 2 n^(3/2) ||M^-1||_2 <= 2 n^(3/2)
    e^(2t) times an entry error of cholesky_entry_error's 2 sqrt(I_0(2t))
    <= 2 e^t plus 2 moment errors: at most 16 n^(3/2) e^(3t);
  * the Levinson ladder: pi_q(0) loses about e^(4t): a floor in its
    coefficients reaches the residual through sum_m |I_m(2t)| <= e^(2t),
    the residual grows with prod (1 + |pi_k(0)|), about e^t, and it is read
    through ||pi_{q-1}||_1, about e^t again.  The residual takes q such
    floors a step, so pi_q(0) is off by about q^2 e^(4t), and a +- ladder
    adds the errors of n of them, about n^3 e^(4t).  log E_q reads pi
    through 2 |pi| / (1 - pi^2), at most about 4t on the ladders run here
    (1 - pi_1(0)^2 is about 1 / (2t)), and the plain ladder sums n log
    errors that each sum q steps, about n^2.

guard_bits(t, n, route) is ceil(rate t log2 e + power log2(n + 1)) +
spare with (rate, power) = (4, 3) for the ladder and (3, 3/2) for the
Cholesky.  The spare is 16 bits for the Cholesky, its 4 bits of constant
factor and the slack, and 8 for the ladder, whose n^3 e^(4t) overstates the
loss once n passes 2t.  At 256 bits, for t from 1 to 100 and n from 12 to
230, every bound then lies 13 to 28 bits below 2^-256: at t = 30 the ladder
to n = 71 runs at 456 bits and the Cholesky at 412, and at t = 100, n = 230
at 865 and 717 bits.  At t up to 5 the ladder keeps about 11 to 19 bits for
every n up to 2000.
"""

from __future__ import annotations

import math
import operator
from collections import OrderedDict
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from mpmath import libmp, mp, mpf

from . import specialfn
from .errors import DomainError, PrecisionError
from .fixedpoint import dot, from_grid, to_grid
from .linalg import cholesky_entry_error, cholesky_log_pivots, log_det_error
from .precision import REPORT_GUARD, PrecisionContext, round_to, stabilize
from .quadrature import gauss_legendre

_LOG2_E = 1.4426950408889634
_ROUND = libmp.round_nearest

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
        if _index(self.n, "n") < 1:
            raise DomainError("matrix dimension n must be >= 1")
        _check_t(self.t)


def _index(v, name: str) -> int:
    """v as an int by operator.index, or DomainError naming the index."""
    try:
        return operator.index(v)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {v!r}") from None


def _check_t(t, name: str = "symbol parameter t") -> float:
    """float(t), or DomainError naming ``name`` unless t is finite and
    positive: the one domain rule for t, which guard_bits, MomentMatrixSpec,
    scaling_index and the command line's --t read."""
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"{name} must be finite, got {t}")
    if not t > 0:
        raise DomainError(f"{name} must be positive")
    return t


# Per route, (rate, power, spare): the route's bound is about n^power
# e^(rate t) grid units, and spare bits cover its constant factor and the
# slack kept (module docstring).
_GUARD_FORMS = {"ladder": (4, 3, 8), "cholesky": (3, 1.5, 16)}


def guard_bits(t: float, n: int, route: str) -> int:
    """The bits a pass of ``route`` ("ladder" or "cholesky") of dimension n
    at t works at above the target: ceil(rate t log2 e + power log2(n + 1))
    + spare from _GUARD_FORMS, the a priori form of the route's bound
    (module docstring), for a t that _check_t accepts."""
    rate, power, spare = _GUARD_FORMS[route]
    return int(math.ceil(rate * _check_t(t) * _LOG2_E
                         + power * math.log2(n + 1))) + spare


# ---------------------------------------------------------------------------
# Core ladder: one Levinson-Durbin pass for every family; the Cholesky route
# ---------------------------------------------------------------------------

def _moment_row(t, n: int, kind: str, bits: int) -> List[int]:
    """I_j(2t) on the grid 2^-bits, for every j an n x n family matrix reads;
    each entry is within _moment_error(bits) of I_j(2t)."""
    max_j = n - 1 if kind == "plain" else 2 * n
    return [to_grid(v, bits) for v in
            specialfn.bessel_i_row(max_j, 2 * mpf(t), bits)]


def _moment_error(bits: int) -> mpf:
    """The truncation to the grid 2^-bits plus the row's own error."""
    return mpf(2) ** -bits + specialfn.bessel_i_row_error(bits)


def _log_det_bound(t, log_pivots: Sequence[mpf], factor_error: mpf,
                   bits: int) -> mpf:
    """A bound on the error of every partial sum of ``log_pivots``, the logs
    of the pivots of a family matrix at t factored at ``bits`` with backward
    error factor_error per entry: linalg.log_det_error for that error plus
    twice the moment error (an entry is at most two moments), at
    ||M^-1||_2 <= e^(2t), plus the rounding of each log and of the sum,
    |log| 2^(1-bits) each."""
    n = len(log_pivots)
    entry_error = 2 * _moment_error(bits) + factor_error
    return (log_det_error(n, entry_error, mp.exp(2 * mpf(t)))
            + (n + 1) * max(map(abs, log_pivots)) * mpf(2) ** (1 - bits))


def _moment_matrix(row: Sequence[int], n: int, kind: str) -> List[List[int]]:
    """The lower triangle of the n x n moment matrix of the family, row j
    holding columns 0..j, from its row of moments: all the Cholesky reads."""
    mat = [row[j::-1] for j in range(n)]
    if kind != "plain":
        sign, shift = (-1, 2) if kind == "plus_plus" else (1, 1)
        for j, r in enumerate(mat):
            for k in range(j + 1):
                r[k] += sign * row[j + k + shift]
    return mat


class _Levinson(NamedTuple):
    """One Levinson-Durbin run, on the grid 2^-bits of its moments; every
    entry is an integer in units of 2^-bits, each error rounded up."""

    pi: List[int]          # pi_q(0), q = 1..q_max (index q - 1)
    pi_error: List[int]    # bound on the error of pi[q - 1]
    energy: List[int]      # E_q = D_{q+1}/D_q, q = 0..q_max
    log_error: List[int]   # bound on |log energy[q] - log E_q|


def _levinson_constant_terms(moments: Sequence[int], q_max: int, bits: int,
                             moment_error: mpf) -> _Levinson:
    """pi_q(0), q = 1..q_max, and the energies E_q = D_{q+1}/D_q, q <=
    q_max, by the Levinson-Durbin recursion on the moments c_k = moments[k],
    k <= q_max, on the grid 2^-bits, with bounds on the error of every
    pi_q(0) and every log E_q when each moment is within moment_error of
    I_k(2t).  With a the coefficients of the monic pi_q (a_q = 1):

        pi_{q+1}(0) = -(sum_k a_k c_{k+1}) / E_q,
        pi_{q+1}(z) = z pi_q(z) + pi_{q+1}(0) z^q pi_q(1/z),
        E_{q+1}     = E_q (1 - pi_{q+1}(0)^2),   E_0 = c_0.

    a and E_q stay on the grid: each step is one exact dot and one floor per
    division or product, O(q_max^2) integer operations in all.

    The bound on pi_q(0) follows Cybenko, The stability of the Levinson
    algorithm, SIAM J. Sci. Stat. Comput. 1 (1980).  Let s be the residual
    of the computed a in the normal equations of the grid moments (rows
    0..q-1 of T a, which vanish for the exact a) and e that of row q against
    the computed E_q.  One step maps (s, e) to a shift of s plus
    pi_{q+1}(0) times its reverse, plus the floors: the division's (<
    2^-bits times E_q, in row 0 and in e), the energy's (< 2^-bits) and the
    q floors of a (< 2^-bits each, through T, so at most q 2^-bits S with S
    = sum_|m|<=q_max |c_m|).  So R_q >= ||s||_1 + |e| obeys

        R_{q+1} <= (1 + |pi_{q+1}(0)|) R_q + 2^-bits (2 E_q + 1 + q S),

    and against the exact moments s grows by at most q moment_error ||a||_1.
    The exact a differs from the computed one by T_q^-1 s in rows 0..q-1,
    and row 0 of T_q^-1 is the reversed pi_{q-1} over E_{q-1} (Gohberg-
    Semencul), so

        |pi_q(0) error| <= ||pi_{q-1}||_inf ||s||_1 / E_{q-1}
                        <= prod_{k<q} (1 + |pi_k(0)| + err_k) ||s||_1,

    since ||pi_q||_1 <= prod_{k<=q} (1 + |pi_k(0)|) by the recursion and
    E_{q-1} = D_q / D_{q-1} >= 1 (e^(-t^2) D_n is the probability that the
    longest increasing subsequence of a Poissonized random permutation is at
    most n, Gessel's identity, so it grows with n).

    The computed energy is E_{q+1} = E_q (1 - pi^2) - f with pi the computed
    pi_{q+1}(0), exact on the grid, and 0 <= f < 2^-bits, so

        log E_{q+1} = log E_q + log(1 - pi^2) + log(1 - f / (E_q (1 - pi^2))).

    Its error is therefore the input error of c_0 (moment_error / (c_0 -
    moment_error)), plus for each step the change of log(1 - x^2) between
    pi and the exact value, at most 2 p err / (1 - p^2) with p = |pi| + err
    (the mean value theorem; |d/dx log(1 - x^2)| grows with |x|), plus the
    floor's 2 f / E_{q+1} <= 2 / E_{q+1} grid units.  A p that reaches 1
    leaves log(1 - x^2) unbounded and raises PrecisionError."""
    one = 1 << bits
    a = [one]
    energy = moments[0]
    delta = to_grid(moment_error, bits) + 1
    spread = moments[0] + 2 * sum(map(abs, moments[1:q_max + 1]))
    resid = 0                   # R_q
    growth = one                # prod_{k<=q} (1 + |pi_k(0)| + err_k)
    log_err = -(-delta * one // (energy - delta))
    out = _Levinson([], [], [energy], [log_err])
    for q in range(q_max):
        r = -dot(a, moments[1:q + 2]) // energy
        resid = -(-((one + abs(r)) * resid + 2 * energy + q * spread) >> bits) + 1
        a = [r] + [a[k - 1] + ((r * a[q - k]) >> bits) for k in range(1, q + 1)] + [one]
        energy = (energy * (one * one - r * r)) >> (2 * bits)
        input_resid = -(-(q + 1) * delta * sum(map(abs, a)) >> bits)
        err = -(-growth * (resid + input_resid) >> bits)
        growth = -(-growth * (one + abs(r) + err) >> bits)
        p = abs(r) + err
        if p >= one:
            raise PrecisionError(
                f"|pi_{q + 1}(0)| plus its error bound reaches 1 at {bits} bits")
        log_err += -(-2 * p * err * one // (one * one - p * p)) - (-2 * one // energy)
        out.pi.append(r)
        out.pi_error.append(err)
        out.energy.append(energy)
        out.log_error.append(log_err)
    return out


def _log_units(v: mpf) -> int:
    """The rounding of a log ``v`` taken at the grid's precision, and of one
    sum with it, |v| 2^(1-bits), in grid units rounded up."""
    return 2 * (int(abs(v)) + 1)


@dataclass(frozen=True)
class _Ladder:
    """One family's ladder from one pass: the log pivots log(D_{k+1}/D_k), k
    < n_cap, pi_q(0), 0 < q < n_cap, for the plain family (else empty), the
    bits of the pass, and a bound on the error of each log pivot, each
    pi_q(0) and each log D_n, n <= n_cap, at the bits the values hold."""

    log_pivots: List[mpf]
    pi0: Dict[int, mpf]
    precision_bits_used: int
    error_bound: mpf

    @property
    def n_cap(self) -> int:
        return len(self.log_pivots)

    def log_d(self, n: int) -> mpf:
        if n < 0 or n > self.n_cap:
            raise DomainError(f"D_{n} not available (ladder up to {self.n_cap})")
        with mp.workprec(max(mp.prec, self.precision_bits_used + REPORT_GUARD)):
            return mp.fsum(self.log_pivots[:n]) if n else mpf(0)

    def log_kappa_sq(self, q: int) -> mpf:
        # kappa_q^2 = D_q / D_{q+1}
        if q < 0 or q >= self.n_cap:
            raise DomainError(f"kappa_{q} not available")
        return -self.log_pivots[q]


_LADDER_CACHE_SIZE = 8

# (t, precision_bits) -> {kind: _Ladder} of one pass, least recently used first
_ladder_cache = OrderedDict()


def _ladder_pass(t, n_cap: int) -> Callable[[int], Tuple[Dict[str, _Ladder], mpf]]:
    """One ladder pass, for ``stabilize``: one Levinson-Durbin run to n_cap at
    the pass's bits, giving the plain ladder to n_cap (log E_k, k < n_cap,
    and pi_q(0), 0 < q < n_cap) and each +- ladder to (n_cap - 1) // 2 by
    the product identities, keyed by kind, with the error bounds of the
    module docstring.  The bound returned is the largest of the three, so
    it covers every value the pass forms."""

    def one(bits: int) -> Tuple[Dict[str, _Ladder], mpf]:
        unit = 1 << bits
        with mp.workprec(bits):
            row = _moment_row(t, n_cap, "plain", bits)
            lev = _levinson_constant_terms(row, n_cap - 1, bits, _moment_error(bits))
            pivots = [mp.log(from_grid(e, bits)) for e in lev.energy]
            errors = [err + _log_units(v) for err, v in zip(lev.log_error, pivots)]
            ladders = {"plain": _Ladder(
                pivots, {q: from_grid(r, bits) for q, r in enumerate(lev.pi, 1)},
                bits, from_grid(max([sum(errors)] + lev.pi_error), bits))}
            # pivot l of minus_plus reads j = 2l, of plus_plus j = 2l + 1
            for kind, sign, first in (("minus_plus", -1, 0), ("plus_plus", 1, 1)):
                logs, units = [], 0
                for j in range(first, 2 * ((n_cap - 1) // 2), 2):
                    r, err = sign * lev.pi[j], lev.pi_error[j]
                    # log(1 + r) moves by at most err / (1 - |r| - err)
                    # between r and the exact value
                    term = mp.log(from_grid(unit + r, bits))
                    logs.append(pivots[j] + term)
                    units += (errors[j] + _log_units(term) + _log_units(logs[-1])
                              - (-err * unit // (unit - abs(r) - err)))
                ladders[kind] = _Ladder(logs, {}, bits, from_grid(units, bits))
            return ladders, max(ladder.error_bound for ladder in ladders.values())

    return one


def get_ladder(t, kind: str, n_cap: int, ctx: PrecisionContext) -> _Ladder:
    """The ladder of ``kind`` to at least n_cap: log pivots log(D_{k+1}/D_k)
    and for the plain family pi_q(0), with an error bound (error_bound) of
    at most 2^-ctx.precision_bits.  The three ladders of one pass
    (_ladder_pass) are cached together per (t, precision_bits) for the last
    _LADDER_CACHE_SIZE keys used; t is keyed as passed, since Python's
    numeric equality is exact across int, float and mpf and the pass reads
    t at its own bits, not at the ambient precision.  A +- ladder to n
    needs the pass to 2n + 1.  A request beyond the cached pass runs the
    larger pass, at guard_bits(t, size, "ladder") above the target for its
    own size, which replaces the cached one.  A kind not in KINDS, or an
    n_cap that is not an integer >= 1, raises DomainError before any pass."""
    if kind not in KINDS:
        raise DomainError(f"kind must be one of {KINDS}")
    if _index(n_cap, "n_cap") < 1:
        raise DomainError("n_cap must be >= 1")
    size = n_cap if kind == "plain" else 2 * n_cap + 1
    key = (t, ctx.precision_bits)
    ladders = _ladder_cache.get(key)
    if ladders is None or ladders["plain"].n_cap < size:
        bits = ctx.precision_bits + guard_bits(t, size, "ladder")
        ladders, _ = stabilize(_ladder_pass(t, size), bits, ctx,
                               what=f"toeplitz ladder (t={t}, n={size})")
        _ladder_cache[key] = ladders
    _ladder_cache.move_to_end(key)
    if len(_ladder_cache) > _LADDER_CACHE_SIZE:
        _ladder_cache.popitem(last=False)
    return ladders[kind]


def _cholesky_ladder(t, kind: str, n: int, ctx: PrecisionContext) -> _Ladder:
    """The independent route to a ladder: the log pivots of the integer
    Cholesky of the n x n moment matrix of ``kind`` (linalg.
    cholesky_log_pivots), in one pass at guard_bits(t, n, "cholesky") above
    the target, uncached and without pi_q(0).  The bound is the one of the
    module docstring for a factorisation: a log pivot is the difference of
    two log D_n, so it gets twice their bound."""

    def one(bits: int) -> Tuple[List[mpf], mpf]:
        with mp.workprec(bits):
            mat = _moment_matrix(_moment_row(t, n, kind, bits), n, kind)
            pivots = cholesky_log_pivots(mat, bits, f"{kind} moment matrix (t={t})")
            return pivots, 2 * _log_det_bound(t, pivots, cholesky_entry_error(mat, bits), bits)

    bits = ctx.precision_bits + guard_bits(t, n, "cholesky")
    pivots, bound = stabilize(one, bits, ctx,
                              what=f"Cholesky ladder (t={t}, kind={kind}, n={n})")
    return _Ladder(pivots, {}, bits, bound)


# ---------------------------------------------------------------------------
# Spec-level operations
# ---------------------------------------------------------------------------

def toeplitz_log_det(spec: MomentMatrixSpec, ctx: PrecisionContext) -> mpf:
    """log of the determinant (D_0 := 1 by convention)."""
    ladder = get_ladder(spec.t, spec.kind, spec.n, ctx)
    return round_to(ladder.log_d(spec.n), ctx.precision_bits)


def toeplitz_log_det_lu(spec: MomentMatrixSpec, ctx: PrecisionContext) -> mpf:
    """log D_n by the Cholesky route (_cholesky_ladder), not the ladder.
    Its one reader is the perfbench toeplitz_scan workload, which times it
    under this name; ROADMAP item 1 renames it there."""
    return round_to(_cholesky_ladder(spec.t, spec.kind, spec.n, ctx).log_d(spec.n),
                    ctx.precision_bits)


def pi_zero(q: int, t, ctx: PrecisionContext) -> mpf:
    """Constant term pi_q(0;t) of the monic orthogonal polynomial; |pi_q(0)|
    < 1, or the ladder pass raises PrecisionError (_levinson_constant_terms)."""
    q = _index(q, "q")
    if q < 1:
        raise DomainError("q must be >= 1")
    return round_to(get_ladder(t, "plain", q + 1, ctx).pi0[q], ctx.precision_bits)


def d_pm_log(kind: str, ell: int, t, ctx: PrecisionContext) -> mpf:
    """log D_ell^{++} or log D_ell^{-+}."""
    if kind not in ("plus_plus", "minus_plus"):
        raise DomainError("kind must be plus_plus or minus_plus")
    ell = _index(ell, "ell")
    if ell < 1:
        raise DomainError("ell must be >= 1")
    return toeplitz_log_det(MomentMatrixSpec(t, ell, kind), ctx)


# ---------------------------------------------------------------------------
# Airy-regime predictions
# ---------------------------------------------------------------------------

def _two_t(q: int, t: tuple) -> tuple:
    """2t for the raw mpf t, once 1 <= q < 2t, where both predictions are
    defined, is checked."""
    two_t = libmp.mpf_shift(t, 1)
    if q < 1 or not libmp.mpf_lt(libmp.from_int(q), two_t):
        raise DomainError("prediction requires 1 <= q < 2t")
    return two_t


def _airy_log_kappa(q: int, t: tuple, prec: int, include_correction: bool) -> tuple:
    """airy_log_kappa_prediction for the raw mpf t at ambient precision
    prec, on raw mpf tuples, each rounded as mpf arithmetic rounds it."""
    two_t, q_raw = _two_t(q, t), libmp.from_int(q)
    eight = libmp.mpf_shift(libmp.mpf_sub(two_t, q_raw, prec, _ROUND), 3)
    corr = libmp.mpf_sub(libmp.mpf_rdiv_int(-1, eight, prec, _ROUND),
                         libmp.mpf_div(libmp.fone, libmp.from_int(12 * q), prec, _ROUND),
                         prec, _ROUND)
    if not libmp.mpf_lt(libmp.mpf_abs(corr), libmp.fhalf):
        raise DomainError(f"correction {mp.make_mpf(corr)} out of range at q={q}; "
                          "q too close to the edge of the prediction region")
    wp = prec + REPORT_GUARD
    gamma = libmp.mpf_div(two_t, q_raw, wp, _ROUND)
    log_gamma = libmp.mpf_log(gamma, wp, _ROUND)
    val = libmp.mpf_add(libmp.mpf_neg(gamma), log_gamma, wp, _ROUND)
    val = libmp.mpf_mul_int(libmp.mpf_add(val, libmp.fone, wp, _ROUND), -q, wp, _ROUND)
    val = libmp.mpf_add(val, libmp.mpf_shift(log_gamma, -1), wp, _ROUND)
    if include_correction:
        log_corr = libmp.mpf_log(libmp.mpf_add(corr, libmp.fone, wp, _ROUND), wp, _ROUND)
        val = libmp.mpf_sub(val, log_corr, wp, _ROUND)
    return val


def airy_log_kappa_prediction(q: int, t, include_correction: bool = True) -> mpf:
    """Predicted log kappa_{q-1}^{-2} in the Airy regime:

        -q(-gamma + log gamma + 1) + (1/2) log gamma
            - log(1 - 1/(8(2t-q)) - 1/(12q)),   gamma = 2t/q,

    the last term only when include_correction (the explicitly computable
    first correction of the local-parametrix expansion).  Defined for 1 <= q
    < 2t where the correction stays below 1/2 in size, else DomainError.
    t and the correction are rounded to mp.prec, the rest to REPORT_GUARD
    bits more."""
    prec = mp.prec
    t = libmp.mpf_pos(mp.convert(t)._mpf_, prec, _ROUND)
    return mp.make_mpf(_airy_log_kappa(q, t, prec, include_correction))


def pi_zero_airy_prediction(q: int, t) -> mpf:
    """Leading Airy-regime prediction (-1)^q sqrt((2t - q)/(2t)), rounded
    to mp.prec at each step."""
    prec = mp.prec
    two_t = _two_t(q, libmp.mpf_pos(mp.convert(t)._mpf_, prec, _ROUND))
    root = libmp.mpf_sqrt(libmp.mpf_div(
        libmp.mpf_sub(two_t, libmp.from_int(q), prec, _ROUND), two_t, prec, _ROUND),
        prec, _ROUND)
    return mp.make_mpf(libmp.mpf_neg(root) if q % 2 else root)


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
    # the ladder's proven absolute bound on every log_kappa_sq and pi0
    error_bound: mpf


def toeplitz_scan(t, q_values: Sequence[int], ctx: PrecisionContext,
                  with_pi: bool = True) -> ToeplitzScan:
    """Per-q ladder records at fixed t, with Airy-regime predictions where
    defined (prediction of log kappa_q^2 uses the q+1 formula).  The values
    are formed on raw mpf tuples at ctx.precision_bits, so the only mpfs
    made are the records'."""
    q_values = sorted(set(_index(q, "q") for q in q_values))
    if q_values and q_values[0] < 1:
        raise DomainError("scan q values must be >= 1")
    n_cap = q_values[-1] + 1 if q_values else 1
    ladder = get_ladder(t, "plain", n_cap, ctx)
    prec = ctx.precision_bits
    make = mp.make_mpf
    records = []
    with mp.workprec(prec):
        t_mp = mpf(t)
        two_t = libmp.mpf_shift(t_mp._mpf_, 1)
        for q in q_values:
            try:
                pred_k = make(libmp.mpf_neg(
                    _airy_log_kappa(q + 1, t_mp._mpf_, prec, True), prec, _ROUND))
            except DomainError:  # q + 1 outside the prediction's range
                pred_k = None
            pred_pi = (pi_zero_airy_prediction(q, t_mp)
                       if libmp.mpf_lt(libmp.from_int(q), two_t) else None)
            pi0 = ladder.pi0.get(q) if with_pi else None
            records.append(ScanRecord(
                q=q,
                gamma=make(libmp.mpf_div(two_t, libmp.from_int(q), prec, _ROUND)),
                log_kappa_sq=make(libmp.mpf_neg(ladder.log_pivots[q]._mpf_, prec, _ROUND)),
                pi0=None if pi0 is None else make(libmp.mpf_pos(pi0._mpf_, prec, _ROUND)),
                log_kappa_sq_airy_pred=pred_k,
                pi0_airy_pred=pred_pi,
            ))
    return ToeplitzScan(t=float(t), records=records,
                        precision_bits_used=ladder.precision_bits_used,
                        error_bound=ladder.error_bound)


# ---------------------------------------------------------------------------
# Double scaling: the index rule and the exact part
# ---------------------------------------------------------------------------

def scaling_index(t, x, ctx: PrecisionContext, per: int = 1) -> Tuple[int, mpf]:
    """The matrix size at the double-scaling position x and t, m = floor((2t
    + x t^(1/3)) / per), and the effective argument x_eff = (per m - 2t) /
    t^(1/3) that the integer floor leaves it at, both formed at
    ctx.workprec().  per = 1 gives the F side's n = floor(2t + x t^(1/3)),
    per = 2 the E side's ell = floor(t + (x/2) t^(1/3)): halving is exact in
    binary, so both floors read the same rounded sum.  A t that _check_t
    refuses raises DomainError."""
    _check_t(t)
    with ctx.workprec():
        t_mp = mpf(t)
        t13 = t_mp ** (mpf(1) / 3)
        m = int(mp.floor((2 * t_mp + mpf(x) * t13) / per))
        return m, (per * m - 2 * t_mp) / t13


def _exact_part_bracket(L: int, t_mp: mpf, zp: mpf) -> mpf:
    """2Lt - (L^2/2) log(2t) + (L^2/2 - 1/12) log L - (3/4) L^2 + zeta'(-1),
    the large-t form of log D_L(t), at the working precision."""
    l_mp = mpf(L)
    return (2 * l_mp * t_mp - l_mp ** 2 / 2 * mp.log(2 * t_mp)
            + (l_mp ** 2 / 2 - mpf(1) / 12) * mp.log(l_mp)
            - mpf(3) / 4 * l_mp ** 2 + zp)


def exact_part_limit_check(L: int, t, ctx: PrecisionContext) -> mpf:
    """Residual log D_L(t) - {2Lt - (L^2/2) log(2t) + (L^2/2 - 1/12) log L
    - (3/4) L^2 + zeta'(-1)}; tends to 0 as t then L grow."""
    if _index(L, "L") < 2:
        raise DomainError("L must be >= 2")
    logd = toeplitz_log_det(MomentMatrixSpec(float(t), L, "plain"), ctx)
    zp = specialfn.zeta_prime_minus_one(ctx.precision_bits)
    with ctx.workprec():
        return round_to(logd - _exact_part_bracket(L, mpf(t), zp),
                        ctx.precision_bits)


def selberg_hermite_log_closed(L: int, t, ctx: PrecisionContext) -> mpf:
    """log of the Gaussian Selberg integral
    pi^(L/2) 2^(-L(L-1)/2) t^(-L^2/2) G(L+1)."""
    L = _index(L, "L")
    if L < 1:
        raise DomainError("L must be >= 1")
    logg = specialfn.log_barnes_g(L + 1, ctx.precision_bits)
    with ctx.workprec():
        t_mp = mpf(t)
        return round_to(
            mpf(L) / 2 * mp.log(mp.pi) - mpf(L * (L - 1)) / 2 * mp.log(2)
            - mpf(L * L) / 2 * mp.log(t_mp) + logg, ctx.precision_bits)


# Gauss-Legendre nodes per axis of selberg_hermite_log_quadrature
_SELBERG_POINTS = 60


def selberg_hermite_log_quadrature(L: int, t, ctx: PrecisionContext) -> mpf:
    """Direct tensor quadrature of
    (1/L!) int exp(-t sum x_i^2) prod (x_i - x_j)^2 dx over R^L, for L <= 3,
    on _SELBERG_POINTS nodes per axis.

    After x = u/sqrt(t) the integrand is exp(-|u|^2) times a polynomial;
    [-8.5, 8.5]^L truncates it below 1e-31.  The integrand is symmetric and
    vanishes where two nodes coincide, so 1/L! times the sum over all node
    tuples is the sum over the strictly increasing ones."""
    L = _index(L, "L")
    if not 1 <= L <= 3:
        raise DomainError("direct quadrature only supported for L <= 3")
    prec = ctx.precision_bits + REPORT_GUARD
    xs, ws = gauss_legendre(_SELBERG_POINTS, prec)
    with mp.workprec(prec):
        a = mpf("8.5")
        us = [a * v for v in xs]
        wg = [a * w * mp.exp(-u * u) for w, u in zip(ws, us)]
        total = mp.fsum(
            mp.fprod([wg[i] for i in idx]
                     + [(us[i] - us[j]) ** 2 for i, j in combinations(idx, 2)])
            for idx in combinations(range(_SELBERG_POINTS), L))
        return round_to(mp.log(total) - mpf(L * L) / 2 * mp.log(mpf(t)),
                        ctx.precision_bits)
