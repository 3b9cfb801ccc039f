"""Tracy-Widom distribution functions F, E, F1, F2, F4 through both
integral representations, the total-integral identities, and the tail
expansions with their constants.

Right representation (integrals from x to +infinity):

    F(x) = exp(-1/2 int_x^inf R),   E(x) = exp(-1/2 int_x^inf q),
    F1 = F E,   F2 = F^2,   F4 = (E + 1/E) F / 2.

Left representation (integrals from -infinity to x, x < 0):

    F(x) = 2^(1/48) e^(zeta'(-1)/2) e^(-|x|^3/24) |x|^(-1/16)
           * exp{ 1/2 int_{-inf}^x (R(y) - y^2/4 + 1/(8y)) dy },
    E(x) = 2^(-1/4) e^(-|x|^(3/2)/(3 sqrt 2))
           * exp{ 1/2 int_{-inf}^x (q(y) - sqrt(|y|/2)) dy }.

Both are exp(K + U(x)/2) with one cumulative read U(x) = int_{x_left}^x
of R or q, exact on the element interpolants of the collocation solution
(painleve2.cumulative_integrals: one locate of x and one sum per
integrand), and one constant per representation, kind, solution and
precision: on the right K = -1/2 (U(x_right), the same read, + the Airy
closed forms beyond x_right); on the left K = log prefactor + 1/2 (series
tail before x_left - A(x_left)), with the regularizer integrals A_R(y) =
|y|^3/12 + (1/8) log|y| and A_q(y) = (sqrt 2/3) |y|^(3/2); the series
error is checked against the tolerance.  Twice K_left - K_right is the
total-integral residual (total_integral_check).  So the right value is
the left one times rho = exp(K_right - K_left), the same at every x, and
tw_point checks the left value against the right one as F (rho_F - 1)
and E (rho_E - 1): no second exp per point.  A solution keeps these
entries per precision (HMSolution.cached): the right constants, and per
pair of prefactors the left constants with rho - 1 for F and E (_left).
The side is that of x itself, left below -1, at any ambient precision.
F_beta is read from tw_point alone (tw_cdf).

A warm point is then one pass at one working precision, wp =
precision_bits + REPORT_GUARD, on raw mpf tuples (libmp), with no ambient
precision switch and no round_to pass: x is converted once; each read U,
K + U/2 and its exp are rounded to nearest at wp; F and E are rounded once
to precision_bits; the check and F1 = F E, F2 = F^2 and F4 = (E + 1/E) F / 2
are formed at wp, the halvings exact.  These are the roundings the
arithmetic at mp.workprec(wp) makes, so a point keeps every bit.  The
two entries are formed at mp.workprec(wp).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

from mpmath import libmp, mp, mpf

from . import painleve2, specialfn
from .errors import DomainError, InternalConsistencyError, PrecisionError
from .precision import REPORT_GUARD, PrecisionContext, round_to


@dataclass(frozen=True)
class TailConstants:
    """Multiplicative constants of the left-tail expansions."""

    tau1: mpf
    tau2: mpf
    tau4: mpf
    f_prefactor: mpf       # 2^(1/48) e^(zeta'(-1)/2)
    e_prefactor: mpf       # 2^(-1/4)
    zeta_prime_minus_one: mpf

    @classmethod
    def compute(cls, ctx: PrecisionContext) -> "TailConstants":
        zp = specialfn.zeta_prime_minus_one(ctx.precision_bits)
        with ctx.workprec():
            ez2 = mp.exp(zp / 2)
            vals = (mpf(2) ** (mpf(-11) / 48) * ez2,       # tau1
                    mpf(2) ** (mpf(1) / 24) * mp.exp(zp),  # tau2
                    mpf(2) ** (mpf(-35) / 48) * ez2,       # tau4
                    mpf(2) ** (mpf(1) / 48) * ez2,         # f_prefactor
                    mpf(2) ** (mpf(-1) / 4),               # e_prefactor
                    zp)
        return cls(*round_to(vals, ctx.precision_bits))


@dataclass(frozen=True)
class TWPoint:
    x: mpf
    F: mpf
    E: mpf
    F1: mpf
    F2: mpf
    F4: mpf
    representation: str  # 'right' or 'left'


# ---------------------------------------------------------------------------
# Analytic pieces beyond the solve window
# ---------------------------------------------------------------------------

def airy_tail_r_integral(x, ctx: PrecisionContext) -> mpf:
    """int_x^inf int_s^inf Ai(u)^2 du ds, closed form
    (2 x^2 Ai^2 - 2 x Ai'^2 - Ai Ai') / 3.

    Equals int_x^inf R(s) ds up to the (q - Ai) defect, which is
    exponentially below this term's own size for x >= 6."""
    with ctx.workprec():
        x = mpf(x)
        ai, aip = specialfn.airy_ai(x, ctx.precision_bits)
        return (2 * x * x * ai * ai - 2 * x * aip * aip - ai * aip) / 3


def airy_tail_q_integral(x, ctx: PrecisionContext) -> mpf:
    """int_x^inf Ai(s) ds, exact through the convergent identity
    1/3 - int_0^x Ai.  Equals int_x^inf q(s) ds up to the (q - Ai) defect,
    as for airy_tail_r_integral."""
    return specialfn.airy_ai_tail_integral(x, ctx.precision_bits)


# ---------------------------------------------------------------------------
# The two representations
# ---------------------------------------------------------------------------

def regularizer_r(y) -> mpf:
    """A_R(y) = |y|^3/12 + (1/8) log|y|, y < 0: minus an antiderivative of
    y^2/4 - 1/(8y).  DomainError elsewhere."""
    if not y < 0:
        raise DomainError(f"A_R(y) needs y < 0, got y={y}")
    return (-mpf(y)) ** 3 / 12 + mp.log(-mpf(y)) / 8


def regularizer_q(y) -> mpf:
    """A_q(y) = (sqrt 2/3) |y|^(3/2), y <= 0: minus an antiderivative of
    sqrt(|y|/2).  DomainError elsewhere."""
    if not y <= 0:
        raise DomainError(f"A_q(y) needs y <= 0, got y={y}")
    return mp.sqrt(2) / 3 * (-mpf(y)) ** mpf("1.5")


def _right_constants(sol: painleve2.HMSolution, ctx: PrecisionContext) -> Tuple[mpf, mpf]:
    """(K_R, K_q) of the right representation, kept with the solution."""
    return sol.cached(("right", ctx.precision_bits), _form_right, sol, ctx)


def _form_right(sol: painleve2.HMSolution, ctx: PrecisionContext) -> Tuple[mpf, mpf]:
    """K = -(window integral + Airy tail)/2 per kind, the window read
    through cumulative_integrals at x_right."""
    window = painleve2.cumulative_integrals(sol, sol.x_right, ctx)
    with ctx.workprec():
        return tuple(-(w + tail(sol.x_right, ctx)) / 2
                     for w, tail in zip(window, (airy_tail_r_integral,
                                                 airy_tail_q_integral)))


class _Left(NamedTuple):
    """The left side of one solution at one precision and prefactors."""
    k: Tuple[mpf, mpf]             # (K_R, K_q)
    gaps: Tuple[tuple, tuple]      # rho - 1 for F and E, raw mpf tuples
    error_float: float             # the left-series error


def _left(sol: painleve2.HMSolution, consts: TailConstants,
          ctx: PrecisionContext) -> _Left:
    """The left entry of sol at ctx.precision_bits, kept per prefactors,
    keyed by their raw mpf tuples, so no mpf is hashed.  The series error
    is checked against ctx.tolerance on every call."""
    key = ("left", ctx.precision_bits, consts.f_prefactor._mpf_, consts.e_prefactor._mpf_)
    entry = sol.cached(key, _form_left, sol, consts, ctx)
    if entry.error_float > ctx.tolerance:
        raise PrecisionError(
            "left tail series cannot reach the requested tolerance at "
            f"x_left={sol.x_left}; enlarge the window (|x_left|)")
    return entry


def _form_left(sol: painleve2.HMSolution, consts: TailConstants,
               ctx: PrecisionContext) -> _Left:
    """K = log prefactor + (series tail - A(x_left))/2 per kind, and rho - 1
    = expm1(K_right - K_left), the right value over the left one at every x."""
    prefactors = (consts.f_prefactor, consts.e_prefactor)
    with ctx.workprec():
        tails = (painleve2.left_tail_r_regularized(sol.x_left),
                 painleve2.left_tail_q_regularized(sol.x_left))
        k = tuple(mp.log(pref) + (tail - reg(sol.x_left)) / 2 for pref, (tail, _), reg
                  in zip(prefactors, tails, (regularizer_r, regularizer_q)))
        gaps = tuple(mp.expm1(k_r - k_l)._mpf_
                     for k_r, k_l in zip(_right_constants(sol, ctx), k))
        error = max(err for _, err in tails)
    return _Left(k, gaps, float(error))


_ROUND = libmp.round_nearest


def _cdf(k: Tuple[mpf, mpf], u: Tuple[mpf, mpf],
         ctx: PrecisionContext) -> Tuple[tuple, tuple]:
    """(F, E) = exp(K + U/2) as raw mpf tuples: K + U/2 and its exp rounded
    to nearest at precision_bits + REPORT_GUARD (U/2 is an exact shift),
    the exp then rounded once to precision_bits."""
    bits = ctx.precision_bits
    wp = bits + REPORT_GUARD
    fe = []
    for kk, uu in zip(k, u):
        arg = libmp.mpf_add(kk._mpf_, libmp.mpf_shift(uu._mpf_, -1), wp, _ROUND)
        fe.append(libmp.mpf_pos(libmp.mpf_exp(arg, wp, _ROUND), bits, _ROUND))
    return tuple(fe)


def cdf_right(x, sol: painleve2.HMSolution, ctx: PrecisionContext) -> Tuple[mpf, mpf]:
    """(F(x), E(x)) from the integrals toward +infinity."""
    u = painleve2.cumulative_integrals(sol, x, ctx)
    return tuple(map(mp.make_mpf, _cdf(_right_constants(sol, ctx), u, ctx)))


def cdf_left(x, sol: painleve2.HMSolution, consts: TailConstants,
             ctx: PrecisionContext) -> Tuple[mpf, mpf]:
    """(F(x), E(x)) from the integrals toward -infinity (x < 0)."""
    if not mpf(x) < 0:
        raise DomainError("left representation requires x < 0")
    u = painleve2.cumulative_integrals(sol, x, ctx)
    return tuple(map(mp.make_mpf, _cdf(_left(sol, consts, ctx).k, u, ctx)))


_SWITCH_POINT = libmp.from_int(-1)
_AGREEMENT_TOL = libmp.from_float(1e-8)


def tw_point(x, sol: painleve2.HMSolution, consts: TailConstants,
             ctx: PrecisionContext, check: bool = True) -> TWPoint:
    """F, E and F1, F2, F4 at x: left representation below -1, with check
    compared to the right one built from the same read.  The side is that
    of x itself, whatever the ambient precision.  The right value is the
    left one times rho = exp(K_right - K_left) per kind, so the check is
    F (rho_F - 1) and E (rho_E - 1), with rho - 1 kept with the solution
    (_left).

    One pass at one working precision, wp = precision_bits + REPORT_GUARD,
    on raw mpf tuples, with no ambient precision switch: x is converted
    once (a float, int or mpf exactly), the reads of R and q, K + U/2 and
    its exp are each rounded to nearest at wp, F and E are then rounded
    once to precision_bits, and the check, F1 = F E and F2 = F F, one
    rounding each, and F4 = (E + 1/E) F / 2, three roundings and an exact
    halving, are formed from them at wp.  The x returned is x rounded to
    wp."""
    xm = mp.convert(x)
    u = painleve2.cumulative_integrals(sol, xm, ctx)
    wp = ctx.precision_bits + REPORT_GUARD
    left = libmp.mpf_lt(xm._mpf_, _SWITCH_POINT)
    if not left:
        f, e = _cdf(_right_constants(sol, ctx), u, ctx)
    else:
        entry = _left(sol, consts, ctx)
        f, e = _cdf(entry.k, u, ctx)
        if check:
            df, de = (libmp.mpf_abs(libmp.mpf_mul(v, gap, wp, _ROUND))
                      for v, gap in zip((f, e), entry.gaps))
            if libmp.mpf_gt(df, _AGREEMENT_TOL) or libmp.mpf_gt(de, _AGREEMENT_TOL):
                raise InternalConsistencyError(
                    f"left/right representations disagree at x={x}: "
                    f"dF={mp.make_mpf(df)}, dE={mp.make_mpf(de)}")
    make = mp.make_mpf
    e_sum = libmp.mpf_add(e, libmp.mpf_div(libmp.fone, e, wp, _ROUND), wp, _ROUND)
    f4 = libmp.mpf_shift(libmp.mpf_mul(e_sum, f, wp, _ROUND), -1)
    return TWPoint(x=make(libmp.mpf_pos(xm._mpf_, wp, _ROUND)), F=make(f), E=make(e),
                   F1=make(libmp.mpf_mul(f, e, wp, _ROUND)),
                   F2=make(libmp.mpf_mul(f, f, wp, _ROUND)), F4=make(f4),
                   representation="left" if left else "right")


def tw_cdf(x, beta: int, sol: painleve2.HMSolution, consts: TailConstants,
           ctx: PrecisionContext, check: bool = True) -> mpf:
    """F_beta(x) for beta in {1, 2, 4}: the field of tw_point it names."""
    if beta not in (1, 2, 4):
        raise DomainError("beta must be 1, 2 or 4")
    return getattr(tw_point(x, sol, consts, ctx, check), f"F{beta}")


# ---------------------------------------------------------------------------
# Total integrals
# ---------------------------------------------------------------------------

def total_integral_check(sol: painleve2.HMSolution, consts: TailConstants,
                         ctx: PrecisionContext) -> Tuple[mpf, mpf, mpf, mpf]:
    """Both sides of the two total-integral identities, whose left sides are
    the same for every c < 0:

      int_c^inf R + int_{-inf}^c (R - y^2/4 + 1/(8y)) - A_R(c)
          = -(1/24) log 2 - zeta'(-1)
      int_c^inf q + int_{-inf}^c (q - sqrt(|y|/2)) - A_q(c) = (1/2) log 2

    Each left side is 2 (K_left - log prefactor - K_right): the series tail,
    the window integral and the Airy tail, with no zeta'(-1) in it.  Each
    residual is 2 (K_left - K_right)."""
    pairs = zip(_left(sol, consts, ctx).k, _right_constants(sol, ctx),
                (consts.f_prefactor, consts.e_prefactor))
    with ctx.workprec():
        lhs_r, lhs_q = (2 * (k_left - k_right - mp.log(pref))
                        for k_left, k_right, pref in pairs)
        rhs_r = -mp.log(2) / 24 - consts.zeta_prime_minus_one
        rhs_q = mp.log(2) / 2
    return round_to((lhs_r, rhs_r, lhs_q, rhs_q), ctx.precision_bits)


# ---------------------------------------------------------------------------
# Tail expansions (displayed forms with first corrections)
# ---------------------------------------------------------------------------

def tail_left(x, beta: int, consts: TailConstants) -> mpf:
    """Left-tail expansion of F_beta including the first correction term."""
    x = mpf(x)
    if not x <= -3:
        raise DomainError("left tail expansion requires x <= -3")
    ax = -x
    with mp.extraprec(REPORT_GUARD):
        ax32 = ax ** mpf("1.5")
        if beta == 2:
            return +(consts.tau2 * mp.exp(-ax ** 3 / 12) / ax ** mpf("0.125")
                     * (1 + 3 / (2 ** 6 * ax ** 3)))
        if beta in (1, 4):
            # F1 and F4 differ in the sign s of the |x|^(3/2) terms
            s = 1 if beta == 4 else -1
            return +(getattr(consts, f"tau{beta}")
                     * mp.exp(-ax ** 3 / 24 + s * ax32 / (3 * mp.sqrt(2)))
                     / ax ** (mpf(1) / 16)
                     * (1 + s / (24 * mp.sqrt(2) * ax32)))
    raise DomainError("beta must be 1, 2 or 4")


def tail_right(x) -> Tuple[mpf, mpf]:
    """Right-tail expansions of F and E with first corrections:

      F ~ 1 - e^(-(4/3) x^(3/2)) / (32 pi x^(3/2)) (1 - 35/(24 x^(3/2)))
      E ~ 1 - e^(-(2/3) x^(3/2)) / (4 sqrt(pi) x^(3/4)) (1 - 41/(48 x^(3/2)))

    (The E denominator exponent is 3/4: the x^(3/2) appearing in some
    printed sources fails the integration-by-parts expansion of int Ai that
    fixes the 41/48 coefficient.)"""
    x = mpf(x)
    if not x >= 3:
        raise DomainError("right tail expansion requires x >= 3")
    with mp.extraprec(REPORT_GUARD):
        x32 = x ** mpf("1.5")
        f = 1 - mp.exp(-mpf(4) / 3 * x32) / (32 * mp.pi * x32) * (1 - 35 / (24 * x32))
        e = 1 - (mp.exp(-mpf(2) / 3 * x32) / (4 * mp.sqrt(mp.pi) * x ** mpf("0.75"))
                 * (1 - 41 / (48 * x32)))
        return +f, +e
