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
(painleve2.integrate_kind), and one constant per representation, kind,
solution and precision: on the right K = -1/2 (int_{x_left}^{x_right} +
the Airy closed forms beyond x_right); on the left K = log prefactor +
1/2 (series tail before x_left - A(x_left)), with the regularizer integrals
A_R(y) = |y|^3/12 + (1/8) log|y| and A_q(y) = (sqrt 2/3) |y|^(3/2); the
series error is checked against the tolerance.  Twice K_left - K_right is
the total-integral residual (total_integral_check).  U(x) for R and q is
one read (painleve2.cumulative_integrals): one locate of x and one sum per
integrand.  So the right value is the left one times rho = exp(K_right -
K_left), the same at every x, and tw_point checks the left value against
the right one as F (rho_F - 1) and E (rho_E - 1): no second exp per point.
A solution keeps two entries per precision (HMSolution.cached): the right
constants, and the left constants with rho - 1 for F and E (_left).  The
side is that of x itself, left below -1, at any ambient precision.

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
    with ctx.workprec():
        return tuple(
            -(painleve2.integrate_kind(sol, kind, sol.x_left, sol.x_right, ctx)
              + tail(sol.x_right, ctx)) / 2
            for kind, tail in (("r", airy_tail_r_integral),
                               ("q", airy_tail_q_integral)))


class _Left(NamedTuple):
    """The left side of one solution at one precision."""
    k: Tuple[mpf, mpf]             # (K_R, K_q)
    gaps: Tuple[tuple, tuple]      # rho - 1 for F and E, raw mpf tuples
    error_float: float             # the left-series error
    prefactors: Tuple[mpf, mpf]    # (f_prefactor, e_prefactor) k was formed from


def _left(sol: painleve2.HMSolution, consts: TailConstants,
          ctx: PrecisionContext) -> _Left:
    """The left entry of sol at ctx.precision_bits, kept for the prefactors
    it was first formed from (others get one formed and not kept), compared
    by identity, then by value, so no mpf is hashed.  The series error is
    checked against ctx.tolerance on every call."""
    entry = sol.cached(("left", ctx.precision_bits), _form_left, sol, consts, ctx)
    if entry.prefactors != (consts.f_prefactor, consts.e_prefactor):
        entry = _form_left(sol, consts, ctx)
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
    return _Left(k, gaps, float(error), prefactors)


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


def _read(x, sol: painleve2.HMSolution, consts: TailConstants,
          ctx: PrecisionContext, check: bool) -> Tuple[mpf, tuple, tuple, bool]:
    """(x, F, E, left): x converted once (a float, int or mpf exactly), F
    and E at x as raw mpf tuples, and whether the left representation gave
    them; the one pass of tw_point and tw_cdf.

    The side is that of x itself, whatever the ambient precision: left
    below -1.  With check, the left value is compared with the right one,
    F rho_F and E rho_E at precision_bits + REPORT_GUARD (_left)."""
    xm = mp.convert(x)
    u = painleve2.cumulative_integrals(sol, xm, ctx)
    if not libmp.mpf_lt(xm._mpf_, _SWITCH_POINT):
        f, e = _cdf(_right_constants(sol, ctx), u, ctx)
        return xm, f, e, False
    left = _left(sol, consts, ctx)
    f, e = _cdf(left.k, u, ctx)
    if check:
        wp = ctx.precision_bits + REPORT_GUARD
        df, de = (libmp.mpf_abs(libmp.mpf_mul(v, gap, wp, _ROUND))
                  for v, gap in zip((f, e), left.gaps))
        if libmp.mpf_gt(df, _AGREEMENT_TOL) or libmp.mpf_gt(de, _AGREEMENT_TOL):
            raise InternalConsistencyError(
                f"left/right representations disagree at x={x}: "
                f"dF={mp.make_mpf(df)}, dE={mp.make_mpf(de)}")
    return xm, f, e, True


def _f_beta(beta: int, f: tuple, e: tuple, wp: int) -> tuple:
    """F_beta from the raw F and E at wp: F1 = F E and F2 = F F, one
    rounding each; F4 = (E + 1/E) F / 2, three roundings and an exact
    halving."""
    if beta == 1:
        return libmp.mpf_mul(f, e, wp, _ROUND)
    if beta == 2:
        return libmp.mpf_mul(f, f, wp, _ROUND)
    inv = libmp.mpf_div(libmp.fone, e, wp, _ROUND)
    return libmp.mpf_shift(
        libmp.mpf_mul(libmp.mpf_add(e, inv, wp, _ROUND), f, wp, _ROUND), -1)


def tw_point(x, sol: painleve2.HMSolution, consts: TailConstants,
             ctx: PrecisionContext, check: bool = True) -> TWPoint:
    """F, E and F1, F2, F4 at x: left representation below -1, with check
    compared to the right one built from the same read.  The right value is
    the left one times rho = exp(K_right - K_left) per kind, so the check is
    F (rho_F - 1) and E (rho_E - 1), with rho - 1 kept with the solution
    (_left).

    One pass at one working precision, wp = precision_bits + REPORT_GUARD,
    on raw mpf tuples, with no ambient precision switch: x is converted
    once (a float, int or mpf exactly), the reads of R and q, K + U/2 and
    its exp are each rounded to nearest at wp, F and E are then rounded
    once to precision_bits, and F1, F2 and F4 are formed from them at wp
    (_f_beta).  The x returned is x rounded to wp."""
    x, f, e, left = _read(x, sol, consts, ctx, check)
    wp = ctx.precision_bits + REPORT_GUARD
    make = mp.make_mpf
    f1, f2, f4 = (make(_f_beta(beta, f, e, wp)) for beta in (1, 2, 4))
    return TWPoint(x=make(libmp.mpf_pos(x._mpf_, wp, _ROUND)), F=make(f), E=make(e),
                   F1=f1, F2=f2, F4=f4, representation="left" if left else "right")


def tw_cdf(x, beta: int, sol: painleve2.HMSolution, consts: TailConstants,
           ctx: PrecisionContext, check: bool = True) -> mpf:
    """F_beta(x) for beta in {1, 2, 4}, the field of tw_point it names,
    formed alone."""
    if beta not in (1, 2, 4):
        raise DomainError("beta must be 1, 2 or 4")
    _, f, e, _ = _read(x, sol, consts, ctx, check)
    return mp.make_mpf(_f_beta(beta, f, e, ctx.precision_bits + REPORT_GUARD))


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
    left = _left(sol, consts, ctx)
    pairs = zip(left.k, _right_constants(sol, ctx), left.prefactors)
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
        if beta == 1:
            return +(consts.tau1
                     * mp.exp(-ax ** 3 / 24 - ax32 / (3 * mp.sqrt(2)))
                     / ax ** (mpf(1) / 16)
                     * (1 - 1 / (24 * mp.sqrt(2) * ax32)))
        if beta == 4:
            return +(consts.tau4
                     * mp.exp(-ax ** 3 / 24 + ax32 / (3 * mp.sqrt(2)))
                     / ax ** (mpf(1) / 16)
                     * (1 + 1 / (24 * mp.sqrt(2) * ax32)))
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
