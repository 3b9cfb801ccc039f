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

Between the window ends the integrands are the element interpolants of the
collocation solution, integrated exactly (painleve2.integrate_kind).  Beyond
the window both integrands are handled analytically: on the left by the
regularized series, with their truncation error checked against the
tolerance; on the right by the Airy closed form for R and the convergent
1/3 - int_0^x Ai for q.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from mpmath import mp, mpf

from . import painleve2, specialfn
from .errors import DomainError, InternalConsistencyError, PrecisionError
from .precision import PrecisionContext, round_to


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
        zp = specialfn.zeta_prime_minus_one(ctx)
        with mp.workprec(ctx.precision_bits + 16):
            ez2 = mp.exp(zp / 2)
            vals = cls(
                tau1=mpf(2) ** (mpf(-11) / 48) * ez2,
                tau2=mpf(2) ** (mpf(1) / 24) * mp.exp(zp),
                tau4=mpf(2) ** (mpf(-35) / 48) * ez2,
                f_prefactor=mpf(2) ** (mpf(1) / 48) * ez2,
                e_prefactor=mpf(2) ** (mpf(-1) / 4),
                zeta_prime_minus_one=zp,
            )
        return TailConstants(*(round_to(v, ctx.precision_bits) for v in (
            vals.tau1, vals.tau2, vals.tau4, vals.f_prefactor,
            vals.e_prefactor, vals.zeta_prime_minus_one)))


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
    with mp.workprec(ctx.precision_bits + 16):
        x = mpf(x)
        ai, aip = specialfn.airy_ai(x, ctx)
        return (2 * x * x * ai * ai - 2 * x * aip * aip - ai * aip) / 3


def airy_tail_q_integral(x, ctx: PrecisionContext) -> mpf:
    """int_x^inf Ai(s) ds, exact through the convergent identity
    1/3 - int_0^x Ai.  Equals int_x^inf q(s) ds up to the (q - Ai) defect,
    as for airy_tail_r_integral."""
    return specialfn.airy_ai_tail_integral(x, ctx)


# ---------------------------------------------------------------------------
# The two representations
# ---------------------------------------------------------------------------

def _right_integrals(x, sol: painleve2.HMSolution, ctx: PrecisionContext) -> Tuple[mpf, mpf]:
    """(int_x^inf R, int_x^inf q): element integrals to x_right plus the
    Airy tails."""
    x = mpf(x)
    if x < sol.x_left or x > sol.x_right:
        raise DomainError(f"x={x} outside solution window")
    with mp.workprec(ctx.precision_bits + 16):
        int_r = painleve2.integrate_kind(sol, "r", x, sol.x_right, ctx)
        int_r += airy_tail_r_integral(sol.x_right, ctx)
        int_q = painleve2.integrate_kind(sol, "q", x, sol.x_right, ctx)
        int_q += airy_tail_q_integral(sol.x_right, ctx)
        return int_r, int_q


def cdf_right(x, sol: painleve2.HMSolution, ctx: PrecisionContext) -> Tuple[mpf, mpf]:
    """(F(x), E(x)) from the integrals toward +infinity."""
    int_r, int_q = _right_integrals(x, sol, ctx)
    with mp.workprec(ctx.precision_bits + 16):
        f = mp.exp(-int_r / 2)
        e = mp.exp(-int_q / 2)
    return round_to((f, e), ctx.precision_bits)


def _left_integrals(x, sol: painleve2.HMSolution, ctx: PrecisionContext) -> Tuple[mpf, mpf]:
    """Regularized integrals from -infinity to x (x < 0):
    (int (R - y^2/4 + 1/(8y)), int (q - sqrt(|y|/2)))."""
    x = mpf(x)
    if not x < 0:
        raise DomainError("left representation requires x < 0")
    if x < sol.x_left:
        raise DomainError(f"x={x} outside solution window")
    with mp.workprec(ctx.precision_bits + 16):
        tail_r, err_r = painleve2.left_tail_r_regularized(sol.x_left)
        tail_q, err_q = painleve2.left_tail_q_regularized(sol.x_left)
        if max(float(err_r), float(err_q)) > ctx.tolerance:
            raise PrecisionError(
                "left tail series cannot reach the requested tolerance at "
                f"x_left={sol.x_left}; enlarge the window (|x_left|)")
        # 1/(8y) is integrated analytically: (1/8) log|x / x_left|
        body_r = painleve2.integrate_kind(sol, "r_reg", sol.x_left, x, ctx)
        log_term = (mp.log(-x) - mp.log(-sol.x_left)) / 8
        body_q = painleve2.integrate_kind(sol, "q_reg", sol.x_left, x, ctx)
        return tail_r + body_r + log_term, tail_q + body_q


def cdf_left(x, sol: painleve2.HMSolution, consts: TailConstants,
             ctx: PrecisionContext) -> Tuple[mpf, mpf]:
    """(F(x), E(x)) from the integrals toward -infinity (x < 0)."""
    int_r, int_q = _left_integrals(x, sol, ctx)
    with mp.workprec(ctx.precision_bits + 16):
        x = mpf(x)
        ax = -x
        f = (consts.f_prefactor * mp.exp(-ax ** 3 / 24) / ax ** (mpf(1) / 16)
             * mp.exp(int_r / 2))
        e = (consts.e_prefactor * mp.exp(-ax ** mpf("1.5") / (3 * mp.sqrt(2)))
             * mp.exp(int_q / 2))
    return round_to((f, e), ctx.precision_bits)


_SWITCH_POINT = -1.0
_AGREEMENT_TOL = 1e-8


def _f_e_at(x, sol, consts, ctx, check: bool = True) -> Tuple[mpf, mpf, str]:
    x = mpf(x)
    if x < _SWITCH_POINT:
        f, e = cdf_left(x, sol, consts, ctx)
        rep = "left"
        if check:
            f2, e2 = cdf_right(x, sol, ctx)
            if abs(f - f2) > _AGREEMENT_TOL or abs(e - e2) > _AGREEMENT_TOL:
                raise InternalConsistencyError(
                    f"left/right representations disagree at x={x}: "
                    f"dF={abs(f - f2)}, dE={abs(e - e2)}")
        return f, e, rep
    f, e = cdf_right(x, sol, ctx)
    return f, e, "right"


def tw_point(x, sol: painleve2.HMSolution, consts: TailConstants,
             ctx: PrecisionContext, check: bool = True) -> TWPoint:
    f, e, rep = _f_e_at(x, sol, consts, ctx, check=check)
    with mp.workprec(ctx.precision_bits + 16):
        point = TWPoint(
            x=mpf(x),
            F=f,
            E=e,
            F1=f * e,
            F2=f * f,
            F4=(e + 1 / e) * f / 2,
            representation=rep,
        )
    return point


def tw_cdf(x, beta: int, sol: painleve2.HMSolution, consts: TailConstants,
           ctx: PrecisionContext, check: bool = True) -> mpf:
    """F_beta(x) for beta in {1, 2, 4}."""
    if beta not in (1, 2, 4):
        raise DomainError("beta must be 1, 2 or 4")
    pt = tw_point(x, sol, consts, ctx, check=check)
    return {1: pt.F1, 2: pt.F2, 4: pt.F4}[beta]


# ---------------------------------------------------------------------------
# Total integrals
# ---------------------------------------------------------------------------

def total_integral_check(c, sol: painleve2.HMSolution, consts: TailConstants,
                         ctx: PrecisionContext) -> Tuple[mpf, mpf, mpf, mpf]:
    """Both sides of the two total-integral identities at c < 0:

      int_c^inf R + int_{-inf}^c (R - y^2/4 + 1/(8y))
          = -(1/24) log 2 - zeta'(-1) + |c|^3/12 + (1/8) log|c|
      int_c^inf q + int_{-inf}^c (q - sqrt(|y|/2))
          = (1/2) log 2 + (sqrt 2/3) |c|^(3/2)
    """
    c = mpf(c)
    if not c < 0:
        raise DomainError("c must be negative")
    up_r, up_q = _right_integrals(c, sol, ctx)
    down_r, down_q = _left_integrals(c, sol, ctx)
    with mp.workprec(ctx.precision_bits + 16):
        ac = -c
        lhs_r = up_r + down_r
        rhs_r = (-mp.log(2) / 24 - consts.zeta_prime_minus_one
                 + ac ** 3 / 12 + mp.log(ac) / 8)
        lhs_q = up_q + down_q
        rhs_q = mp.log(2) / 2 + mp.sqrt(2) / 3 * ac ** mpf("1.5")
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
    prec = mp.prec
    with mp.workprec(prec + 16):
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
    prec = mp.prec
    with mp.workprec(prec + 16):
        x32 = x ** mpf("1.5")
        f = 1 - mp.exp(-mpf(4) / 3 * x32) / (32 * mp.pi * x32) * (1 - 35 / (24 * x32))
        e = 1 - (mp.exp(-mpf(2) / 3 * x32) / (4 * mp.sqrt(mp.pi) * x ** mpf("0.75"))
                 * (1 - 41 / (48 * x32)))
        return +f, +e
