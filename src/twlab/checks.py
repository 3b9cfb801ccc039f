"""The paper's claims as one checklist.

Each check takes (sol, consts, ctx) -- a Hastings-McLeod solution, its tail
constants and the context both were computed in -- and returns Results: a
name, the measured value, the bound as a decimal string, and whether the
value lies below the bound.  CHECKS lists the checks in order.  `twlab
verify` prints every Result and tests/test_acceptance.py asserts them, so
each bound is written here and nowhere else.  Every check runs in the ctx it
is given: each determinant ladder, Levinson or Cholesky, is one pass whose
proven error bound is at most 2^-precision_bits, and reads no tolerance.

A sequence that must strictly decrease is scored by its largest successive
ratio, which must be below 1.  Two such ladders compare double-scaling
determinants with the limiting distributions at integer matrix sizes.  The
integer floor in n = floor(2t + x t^(1/3)) shifts the determinant's
effective argument by frac/t^(1/3), a quantization term that is not
monotone along a t-ladder (and happens to vanish at t=8, where
2t - t^(1/3) is an exact integer), so those ladders are scored at the
effective argument x_eff = (n - 2t)/t^(1/3), or 2(ell - t)/t^(1/3) for the
E side's ell = floor(t + (x/2) t^(1/3)): toeplitz_lab.scaling_index gives
each size with its x_eff.

The product-split reports sum_parts_report (F side) and e_double_scaling_check
(E side), which `twlab toeplitz-limits` prints, join the Toeplitz ladders to
the Painleve route here too: they take (t, x, L, M, sol, consts, ctx), the
position and split, then a check's three arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, NamedTuple, Tuple

from mpmath import mp, mpf

from . import fredholm_oracle, painleve2, specialfn, toeplitz_lab, twdist
from .errors import DomainError, index
from .precision import round_to


class Result(NamedTuple):
    name: str
    measured: mpf
    bound: str
    ok: bool


def _below(name: str, measured, bound: str, strict: bool = True) -> Result:
    """measured < bound (<= when not strict), the bound read at the working
    precision."""
    limit = mpf(bound)
    return Result(name, measured, bound,
                  bool(measured < limit if strict else measured <= limit))


def _max_ratio(values) -> mpf:
    return max(b / a for a, b in zip(values, values[1:]))


# the keys of a product-split report's parts, in their order
_PARTS = ("exact", "airy", "painleve")


@dataclass(frozen=True)
class SumPartsReport:
    t: float
    x: float
    L: int
    M: int
    n: int
    # {"exact" | "airy" | "painleve": (value, large-t limit)}, in that order
    parts: Dict[str, Tuple[mpf, mpf]]
    total: mpf                    # -t^2 + exact + airy + painleve
    total_direct: mpf             # log(e^(-t^2) D_n) via the Cholesky route
    f2_reference: mpf


def sum_parts_report(t, x, L: int, M: int, sol, consts, ctx) -> SumPartsReport:
    """Split log(e^(-t^2) D_n), n = scaling_index(t, x, ctx)[0] = floor(2t +
    x t^(1/3)), as

        -t^2 + log D_L                                   (exact part)
        + sum_{q=L+1}^{m - 1} log kappa_{q-1}^(-2)       (Airy)
        + sum_{q=m}^{n} log kappa_{q-1}^(-2)             (Painleve)

    with m = scaling_index(t, -M, ctx)[0] = floor(2t - M t^(1/3)), M > 0,
    and report each part next to its large-t limit (parts).  The Painleve-
    part limit is +int_{-M}^x R(y) dy (log kappa^(-2) ~ +R/t^(1/3) > 0; the
    printed minus sign in some sources is inconsistent with the total)."""
    L = index(L, "L")
    if not M > 0:
        raise DomainError(f"the F side needs M > 0, got M={M}")
    t_mp = mpf(t)
    n, _ = toeplitz_lab.scaling_index(t, x, ctx)
    q_airy_hi = toeplitz_lab.scaling_index(t, -M, ctx)[0] - 1
    if not (1 <= L < q_airy_hi):
        raise DomainError(f"need 1 <= L < 2t - M t^(1/3) - 1, got L={L}, "
                          f"hi={q_airy_hi}")
    if n <= q_airy_hi:
        raise DomainError("Painleve window is empty; decrease M or raise t")
    ladder = toeplitz_lab.get_ladder(t, "plain", n, ctx)
    zp = consts.zeta_prime_minus_one
    with ctx.workprec():
        exact = ladder.log_d(L)
        airy = ladder.log_ratio(L, q_airy_hi, mp.prec)
        painleve = ladder.log_ratio(q_airy_hi, n, mp.prec)
        total = -t_mp ** 2 + exact + airy + painleve
        m_mp = mpf(M)
        exact_limit = toeplitz_lab._exact_part_bracket(L, t_mp, zp)
        airy_limit = (t_mp ** 2 - (exact_limit - zp) - twdist.regularizer_r(-m_mp)
                      + mp.log(2) / 24)
        painleve_limit = painleve2.integrate_kind(sol, "r", -m_mp, mpf(x), ctx)
    direct = toeplitz_lab._cholesky_ladder(t, "plain", n, ctx).log_d(n)
    f2_ref = twdist.tw_point(x, sol, consts, ctx).F2
    with ctx.workprec():
        total_direct = direct - t_mp ** 2
    r = round_to((exact, airy, painleve, exact_limit, airy_limit, painleve_limit,
                  total, total_direct, f2_ref), ctx.precision_bits)
    return SumPartsReport(t=float(t), x=float(x), L=L, M=M, n=n,
                          parts=dict(zip(_PARTS, zip(r[:3], r[3:6]))), total=r[6],
                          total_direct=r[7], f2_reference=r[8])


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
    # {"exact" | "airy" | "painleve": (value, large-t limit)}, in that order
    parts: Dict[str, Tuple[mpf, mpf]]
    total_two_log_e: mpf          # -t + exact + airy + painleve
    identity_gap: mpf             # total vs log(e^-t D++ D-+ / D_{2l-1})
    two_log_e_reference: mpf


def e_double_scaling_check(t, x, L: int, M: int, sol, consts,
                           ctx) -> EDoubleScalingReport:
    """Finite-t values of the E-side decomposition

        2 log E(x) ~ -t + log(D_{L-1}^{++} D_L^{-+} / D_{2L-1})
                     + sum_{j=L}^{floor(t - (M/2) t^(1/3))} log[(1+pi_{2j})(1-pi_{2j+1})]
                     + sum_{j=...+1}^{ell-1}                log[(1+pi_{2j})(1-pi_{2j+1})]

    with ell = scaling_index(t, x, ctx, per=2)[0] = floor(t + (x/2) t^(1/3))
    and the Airy window's end scaling_index(t, -M, ctx, per=2)[0], M >= 0,
    next to the parts' limits (parts) and the product convergence of
    e^(-t^2/2) D_{ell-1}^{++} to F E."""
    L = index(L, "L")
    if not M >= 0:
        raise DomainError(f"the E side needs M >= 0, got M={M}")
    t_mp = mpf(t)
    ell, _ = toeplitz_lab.scaling_index(t, x, ctx, per=2)
    j_airy_hi, _ = toeplitz_lab.scaling_index(t, -M, ctx, per=2)
    if L < 2 or not L <= j_airy_hi:
        raise DomainError(f"need 2 <= L <= floor(t - (M/2) t^(1/3)) = {j_airy_hi}")
    if ell - 1 < j_airy_hi:
        raise DomainError("Painleve window is empty; decrease M or raise t")

    # the -+ ladder needs the longest pass, so it comes first and the other
    # two read the same pass
    mp_lad = toeplitz_lab.get_ladder(t, "minus_plus", max(ell, L), ctx)
    pp = toeplitz_lab.get_ladder(t, "plus_plus", max(ell - 1, L - 1), ctx)
    plain = toeplitz_lab.get_ladder(t, "plain", 2 * ell, ctx)
    # pp and mp_lad are formed by the identity checked here, so the direct
    # side reads the independent Cholesky route
    pp_direct = toeplitz_lab._cholesky_ladder(t, "plus_plus", ell - 1, ctx)
    mp_direct = toeplitz_lab._cholesky_ladder(t, "minus_plus", ell, ctx)
    tw_ref = twdist.tw_point(x, sol, consts, ctx)

    with ctx.workprec():
        exact = pp.log_d(L - 1) + mp_lad.log_d(L) - plain.log_d(2 * L - 1)

        def term(j: int) -> mpf:
            return (mp.log(1 + plain.pi0[2 * j])
                    + mp.log(1 - plain.pi0[2 * j + 1]))

        airy = mp.fsum(term(j) for j in range(L, j_airy_hi + 1))
        painleve = mp.fsum(term(j) for j in range(j_airy_hi + 1, ell))
        total = -t_mp + exact + airy + painleve
        direct = (-t_mp + pp_direct.log_d(ell - 1) + mp_direct.log_d(ell)
                  - plain.log_d(2 * ell - 1))
        identity_gap = total - direct

        d_pp = mp.exp(-t_mp ** 2 / 2 + pp.log_d(ell - 1))
        d_mp = mp.exp(-t_mp ** 2 / 2 - t_mp + mp_lad.log_d(ell))

        log2 = mp.log(2)
        m_mp = mpf(M)
        exact_limit = (2 * L - 1) * log2
        airy_limit = t_mp - twdist.regularizer_q(-m_mp) - (2 * L - mpf("0.5")) * log2
        painleve_limit = painleve2.integrate_kind(sol, "q", -m_mp, mpf(x), ctx)
        two_log_e = 2 * mp.log(tw_ref.E)

    r = round_to((tw_ref.F1, d_pp, d_mp, exact, airy, painleve, exact_limit,
                  airy_limit, painleve_limit, total, identity_gap, two_log_e),
                 ctx.precision_bits)
    return EDoubleScalingReport(
        t=float(t), x=float(x), L=L, M=M, ell=ell,
        fe_reference=r[0], d_pp_value=r[1], d_mp_value=r[2],
        parts=dict(zip(_PARTS, zip(r[3:6], r[6:9]))), total_two_log_e=r[9],
        identity_gap=r[10], two_log_e_reference=r[11])


def oracle_equivalence(sol, consts, ctx) -> List[Result]:
    """F2 by the Painleve route against the Fredholm determinant, m=80."""
    with ctx.workprec():
        worst = max(abs(twdist.tw_cdf(x, 2, sol, consts, ctx)
                        - fredholm_oracle.f2_fredholm(x, 80, ctx,
                                                      verify_convergence=False))
                    for x in range(-8, 5))
        return [_below("max |F2 Painleve - F2 Fredholm m=80| on x=-8..4",
                       worst, "1e-10")]


def left_right_identity(sol, consts, ctx) -> List[Result]:
    """The two integral representations agree on the half-integers of
    [-9, -1]."""
    with ctx.workprec():
        pairs = [(twdist.cdf_left(x, sol, consts, ctx), twdist.cdf_right(x, sol, ctx))
                 for x in (mpf(k) / 2 for k in range(-18, -1))]
        return [_below(f"left/right representation max |d{name}| on [-9,-1]",
                       max(abs(left[i] - right[i]) for left, right in pairs), "1e-18")
                for i, name in enumerate("FE")]


def total_integrals(sol, consts, ctx) -> List[Result]:
    """The total-integral identities, one row per side.  Their left sides do
    not depend on the split point c (twdist.total_integral_check), so a
    sweep over c would repeat one number; `verify` prints 28 rows."""
    with ctx.workprec():
        lhs_r, rhs_r, lhs_q, rhs_q = twdist.total_integral_check(sol, consts, ctx)
        return [_below(f"total integral ({side} side)", abs(gap), "1e-18")
                for side, gap in (("R", lhs_r - rhs_r), ("q", lhs_q - rhs_q))]


def tail_constants(sol, consts, ctx) -> List[Result]:
    """The tau identities, and F_beta at x=-9 against the left-tail
    expansion with tau_beta."""
    with ctx.workprec():
        out = [_below("tau1*tau4 == tau2/2",
                      abs(consts.tau1 * consts.tau4 - consts.tau2 / 2), "1e-30"),
               _below("tau1/tau4 == sqrt(2)",
                      abs(consts.tau1 / consts.tau4 - mp.sqrt(2)), "1e-30")]
        for beta, bound in ((2, "1e-3"), (1, "1e-2"), (4, "1e-2")):
            fit = (twdist.tw_cdf(-9, beta, sol, consts, ctx)
                   / twdist.tail_left(-9, beta, consts))
            out.append(_below(f"tau{beta} at x=-9: |F{beta} / tail_left - 1|",
                              abs(fit - 1), bound))
        return out


def special_function_suite(sol, consts, ctx) -> List[Result]:
    """zeta'(-1) against the z=1000 fit of log G(1001) = sum of log q!,
    q < 1000, summed as the logs of the integers it is made of, and
    zeta'(-1) again at doubled precision."""
    bits = ctx.precision_bits
    with ctx.workprec():
        zp = specialfn.zeta_prime_minus_one(bits)
        z = mpf(1000)
        # sum_{q=2}^{999} log q! = sum_{k=2}^{999} (1000 - k) log k
        log_g = mp.fsum((1000 - k) * mp.log(k) for k in range(2, 1000))
        fit = log_g - (z * z / 2 * mp.log(z) - mpf(3) / 4 * z * z
                       + z / 2 * mp.log(2 * mp.pi) - mp.log(z) / 12)
        doubled = specialfn.zeta_prime_minus_one(2 * bits)
        return [_below("zeta'(-1) vs the log G(1000) fit", abs(fit - zp), "1e-8"),
                _below("zeta'(-1) at doubled precision", abs(zp - doubled), "1e-20")]


def telescoping(sol, consts, ctx) -> List[Result]:
    """The product-split total equals the directly computed
    log(e^(-t^2) D_n)."""
    out = []
    with ctx.workprec():
        for L in (4, 8):
            rep = sum_parts_report(20.0, -1.0, L, 4, sol, consts, ctx)
            out.append(_below(f"telescoping t=20 L={L}",
                              abs(rep.total - rep.total_direct), "1e-20"))
    return out


def double_scaling_ladder(sol, consts, ctx) -> List[Result]:
    """e^(-t^2) D_n converges to F2 along t in {8, 16, 32} at x=-1."""
    gaps = []
    with ctx.workprec():
        for t in (8.0, 16.0, 32.0):
            n, x_eff = toeplitz_lab.scaling_index(t, -1, ctx)
            logd = toeplitz_lab.toeplitz_log_det(
                toeplitz_lab.MomentMatrixSpec(t, n, "plain"), ctx)
            gaps.append(abs(mp.exp(-mpf(t) ** 2 + logd)
                            - twdist.tw_cdf(x_eff, 2, sol, consts, ctx)))
        return [_below("|e^(-t^2) D_n - F2(x_eff)|, t=8,16,32: max successive ratio",
                       _max_ratio(gaps), "1")]


def airy_regime_prediction(sol, consts, ctx) -> List[Result]:
    """The first-correction prediction of log kappa_{q-1}^(-2) at t=50 beats
    leading order at every q and stays within 10 times its error envelope."""
    t = mpf(50)
    ladder = toeplitz_lab.get_ladder(50.0, "plain", 92, ctx)
    vs_lead = []
    vs_envelope = []
    with ctx.workprec():
        for q in range(20, 81, 10):
            exact = -ladder.log_kappa_sq(q - 1)
            err_c = abs(exact - toeplitz_lab.airy_log_kappa_prediction(q, 50.0))
            err_l = abs(exact - toeplitz_lab.airy_log_kappa_prediction(
                q, 50.0, include_correction=False))
            envelope = ((2 * t) ** 2 / (mpf(q) ** mpf("1.5")
                                        * (2 * t - q) ** mpf("2.5"))
                        + (2 * t) ** 2 / (mpf(q) ** 2 * (2 * t - q) ** 2))
            vs_lead.append(err_c / err_l)
            vs_envelope.append(err_c / envelope)
        return [_below("Airy regime t=50, q=20..80: max error corrected/leading",
                       max(vs_lead), "1"),
                _below("Airy regime t=50, q=20..80: max error/envelope",
                       max(vs_envelope), "10")]


def verblunsky_and_signs(sol, consts, ctx) -> List[Result]:
    """Reflection-coefficient identity at t=3 and sign alternation of
    pi_q(0) at t=50.  The Levinson ladder forms kappa from pi by this
    identity, so kappa comes from the Cholesky route."""
    chol = toeplitz_lab._cholesky_ladder(3.0, "plain", 21, ctx)
    with ctx.workprec():
        worst = max(abs(1 - toeplitz_lab.pi_zero(q, 3.0, ctx) ** 2
                        - mp.exp(chol.log_kappa_sq(q - 1) - chol.log_kappa_sq(q)))
                    for q in range(2, 21))
        ladder = toeplitz_lab.get_ladder(50.0, "plain", 92, ctx)
        sign = max(-(-1) ** q * ladder.pi0[q] for q in range(10, 91))
        return [_below("Verblunsky identity t=3, q<=20", worst, "1e-20"),
                _below("sign alternation t=50, q=10..90: max -(-1)^q pi_q(0)",
                       sign, "0")]


def e_side_scaffolding(sol, consts, ctx) -> List[Result]:
    """(a) the exact-part combination converges to (2L-1) log 2 in t at
    L=3 and L=5; (b) the reflection-coefficient partial sums approach
    -log E(0): r_K = sum_{j=ell}^{ell+K} log(1 - pi_{2j+1}(0)) + log E(0)
    shrinks over K = 0..12 at t=16, ell = floor(t); (c) the ++ determinants
    converge to F E along the t-ladder, at the scaling position."""
    with ctx.workprec():
        def combo(L, t):
            return abs(toeplitz_lab.d_pm_log("plus_plus", L - 1, t, ctx)
                       + toeplitz_lab.d_pm_log("minus_plus", L, t, ctx)
                       - toeplitz_lab.toeplitz_log_det(
                           toeplitz_lab.MomentMatrixSpec(t, 2 * L - 1, "plain"), ctx)
                       - (2 * L - 1) * mp.log(2))

        shrink = max(combo(L, 100.0) / combo(L, 50.0) for L in (3, 5))
        ell, _ = toeplitz_lab.scaling_index(16.0, 0.0, ctx, per=2)
        plain = toeplitz_lab.get_ladder(16.0, "plain", 2 * (ell + 12) + 2, ctx)
        log_e = mp.log(twdist.tw_point(0.0, sol, consts, ctx).E)
        sums = [abs(round_to(acc + log_e, ctx.precision_bits)) for acc in accumulate(
            mp.log(1 - plain.pi0[2 * j + 1]) for j in range(ell, ell + 13))]
        gaps = []
        for t in (8.0, 16.0, 32.0):
            ell, x_eff = toeplitz_lab.scaling_index(t, -1, ctx, per=2)
            val = mp.exp(-mpf(t) ** 2 / 2
                         + toeplitz_lab.d_pm_log("plus_plus", ell - 1, t, ctx))
            gaps.append(abs(val - twdist.tw_point(x_eff, sol, consts, ctx).F1))
        return [
            _below("(a) |log(D++ D-+ / D) - (2L-1) log 2|, t=100 over t=50, "
                   "max over L=3,5", shrink, "1"),
            # non-strict: the successive ratios reach 1 - 1e-8
            _below("(b) pi partial sums t=16, K=0..12: max successive |r_K| ratio",
                   _max_ratio(sums), "1", strict=False),
            _below("(b) pi partial sums t=16: |r_12| / |r_0|",
                   sums[-1] / sums[0], "0.25"),
            _below("(c) |e^(-t^2/2) D++ - F E(x_eff)|, t=8,16,32: "
                   "max successive ratio", _max_ratio(gaps), "1")]


def selberg(sol, consts, ctx) -> List[Result]:
    """Gaussian Selberg integral: closed form against direct quadrature at
    L=2, and against sqrt(pi/t) at L=1."""
    with ctx.workprec():
        closed2 = toeplitz_lab.selberg_hermite_log_closed(2, 2.0, ctx)
        quad2 = toeplitz_lab.selberg_hermite_log_quadrature(2, 2.0, ctx)
        closed1 = toeplitz_lab.selberg_hermite_log_closed(1, 5.0, ctx)
        return [_below("Selberg L=2 t=2 closed vs quadrature, relative",
                       abs(mp.exp(closed2 - quad2) - 1), "1e-8"),
                _below("Selberg L=1 t=5 closed vs log sqrt(pi/t)",
                       abs(closed1 - mp.log(mp.sqrt(mp.pi / 5))), "1e-30")]


def right_tail(sol, consts, ctx) -> List[Result]:
    """F and E at x=6 against the right-tail expansions with their first
    corrections, relative to 1 - F and 1 - E."""
    with ctx.workprec():
        x = mpf(6)
        tails = twdist.tail_right(x)
        values = twdist.cdf_right(x, sol, ctx)
        return [_below(f"right tail at x=6: x^3 |{name}_tail - {name}| / (1 - {name})",
                       x ** 3 * abs(tail - value) / (1 - value), "10")
                for name, tail, value in zip("FE", tails, values)]


def exact_part_limit(sol, consts, ctx) -> List[Result]:
    """log D_3(t) tends to its large-t form, the exact part of the F-side
    product split, along t in {25, 50, 100}."""
    with ctx.workprec():
        gaps = [abs(toeplitz_lab.exact_part_limit_check(3, t, ctx))
                for t in (25.0, 50.0, 100.0)]
        return [_below("exact part |log D_3 - large-t form|, t=25,50,100: "
                       "max successive ratio", _max_ratio(gaps), "1")]


CHECKS = [oracle_equivalence, left_right_identity, total_integrals, tail_constants,
          special_function_suite, telescoping, double_scaling_ladder,
          airy_regime_prediction, verblunsky_and_signs, e_side_scaffolding, selberg,
          right_tail, exact_part_limit]
