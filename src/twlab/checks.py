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
"""

from __future__ import annotations

from typing import List, NamedTuple

from mpmath import mp, mpf

from . import fredholm_oracle, specialfn, toeplitz_lab, twdist


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
    sweep over c would repeat one number; `verify` prints 30 rows."""
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
    """Barnes recurrence, the half-argument identity, zeta'(-1) against the
    z=1000 fit of log G(1001) = sum of log q!, q < 1000, summed as the logs
    of the integers it is made of, and zeta'(-1) again at doubled
    precision."""
    bits = ctx.precision_bits
    with ctx.workprec():
        rec = max(abs(specialfn.log_barnes_g(z + 1, bits) - specialfn.log_gamma(z, bits)
                      - specialfn.log_barnes_g(z, bits))
                  for z in (k + mpf(1) / 2 for k in range(11)))
        zp = specialfn.zeta_prime_minus_one(bits)
        half = abs(specialfn.log_barnes_g(mpf(1) / 2, bits)
                   - (mp.log(2) / 24 - mp.log(mp.pi) / 4 + mpf(3) / 2 * zp))
        z = mpf(1000)
        # sum_{q=2}^{999} log q! = sum_{k=2}^{999} (1000 - k) log k
        log_g = mp.fsum((1000 - k) * mp.log(k) for k in range(2, 1000))
        fit = log_g - (z * z / 2 * mp.log(z) - mpf(3) / 4 * z * z
                       + z / 2 * mp.log(2 * mp.pi) - mp.log(z) / 12)
        doubled = specialfn.zeta_prime_minus_one(2 * bits)
        return [_below("Barnes G recurrence max gap, z=0.5..10.5", rec, "1e-20"),
                _below("Barnes G half-argument identity", half, "1e-20"),
                _below("zeta'(-1) vs the log G(1000) fit", abs(fit - zp), "1e-8"),
                _below("zeta'(-1) at doubled precision", abs(zp - doubled), "1e-20")]


def telescoping(sol, consts, ctx) -> List[Result]:
    """The product-split total equals the directly computed
    log(e^(-t^2) D_n)."""
    out = []
    with ctx.workprec():
        for L in (4, 8):
            rep = toeplitz_lab.sum_parts_report(20.0, -1.0, L, 4, sol, ctx)
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
    -log E(0); (c) the ++ determinants converge to F E along the t-ladder,
    at the scaling position."""
    with ctx.workprec():
        def combo(L, t):
            return abs(toeplitz_lab.d_pm_log("plus_plus", L - 1, t, ctx)
                       + toeplitz_lab.d_pm_log("minus_plus", L, t, ctx)
                       - toeplitz_lab.toeplitz_log_det(
                           toeplitz_lab.MomentMatrixSpec(t, 2 * L - 1, "plain"), ctx)
                       - (2 * L - 1) * mp.log(2))

        shrink = max(combo(L, 100.0) / combo(L, 50.0) for L in (3, 5))
        sums = [abs(r) for r in toeplitz_lab.pi_partial_sums(16.0, 0.0, 12, sol, ctx)]
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
