"""Distribution functions, tail expansions, and total-integral identities."""

import pytest
from mpmath import mp, mpf

from twlab import fredholm_oracle, painleve2, twdist
from twlab.errors import DomainError, PrecisionError
from twlab.precision import PrecisionContext


class TestTailConstants:
    def test_values(self, tail_constants, wp300):
        zp = tail_constants.zeta_prime_minus_one
        assert abs(tail_constants.tau2
                   - mpf(2) ** (mpf(1) / 24) * mp.exp(zp)) < mpf(10) ** -70
        assert abs(tail_constants.tau2 - mpf("0.87237141495412751")) < mpf(10) ** -15
        assert abs(tail_constants.e_prefactor - mpf(2) ** mpf("-0.25")) < mpf(10) ** -70

    def test_tau_identities(self, tail_constants, wp300):
        c = tail_constants
        assert abs(c.tau1 * c.tau4 - c.tau2 / 2) < mpf(10) ** -70
        assert abs(c.tau1 / c.tau4 - mp.sqrt(2)) < mpf(10) ** -70
        # exact exponent arithmetic: -11/48 - 35/48 = 1/24 - 1
        from fractions import Fraction
        assert Fraction(-11, 48) + Fraction(-35, 48) == Fraction(1, 24) - 1
        assert Fraction(-11, 48) - Fraction(-35, 48) == Fraction(1, 2)


class TestRightRepresentation:
    def test_near_one_at_right_end(self, hm_solution, ctx256, wp300):
        f, e = twdist.cdf_right(8, hm_solution, ctx256)
        x32 = mpf(8) ** mpf("1.5")
        defect = mp.exp(-mpf(4) / 3 * x32) / (32 * mp.pi * x32)
        assert abs((1 - f) - defect) < defect / 2
        assert 0 < e < 1

    def test_f2_monotone(self, hm_solution, ctx256):
        with mp.workprec(280):
            vals = [twdist.cdf_right(x, hm_solution, ctx256)[0] ** 2
                    for x in range(-8, 5)]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_f2_against_fredholm(self, hm_solution, ctx256, wp300):
        f, _ = twdist.cdf_right(-2, hm_solution, ctx256)
        oracle = fredholm_oracle.f2_fredholm(-2, 60, ctx256,
                                             verify_convergence=False)
        assert abs(f * f - oracle) < mpf(10) ** -10

    def test_domain(self, hm_solution, ctx256):
        with pytest.raises(DomainError):
            twdist.cdf_right(9, hm_solution, ctx256)

    def test_airy_tail_q_integral_against_quadrature(self):
        ctx = PrecisionContext(256, 1e-30)
        # 128-bit quadrature is good to ~1e-44 here, and far quicker than 256-bit
        with mp.workprec(128):
            for x in (6, 8, 10):
                oracle = mp.quad(mp.airyai, [x, mp.inf])
                got = twdist.airy_tail_q_integral(x, ctx)
                assert abs(got - oracle) < mpf(10) ** -30


class TestLeftRepresentation:
    def test_agreement_with_right(self, hm_solution, tail_constants, ctx256):
        with mp.workprec(280):
            for x in (-8, -6, -4, -2):
                fl, el = twdist.cdf_left(x, hm_solution, tail_constants, ctx256)
                fr, er = twdist.cdf_right(x, hm_solution, ctx256)
                assert abs(fl - fr) < mpf(10) ** -8
                assert abs(el - er) < mpf(10) ** -8

    def test_f_prefactor_expansion(self, hm_solution, tail_constants, ctx256, wp300):
        # F(x) * e^(|x|^3/24) |x|^(1/16) / prefactor = 1 + 3/(2^7 |x|^3) + O(x^-6)
        x = mpf(-8)
        f, _ = twdist.cdf_left(x, hm_solution, tail_constants, ctx256)
        scaled = (f * mp.exp(abs(x) ** 3 / 24) * abs(x) ** (mpf(1) / 16)
                  / tail_constants.f_prefactor)
        lead = 1 + 3 / (2 ** 7 * abs(x) ** 3)
        assert abs(scaled - lead) < 100 * abs(x) ** -6

    def test_e_correction_expansion(self, hm_solution, tail_constants, ctx256, wp300):
        # E(-8) 2^(1/4) e^(8^(3/2)/(3 sqrt 2)) = 1 - 1/(24 sqrt2 8^(3/2)) + O(x^-3)
        _, e = twdist.cdf_left(-8, hm_solution, tail_constants, ctx256)
        x32 = mpf(8) ** mpf("1.5")
        scaled = e * mpf(2) ** mpf("0.25") * mp.exp(x32 / (3 * mp.sqrt(2)))
        lead = 1 - 1 / (24 * mp.sqrt(2) * x32)
        assert abs(scaled - lead) < 5 * mpf(8) ** -3

    def test_domain(self, hm_solution, tail_constants, ctx256):
        with pytest.raises(DomainError):
            twdist.cdf_left(1, hm_solution, tail_constants, ctx256)

    def test_tail_precision_guard(self, hm_solution, tail_constants):
        strict = PrecisionContext(256, 1e-30)
        with pytest.raises(PrecisionError):
            twdist.cdf_left(-4, hm_solution, tail_constants, strict)


class TestCombinedCdf:
    def test_beta2_is_f_squared(self, hm_solution, tail_constants, ctx256):
        pt = twdist.tw_point(-4, hm_solution, tail_constants, ctx256)
        # bit-level: F2 is the square of the same F at the same precision
        with mp.workprec(ctx256.precision_bits + 16):
            assert pt.F2 == +(pt.F * pt.F)

    def test_beta4_algebra(self, hm_solution, tail_constants, ctx256):
        pt = twdist.tw_point(-4, hm_solution, tail_constants, ctx256)
        with mp.workprec(280):
            assert abs(pt.F4 - (pt.E + 1 / pt.E) * pt.F / 2) < mpf(10) ** -70

    def test_beta1_recomputation(self, hm_solution, tail_constants, ctx256, wp300):
        v = twdist.tw_cdf(-2, 1, hm_solution, tail_constants, ctx256)
        f, e = twdist.cdf_left(-2, hm_solution, tail_constants, ctx256)
        assert abs(v - f * e) < mpf(10) ** -30

    def test_representation_switch(self, hm_solution, tail_constants, ctx256):
        assert twdist.tw_point(-1.5, hm_solution, tail_constants, ctx256).representation == "left"
        assert twdist.tw_point(-0.5, hm_solution, tail_constants, ctx256).representation == "right"

    def test_rejects_bad_beta(self, hm_solution, tail_constants, ctx256):
        with pytest.raises(DomainError):
            twdist.tw_cdf(0, 3, hm_solution, tail_constants, ctx256)

    def test_all_cdfs_increasing_and_bounded(self, hm_solution, tail_constants, ctx256):
        with mp.workprec(280):
            pts = [twdist.tw_point(x, hm_solution, tail_constants, ctx256)
                   for x in range(-8, 5)]
            for beta_attr in ("F1", "F2", "F4"):
                vals = [getattr(p, beta_attr) for p in pts]
                assert all(0 < v < 1 for v in vals)
                assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_f4_f1_gap_nonnegative(self, hm_solution, tail_constants, ctx256):
        # F4 - F1 = (1/E - E) F / 2 >= 0 because E <= 1
        with mp.workprec(280):
            for x in (-6, -3, 0, 3):
                pt = twdist.tw_point(x, hm_solution, tail_constants, ctx256)
                assert pt.E <= 1
                assert pt.F4 - pt.F1 >= 0


class TestTotalIntegrals:
    def test_identities(self, hm_solution, tail_constants, ctx256):
        with mp.workprec(280):
            for c in (-2, -4, -6):
                lhs_r, rhs_r, lhs_q, rhs_q = twdist.total_integral_check(
                    c, hm_solution, tail_constants, ctx256)
                assert abs(lhs_r - rhs_r) < mpf(10) ** -6
                assert abs(lhs_q - rhs_q) < mpf(10) ** -6

    def test_c_independence(self, hm_solution, tail_constants, ctx256):
        # lhs_R - |c|^3/12 - (1/8) log|c| is the same constant for every c
        with mp.workprec(280):
            consts = []
            for c in (-2, -4, -6):
                lhs_r, _, _, _ = twdist.total_integral_check(
                    c, hm_solution, tail_constants, ctx256)
                ac = mpf(-c)
                consts.append(lhs_r - ac ** 3 / 12 - mp.log(ac) / 8)
            assert max(consts) - min(consts) < mpf(10) ** -6

    def test_domain(self, hm_solution, tail_constants, ctx256):
        with pytest.raises(DomainError):
            twdist.total_integral_check(1, hm_solution, tail_constants, ctx256)


class TestTailExpansions:
    def test_tail_left_against_cdf(self, hm_solution, tail_constants, ctx256):
        with mp.workprec(280):
            for beta, rel_cap in ((2, mpf(10) ** -3), (1, mpf(10) ** -2),
                                  (4, mpf(10) ** -2)):
                tail = twdist.tail_left(-8, beta, tail_constants)
                ref = twdist.tw_cdf(-8, beta, hm_solution, tail_constants, ctx256)
                assert abs(tail - ref) / ref < rel_cap

    def test_tail_left_correction_signs(self, tail_constants):
        # first corrections: beta=1 lowers, beta=4 raises
        with mp.workprec(280):
            x32 = mpf(8) ** mpf("1.5")
            t1 = twdist.tail_left(-8, 1, tail_constants)
            base1 = (tail_constants.tau1
                     * mp.exp(-mpf(8) ** 3 / 24 - x32 / (3 * mp.sqrt(2)))
                     / mpf(8) ** (mpf(1) / 16))
            assert abs(t1 / base1 - (1 - 1 / (24 * mp.sqrt(2) * x32))) < mpf(10) ** -60
            t4 = twdist.tail_left(-8, 4, tail_constants)
            base4 = (tail_constants.tau4
                     * mp.exp(-mpf(8) ** 3 / 24 + x32 / (3 * mp.sqrt(2)))
                     / mpf(8) ** (mpf(1) / 16))
            assert abs(t4 / base4 - (1 + 1 / (24 * mp.sqrt(2) * x32))) < mpf(10) ** -60

    def test_tail_left_domain(self, tail_constants):
        with pytest.raises(DomainError):
            twdist.tail_left(-2, 2, tail_constants)

    def test_tail_right_against_cdf(self, hm_solution, ctx256):
        with mp.workprec(280):
            f_tail, e_tail = twdist.tail_right(6)
            f, e = twdist.cdf_right(6, hm_solution, ctx256)
            x32 = mpf(6) ** mpf("1.5")
            assert abs(f_tail - f) / (1 - f) < 10 / x32 ** 2
            assert abs(e_tail - e) / (1 - e) < 10 / x32 ** 2

    def test_tail_right_limits(self):
        with mp.workprec(280):
            f_tail, e_tail = twdist.tail_right(40)
            assert abs(1 - f_tail) < mpf(10) ** -100
            assert abs(1 - e_tail) < mpf(10) ** -70

    def test_e_defect_dominates_f_defect(self):
        # (1 - E)/(1 - F) ~ 8 sqrt(pi) x^(3/4) e^((2/3) x^(3/2))
        with mp.workprec(280):
            f_tail, e_tail = twdist.tail_right(6)
            ratio = (1 - e_tail) / (1 - f_tail)
            pred = (8 * mp.sqrt(mp.pi) * mpf(6) ** mpf("0.75")
                    * mp.exp(mpf(2) / 3 * mpf(6) ** mpf("1.5")))
            assert abs(ratio - pred) / pred < mpf("0.15")
            assert ratio > 1000

    def test_tail_right_domain(self):
        with pytest.raises(DomainError):
            twdist.tail_right(2)


class TestRepresentationEquivalence:
    def test_half_grid_sweep(self, hm_solution, tail_constants, ctx256):
        with mp.workprec(280):
            x = mpf(-9)
            while x <= -1:
                fl, el = twdist.cdf_left(x, hm_solution, tail_constants, ctx256)
                fr, er = twdist.cdf_right(x, hm_solution, ctx256)
                assert abs(fl - fr) < mpf(10) ** -8
                assert abs(el - er) < mpf(10) ** -8
                x += mpf(1) / 2
