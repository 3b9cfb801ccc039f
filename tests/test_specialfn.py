"""Scalar special functions against independent oracles.

Oracles used here: mpmath's own implementations (entirely separate code
paths), adaptive quadrature of defining integrals, finite differences of
defining ODEs, and closed forms.
"""

import random

import pytest
from mpmath import mp, mpf

from twlab import specialfn
from twlab.errors import DomainError
from twlab.precision import PrecisionContext

CTX = PrecisionContext(256, 1e-40)


# ---------------------------------------------------------------------------
# Airy
# ---------------------------------------------------------------------------

class TestAiry:
    def test_value_at_zero_closed_form(self, wp300):
        ai, aip = specialfn.airy_ai(0, CTX)
        ref_ai = mp.power(3, mpf(-2) / 3) / mp.gamma(mpf(2) / 3)
        ref_aip = -mp.power(3, mpf(-1) / 3) / mp.gamma(mpf(1) / 3)
        assert abs(ai - ref_ai) < mpf(10) ** -70
        assert abs(aip - ref_aip) < mpf(10) ** -70

    def test_against_mpmath_oracle(self, wp300):
        for x in (-10, -7.5, -3, -1, 0.5, 2, 7, 8.5, 12, 25):
            ai, aip = specialfn.airy_ai(x, CTX)
            assert abs(ai - mp.airyai(x)) <= mpf(10) ** -68 * max(1, abs(mp.airyai(x)))
            assert abs(aip - mp.airyai(x, derivative=1)) <= \
                mpf(10) ** -68 * max(1, abs(mp.airyai(x, derivative=1)))

    def test_leading_asymptotic_factor_at_ten(self, wp300):
        # Ai(10) * 2 sqrt(pi) 10^(1/4) e^((2/3)10^(3/2)) = 1 - c1/zeta + O(zeta^-2)
        ai, _ = specialfn.airy_ai(10, CTX)
        zeta = mpf(2) / 3 * mpf(10) ** mpf("1.5")
        scaled = ai * 2 * mp.sqrt(mp.pi) * mpf(10) ** mpf("0.25") * mp.exp(zeta)
        c1 = mpf(5) / 72
        # next coefficient of the expansion is 385/10368
        bound = 2 * mpf(385) / 10368 / zeta ** 2
        assert abs(scaled - (1 - c1 / zeta)) < bound

    def test_ode_by_central_difference_at_one(self, wp300):
        h = mpf(10) ** -4
        ai_m, _ = specialfn.airy_ai(1 - h, CTX)
        ai_0, _ = specialfn.airy_ai(1, CTX)
        ai_p, _ = specialfn.airy_ai(1 + h, CTX)
        second = (ai_p - 2 * ai_0 + ai_m) / (h * h)
        # error is (h^2/12) Ai'''' = (h^2/12)(2 Ai' + x^2 Ai)
        assert abs(second - 1 * ai_0) < h * h

    def test_ode_residual_random_sweep(self):
        ctx = PrecisionContext(128, 1e-25)
        rng = random.Random(20240917)
        h = mpf(10) ** -4
        with mp.workprec(160):
            for _ in range(50):
                x = mpf(rng.uniform(-10, 10))
                am, _ = specialfn.airy_ai(x - h, ctx)
                a0, ap0 = specialfn.airy_ai(x, ctx)
                ap, _ = specialfn.airy_ai(x + h, ctx)
                second = (ap - 2 * a0 + am) / (h * h)
                fourth_bound = 2 * abs(ap0) + x * x * abs(a0)
                assert abs(second - x * a0) <= h * h / 12 * fourth_bound * 4 + mpf(10) ** -25

    def test_branch_crossover_overlap_window(self):
        # both branches must agree within 10x a tolerance they can both meet
        tol = mpf(10) ** -7
        with mp.workprec(320):
            for ax in (6, 6.5, 7, 7.5, 8, 8.5, 9):
                for x in (mpf(ax), -mpf(ax)):
                    s_ai, s_aip = specialfn._airy_maclaurin(
                        x, 320 + int(2.9 * ax ** 1.5) + 64)
                    a_ai, a_aip = specialfn._airy_asymptotic(x, 320)
                    scale = max(abs(s_ai), abs(s_aip))
                    assert abs(s_ai - a_ai) <= 10 * tol * scale
                    assert abs(s_aip - a_aip) <= 10 * tol * scale

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            specialfn.airy_ai(float("nan"), CTX)
        with pytest.raises(DomainError):
            specialfn.airy_ai(float("inf"), CTX)


# ---------------------------------------------------------------------------
# Modified Bessel row
# ---------------------------------------------------------------------------

class TestBesselRow:
    def test_row_at_zero(self):
        row = specialfn.bessel_i_row(4, 0, CTX)
        assert row[0] == 1
        assert all(v == 0 for v in row[1:])

    def test_generating_function(self, wp300):
        # sum_{j=-J}^{J} I_j(x) = e^x; symmetry I_{-j} = I_j
        row = specialfn.bessel_i_row(30, 2, CTX)
        total = row[0] + 2 * mp.fsum(row[1:])
        assert abs(total - mp.exp(2)) < mpf(10) ** -20

    def test_quadrature_oracle(self, wp300):
        # I_j(2t) = (1/2pi) int e^{2t cos th} cos(j th) dth
        row = specialfn.bessel_i_row(3, 2, CTX)
        for j in (0, 1, 3):
            ref = mp.quad(lambda th: mp.exp(2 * mp.cos(th)) * mp.cos(j * th),
                          [0, mp.pi]) / mp.pi
            assert abs(row[j] - ref) < mpf(10) ** -15

    def test_three_term_recurrence(self, wp300):
        for x in (mpf("0.5"), mpf(2), mpf(10)):
            row = specialfn.bessel_i_row(22, x, CTX)
            for j in range(1, 21):
                lhs = row[j - 1] - row[j + 1]
                rhs = 2 * j / x * row[j]
                assert abs(lhs - rhs) <= 10 * mpf(10) ** -40 * max(1, abs(rhs))

    def test_rejects_negative_argument(self):
        with pytest.raises(DomainError):
            specialfn.bessel_i_row(3, -1, CTX)


# ---------------------------------------------------------------------------
# log Gamma / log Barnes G
# ---------------------------------------------------------------------------

class TestLogGamma:
    def test_special_values(self, wp300):
        assert abs(specialfn.log_gamma(1, CTX)) < mpf(10) ** -70
        assert abs(specialfn.log_gamma(mpf(1) / 2, CTX) - mp.log(mp.pi) / 2) < mpf(10) ** -70
        assert abs(specialfn.log_gamma(6, CTX) - mp.log(120)) < mpf(10) ** -70

    def test_against_mpmath(self, wp300):
        for z in (0.25, 1.75, 3.5, 17.0, 123.25):
            assert abs(specialfn.log_gamma(z, CTX) - mp.loggamma(z)) < mpf(10) ** -68

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            specialfn.log_gamma(0, CTX)
        with pytest.raises(DomainError):
            specialfn.log_gamma(-2.5, CTX)


class TestLogBarnesG:
    def test_unit_values(self):
        for z in (1, 2, 3):
            assert abs(specialfn.log_barnes_g(z, CTX)) < mpf(10) ** -70

    def test_half_argument_closed_form(self, wp300):
        zp = specialfn.zeta_prime_minus_one(CTX)
        closed = mp.log(2) / 24 - mp.log(mp.pi) / 4 + mpf(3) / 2 * zp
        assert abs(specialfn.log_barnes_g(mpf(1) / 2, CTX) - closed) < mpf(10) ** -40

    def test_superfactorial_value(self, wp300):
        # G(6) = 1! 2! 3! 4! = 288
        assert abs(specialfn.log_barnes_g(6, CTX) - mp.log(288)) < mpf(10) ** -70

    def test_recurrence_sweep(self, wp300):
        z = mpf("0.5")
        while z <= mpf("10.5"):
            lhs = specialfn.log_barnes_g(z + 1, CTX)
            rhs = specialfn.log_gamma(z, CTX) + specialfn.log_barnes_g(z, CTX)
            assert abs(lhs - rhs) < mpf(10) ** -40
            z += 1

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            specialfn.log_barnes_g(0, CTX)


class TestZetaPrimeMinusOne:
    def test_against_mpmath_oracle(self, wp300):
        mine = specialfn.zeta_prime_minus_one(CTX)
        ref = mp.zeta(-1, derivative=1)
        assert abs(mine - ref) < mpf(10) ** -70

    def test_reference_decimal(self, wp300):
        mine = specialfn.zeta_prime_minus_one(CTX)
        assert abs(mine - mpf("-0.1654211437")) < mpf("1e-9")

    def test_barnes_asymptotics_recovers_constant(self, wp300):
        # log G(z+1) from factorials alone (no zeta' anywhere), then strip the
        # smooth part of the large-argument expansion; the leftover constant
        # has error B_4/(8 z^2), i.e. O(z^-2)
        mine = specialfn.zeta_prime_minus_one(CTX)
        for z_int in (40, 1000):
            z = mpf(z_int)
            log_g = mp.fsum(specialfn.log_gamma(q + 1, CTX)
                            for q in range(2, z_int))
            fit = (log_g - (z * z / 2 * mp.log(z) - mpf(3) / 4 * z * z
                            + z / 2 * mp.log(2 * mp.pi) - mp.log(z) / 12))
            bound = 2 * abs(mp.bernoulli(4)) / (8 * z * z)
            assert abs(fit - mine) < bound
        # at z=1000 the recovery is below the 1e-8 target outright
        assert abs(fit - mine) < mpf(10) ** -8

    def test_g_half_two_routes_agree(self, wp300):
        # recurrence route vs the closed form carrying zeta'(-1)
        zp = specialfn.zeta_prime_minus_one(CTX)
        closed = mp.log(2) / 24 - mp.log(mp.pi) / 4 + mpf(3) / 2 * zp
        via_series = specialfn.log_barnes_g(mpf(1) / 2, CTX)
        assert abs(via_series - closed) < mpf(10) ** -40
