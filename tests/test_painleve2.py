"""Hastings-McLeod solver and its asymptotic series."""

import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from twlab import painleve2, specialfn
from twlab.errors import DomainError, UnsupportedOrderError
from twlab.precision import PrecisionContext
from twlab.quadrature import gauss_legendre, integrate_gl


class TestLeftSeries:
    def test_q_coefficients_low_orders(self):
        a = painleve2.hm_left_series_coefficients(2)
        assert a == [Fraction(1), Fraction(1, 8), Fraction(-73, 128)]

    def test_r_coefficients_low_orders(self):
        rho = painleve2.r_left_series_coefficients(2)
        assert rho == [Fraction(1, 4), Fraction(-1, 8), Fraction(9, 64)]

    def test_series_satisfies_ode(self, wp300):
        # the truncated expansion must kill q'' - 2q^3 - xq through its
        # order; the leftover is ~ 4 (-x/2)^(3/2) |a_{order+1}| x^(-3(order+1))
        x = mpf(-30)
        h = mpf(10) ** -9
        order = 5

        def q(y):
            a = painleve2.hm_left_series_coefficients(order)
            s = mpf(0)
            for k in range(order, -1, -1):
                s = s / y ** 3 + mpf(a[k].numerator) / a[k].denominator
            return mp.sqrt(-y / 2) * s

        second = (q(x + h) - 2 * q(x) + q(x - h)) / (h * h)
        resid = second - 2 * q(x) ** 3 - x * q(x)
        a_next = painleve2.hm_left_series_coefficients(order + 1)[order + 1]
        defect = (4 * (-x / 2) ** mpf("1.5")
                  * abs(mpf(a_next.numerator) / a_next.denominator)
                  * abs(x) ** (-3 * (order + 1)))
        assert abs(resid) < 5 * defect
        assert abs(resid) > defect / 5  # the scale itself is right

    def test_q_left_asymptotic_examples(self, wp300):
        assert painleve2.q_left_asymptotic(-8, 0) == 2
        v = painleve2.q_left_asymptotic(-8, 1)
        assert abs(v - 2 * (1 - mpf(1) / 4096)) < mpf(10) ** -70

    def test_q_left_asymptotic_domain(self):
        with pytest.raises(DomainError):
            painleve2.q_left_asymptotic(-1, 0)
        with pytest.raises(UnsupportedOrderError):
            painleve2.q_left_asymptotic(-8, 4)

    def test_r_left_asymptotic_examples(self, wp300):
        assert painleve2.r_left_asymptotic(-4, 0) == 4
        v = painleve2.r_left_asymptotic(-4, 1)
        assert abs(v - 4 * (1 + mpf(1) / 128)) < mpf(10) ** -70

    def test_r_left_asymptotic_order_cap(self):
        with pytest.raises(UnsupportedOrderError):
            painleve2.r_left_asymptotic(-4, 3)


class TestSolver:
    def test_residual_large_grid(self):
        # mandated configuration: 2000 nodes on [-12, 8] at 256 bits
        ctx = PrecisionContext(256, 1e-20)
        sol = painleve2.solve_hastings_mcleod(-12, 8, 2000, ctx)
        assert sol.residual_norm < mpf(10) ** -12

    def test_right_boundary_matches_airy(self, hm_solution, ctx256, wp300):
        ai, _ = specialfn.airy_ai(8, ctx256)
        assert abs(hm_solution.q_at(8) / ai - 1) < mpf(10) ** -8

    def test_left_value_against_series(self, hm_solution, wp300):
        # partial sums sit within a few times the first omitted term; with
        # all corrections of one sign they do not bracket, so the envelope is
        # the meaningful assertion
        a = painleve2.hm_left_series_coefficients(4)
        x = mpf(-10)
        q_ref = hm_solution.q_at(x)
        for order in (0, 1, 2, 3):
            approx = painleve2.q_left_asymptotic(x, order)
            nxt = abs(mpf(a[order + 1].numerator) / a[order + 1].denominator
                      * x ** (-3 * (order + 1))) * mp.sqrt(-x / 2)
            assert abs(approx - q_ref) < 5 * nxt

    def test_known_value_at_origin(self, hm_solution, wp300):
        assert abs(hm_solution.q_at(0) - mpf("0.36706155154807841")) < mpf(10) ** -15

    def test_positivity_and_right_tail_monotone(self, hm_solution):
        assert all(v > 0 for v in hm_solution.q_values)
        with mp.workprec(280):
            xs = [x for x in hm_solution.grid if x >= 2]
            qs = [hm_solution.q_at(x) for x in xs]
            assert all(a > b for a, b in zip(qs, qs[1:]))

    def test_r_nonnegative_nonincreasing(self, hm_solution):
        rv = hm_solution.r_values
        assert all(v >= 0 for v in rv)
        assert all(a >= b for a, b in zip(rv, rv[1:]))

    def test_collocation_residual_reported(self, hm_solution):
        assert hm_solution.residual_norm < mpf(10) ** -12

    def test_rejects_bad_window(self, ctx256):
        with pytest.raises(DomainError):
            painleve2.solve_hastings_mcleod(-4, 8, 500, ctx256)
        with pytest.raises(DomainError):
            painleve2.solve_hastings_mcleod(-12, 4, 500, ctx256)
        with pytest.raises(DomainError):
            painleve2.solve_hastings_mcleod(-12, 8, 100, ctx256)


class TestRRoutes:
    def test_local_formula_derivative_is_minus_q_squared(self, hm_solution):
        # d/dx [(q')^2 - x q^2 - q^4] = -q^2 via the ODE
        rng = random.Random(1123)
        h = mpf(10) ** -6
        with mp.workprec(280):
            for _ in range(20):
                x = mpf(rng.uniform(-11.5, 7.5))
                d = (painleve2.r_of(hm_solution, x + h)
                     - painleve2.r_of(hm_solution, x - h)) / (2 * h)
                q = hm_solution.q_at(x)
                assert abs(d + q * q) < mpf(10) ** -10

    def test_left_series_value(self, hm_solution, wp300):
        # R(-8)/16 = 1 - 1/(2(-8)^3) + 9/(16*8^6) within a few times the
        # next-order term
        x = mpf(-8)
        r = painleve2.r_of(hm_solution, x)
        series = painleve2.r_left_asymptotic(x, 2)
        rho3 = painleve2.r_left_series_coefficients(3)[3]
        nxt = abs(mpf(rho3.numerator) / rho3.denominator) * abs(x) ** -7
        assert abs(r - series) < 5 * nxt

    def test_right_matches_airy_integral(self, hm_solution, ctx256, wp300):
        # R(6) ~ int_6^inf Ai^2 in the matching regime
        r = painleve2.r_of(hm_solution, 6)
        oracle = integrate_gl(lambda s: mp.airyai(s) ** 2, 6, 24, 64, 300)
        assert abs(r - oracle) / oracle < mpf(10) ** -4

    def test_two_route_agreement(self, hm_solution, ctx256):
        with mp.workprec(280):
            for x in (-11, -8, -4.5, -1, 0, 2.5, 6, 7.5):
                local = painleve2.r_of(hm_solution, x)
                quad = painleve2.r_quadrature_route(hm_solution, x, ctx256)
                assert abs(local - quad) < 10 * mpf(ctx256.tolerance)

    def test_r_x9_scale_empirically(self, hm_solution, wp300):
        # fitted coefficient of the x^-9 defect of the order-2 series is O(1)
        x = mpf(-10)
        gap = abs(painleve2.r_of(hm_solution, x)
                  - painleve2.r_left_asymptotic(x, 2))
        c = gap / (x * x / 4 * abs(x) ** -9)
        assert mpf("0.5") < c < 30

    def test_domain_check(self, hm_solution):
        with pytest.raises(DomainError):
            painleve2.r_of(hm_solution, 9)
        with pytest.raises(DomainError):
            hm_solution.q_at(-13)


class TestSpectralIntegration:
    @staticmethod
    def _gauss_legendre(sol, f, a, b):
        """Gauss-Legendre with p+12 points on each element piece of [a, b]."""
        a, b = mpf(a), mpf(b)
        cuts = [a] + [e for e in sol._edges if a < e < b] + [b]
        xs, ws = gauss_legendre(sol.p + 12, 300)
        total = mpf(0)
        for lo, hi in zip(cuts, cuts[1:]):
            half, mid = (hi - lo) / 2, (hi + lo) / 2
            total += half * mp.fsum(w * f(mid + half * t) for t, w in zip(xs, ws))
        return total

    def test_matches_per_element_gauss_legendre(self, hm_solution, ctx256, wp300):
        sol = hm_solution
        r = lambda y: painleve2.r_of(sol, y)
        integrands = {
            "q": sol.q_at,
            "r": r,
            "q_reg": lambda y: sol.q_at(y) - mp.sqrt(-y / 2),
            "r_reg": lambda y: r(y) - y * y / 4,
        }
        # one element exactly, [-3.30, -2.87]
        element = (sol._edges[20], sol._edges[21])
        right = [(-11.3, 7.77), (0.1, 0.2), element]
        left = [(-11.3, -1.9), (-9.95, -9.7), element]
        for kind, f in integrands.items():
            for a, b in (left if kind.endswith("_reg") else right):
                got = painleve2.integrate_kind(sol, kind, a, b, ctx256)
                assert abs(got - self._gauss_legendre(sol, f, a, b)) < mpf(10) ** -30

    def test_regularized_kinds_stop_at_zero(self, hm_solution, ctx256):
        for kind in ("q_reg", "r_reg"):
            painleve2.integrate_kind(hm_solution, kind, -2, 0, ctx256)
            with pytest.raises(DomainError):
                painleve2.integrate_kind(hm_solution, kind, -2, 1, ctx256)


class TestStability:
    def test_grid_refinement_convergence(self):
        ctx = PrecisionContext(192, 1e-18)
        a = painleve2.solve_hastings_mcleod(-10, 7, 400, ctx)
        b = painleve2.solve_hastings_mcleod(-10, 7, 800, ctx)
        with mp.workprec(220):
            for x in (-9, -4, 0, 3, 6.5):
                assert abs(a.q_at(x) - b.q_at(x)) < mpf(10) ** -18

    def test_boundary_shift_stability(self, hm_solution, ctx256):
        wide = painleve2.solve_hastings_mcleod(-12, 10, 1200, ctx256)
        with mp.workprec(280):
            assert abs(wide.q_at(0) - hm_solution.q_at(0)) < mpf(10) ** -10


class TestSerialization:
    def test_round_trip_bit_identical(self, hm_solution):
        doc = hm_solution.to_json()
        back = painleve2.HMSolution.from_json(doc)
        assert back.grid == hm_solution.grid
        assert back.q_values == hm_solution.q_values
        assert back.q_prime_values == hm_solution.q_prime_values
        assert back.r_values == hm_solution.r_values
        with mp.workprec(280):
            for x in (-7.3, 0.1, 5.9):
                assert back.q_at(x) == hm_solution.q_at(x)

    def test_schema_version_guard(self, hm_solution):
        doc = hm_solution.to_json_dict()
        doc["schema_version"] = 999
        with pytest.raises(ValueError):
            painleve2.HMSolution.from_json_dict(doc)


class TestTailIntegrals:
    def test_left_tail_error_estimates(self, wp300):
        # the advertised error bound must dominate the truncation defect:
        # compare against integrating the series one window further out
        val12, err12 = painleve2.left_tail_r_regularized(-12)
        val16, err16 = painleve2.left_tail_r_regularized(-16)
        assert err16 < err12
        q12, eq12 = painleve2.left_tail_q_regularized(-12)
        assert eq12 < mpf(10) ** -13
        assert err12 < mpf(10) ** -13
