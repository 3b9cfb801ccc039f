"""Hastings-McLeod solver and its asymptotic series."""

import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from twlab import fixedpoint, painleve2, specialfn
from twlab.errors import DomainError, SolverError
from twlab.precision import PrecisionContext
from twlab.quadrature import gauss_legendre


def _partial_sum(coeffs, x, order):
    """sum_{m <= order} coeffs[m] x^(-3m), the bracket of both left series."""
    s = mpf(0)
    for m in range(order, -1, -1):
        s = s / x ** 3 + mpf(coeffs[m].numerator) / coeffs[m].denominator
    return s


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


def _mpf_dct(sol, kind, bits):
    """Per element, the Chebyshev coefficients of ``kind`` from an mpf DCT-I
    of its nodal values (formed at bits + 16, as the library forms them):
    the DCT matrix and each coefficient (one mp.fdot) at 2 bits, so the
    coefficients are those of the exact interpolant to well past the
    library's accuracy."""
    p = sol.p
    with mp.workprec(bits + 16):
        values = [painleve2._nodal_values(sol, kind, e) for e in range(len(sol._elem_q))]
    with mp.workprec(2 * bits):
        cosines = [mp.cospi(mpf(m) / p) for m in range(2 * p)]
        half = [mpf(1) / 2 if j in (0, p) else mpf(1) for j in range(p + 1)]
        dct = [[(-1) ** n * half[n] * half[j] * 2 / p * cosines[n * j % (2 * p)]
                for j in range(p + 1)] for n in range(p + 1)]
        return [[mp.fdot(d, f) for d in dct] for f in values]


class TestLeftSeries:
    def test_q_coefficients_low_orders(self):
        a = painleve2.hm_left_series_coefficients(2)
        assert a == (Fraction(1), Fraction(1, 8), Fraction(-73, 128))

    def test_r_coefficients_low_orders(self):
        rho = painleve2.r_left_series_coefficients(4)
        assert rho == (Fraction(1, 4), Fraction(-1, 8), Fraction(9, 64),
                       Fraction(-189, 128), Fraction(21663, 512))

    def test_series_satisfies_ode(self, wp300):
        # the truncated expansion must kill q'' - 2q^3 - xq through its
        # order; the leftover is ~ 4 (-x/2)^(3/2) |a_{order+1}| x^(-3(order+1))
        x = mpf(-30)
        h = mpf(10) ** -9
        order = 5

        def q(y):
            a = painleve2.hm_left_series_coefficients(order)
            return mp.sqrt(-y / 2) * _partial_sum(a, y, order)

        second = (q(x + h) - 2 * q(x) + q(x - h)) / (h * h)
        resid = second - 2 * q(x) ** 3 - x * q(x)
        a_next = painleve2.hm_left_series_coefficients(order + 1)[order + 1]
        defect = (4 * (-x / 2) ** mpf("1.5")
                  * abs(mpf(a_next.numerator) / a_next.denominator)
                  * abs(x) ** (-3 * (order + 1)))
        assert abs(resid) < 5 * defect
        assert abs(resid) > defect / 5  # the scale itself is right


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
            approx = mp.sqrt(-x / 2) * _partial_sum(a, x, order)
            nxt = abs(mpf(a[order + 1].numerator) / a[order + 1].denominator
                      * x ** (-3 * (order + 1))) * mp.sqrt(-x / 2)
            assert abs(approx - q_ref) < 5 * nxt

    def test_known_value_at_origin(self, hm_solution, wp300):
        assert abs(hm_solution.q_at(0) - mpf("0.36706155154807841")) < mpf(10) ** -15

    @staticmethod
    def _joined(rows):
        """Per-element nodal rows as one list along x; each interface node
        is kept once, from the element on its left."""
        return [v for e, row in enumerate(rows) for v in (row[1:] if e else row)]

    def test_positivity_and_right_tail_monotone(self, hm_solution):
        sol = hm_solution
        assert all(v > 0 for row in sol._elem_q for v in row)
        with mp.workprec(280):
            xs = self._joined([sol._elem_nodes(e) for e in range(len(sol._elem_q))])
            qs = self._joined(sol._elem_q)
            tail = [q for x, q in zip(xs, qs) if x >= 2]
            assert all(a > b for a, b in zip(tail, tail[1:]))

    def test_r_nonnegative_nonincreasing(self, hm_solution):
        with mp.workprec(280):
            rv = self._joined([painleve2._nodal_values(hm_solution, "r", e)
                               for e in range(len(hm_solution._elem_q))])
        assert all(v >= 0 for v in rv)
        assert all(a >= b for a, b in zip(rv, rv[1:]))

    def test_collocation_residual_reported(self, hm_solution):
        assert hm_solution.residual_norm < mpf(10) ** -12

    # q and q' of the [-12, 8]/1100-node 256-bit solve made by the earlier
    # solver (mp Newton with an mp block LU), to 70 digits
    PINNED = {
        "-11.5": ("2.39771807956065414239856596490230740071628317330416778647444747353892354",
                  "-0.104300339492820311929241519075231514942625802608069441895665181044517618"),
        "-6": ("1.73102495883177869643975004600875241445098823670090984524998718702175885",
               "-0.144778284257288586988314765140874384885746292339196540625041150997109008"),
        "0": ("0.367061551548078427747792113174595460864252068998544816867224991973173175",
              "-0.295372105447550054557007047311358515806392553607941139190793186757264469"),
        "3": ("0.00659115940491975949611137339097317121341642186124441067283545048293350152",
              "-0.0119130906495437621735409939414537604576257072804044805156650118777771904"),
        "7.5": ("1.91725606751343297561221677383479685647313414593152842664355552443843672e-7",
                "-5.31271395972056353448577195888225929814787689128428053181752899346220075e-7"),
    }

    def test_matches_pinned_solution(self, hm_solution, wp300):
        for x, (q, qp) in self.PINNED.items():
            assert abs(hm_solution.q_at(mpf(x)) - mpf(q)) < mpf(10) ** -60
            assert abs(hm_solution.q_prime_at(mpf(x)) - mpf(qp)) < mpf(10) ** -60

    def test_converges_at_1024_bits(self):
        # the residual (~1e-322 here) is far below the float64 range, so the
        # refinement must scale it before rounding to float64
        ctx = PrecisionContext(1024, 1e-20)
        sol = painleve2.solve_hastings_mcleod(-8, 6, 400, ctx)
        assert sol.residual_norm <= mpf(2) ** -(1024 + 64 - 24)
        with mp.workprec(1100):
            assert abs(sol.q_at(0) - mpf("0.36706155154807841")) < mpf(10) ** -15

    def test_fixed_point_residual_matches_double_precision(self):
        # the converged default mesh: the integer residual against an mp
        # residual of the same u at twice the working precision, with
        # D2 = D1 D1 formed here from the mp D1
        prec = 256 + 64
        with mp.workprec(prec):
            mesh = painleve2._Mesh(mpf(-12), mpf(8), 46, painleve2._ELEMENT_DEGREE)
            bc_l = painleve2.q_left_boundary_value(mesh.edges[0])[0]
            bc_r = specialfn.airy_ai(mesh.edges[-1], PrecisionContext(prec))[0]
            u64 = painleve2._warm_start(mesh, float(bc_l), float(bc_r))
            u, res = painleve2._refine(mesh, u64, bc_l, bc_r,
                                       stop=mpf(2) ** -(prec - 24))
        p, f = mesh.p, mesh.frac
        u = [[fixedpoint.from_grid(v, f) for v in row] for row in u]
        res = [[fixedpoint.from_grid(v, f) for v in row] for row in res]
        with mp.workprec(2 * prec):
            d2 = [[mp.fdot(row, col) for col in zip(*mesh.d1)] for row in mesh.d1]
            for e, (ue, re) in enumerate(zip(u, res)):
                h = mesh.h[e]
                ref = [ue[0] - bc_l if e == 0 else u[e - 1][p] - ue[0]]
                ref += [4 / (h * h) * mp.fdot(d2[i], ue)
                        - (2 * ue[i] ** 2 + mesh.nodes[e][i]) * ue[i]
                        for i in range(1, p)]
                ref.append(ue[p] - bc_r if e == mesh.k - 1 else
                           2 / h * mp.fdot(mesh.d1[p], ue)
                           - 2 / mesh.h[e + 1] * mp.fdot(mesh.d1[0], u[e + 1]))
                for got, want in zip(re, ref):
                    assert abs(got - want) <= mpf(2) ** -(prec + 8)

    def test_fine_mesh_converges(self):
        # elements of width 0.058: a row of 4/h^2 D2 sums to about 2^27, so
        # u rounded to the working precision would hold the residual above
        # the stop; on the grid 48 bits finer it does not
        ctx = PrecisionContext(64, 1e-12)
        sol = painleve2.solve_hastings_mcleod(-6, 6, 5000, ctx)
        assert sol.residual_norm <= mpf(2) ** -(64 + 64 - 24)

    def test_refinement_that_does_not_contract_raises(self, monkeypatch):
        # refine with the Jacobian of a shifted state instead of the warm start's
        warm_start, factor = painleve2._warm_start, painleve2._factor64

        def shifted_warm_start(*args):
            u = warm_start(*args)
            monkeypatch.setattr(painleve2, "_factor64",
                                lambda mesh, v: factor(mesh, v + 0.5))
            return u

        monkeypatch.setattr(painleve2, "_warm_start", shifted_warm_start)
        with pytest.raises(SolverError) as info:
            painleve2.solve_hastings_mcleod(-8, 6, 200, PrecisionContext(64, 1e-12))
        assert info.value.residual > 0

    def test_independent_of_tolerance(self):
        # Ai(10) at the right boundary is summed to the working precision,
        # so the tolerance, which the CLI cache key leaves out, cannot
        # change the solution
        loose, tight = (
            painleve2.solve_hastings_mcleod(-12, 10, 500, PrecisionContext(192, tol))
            for tol in (1e-10, 1e-30))
        assert loose.to_json() == tight.to_json()

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
        rho = painleve2.r_left_series_coefficients(3)
        series = x * x * _partial_sum(rho, x, 2)
        rho3 = rho[3]
        nxt = abs(mpf(rho3.numerator) / rho3.denominator) * abs(x) ** -7
        assert abs(r - series) < 5 * nxt

    def test_right_matches_airy_integral(self, hm_solution, ctx256, wp300):
        # R(6) ~ int_6^inf Ai^2 in the matching regime
        r = painleve2.r_of(hm_solution, 6)
        with mp.workdps(20):
            oracle = mp.quad(lambda s: mp.airyai(s) ** 2, [6, 12, 24])
        assert abs(r - oracle) / oracle < mpf(10) ** -4

    def test_two_route_agreement(self, hm_solution, ctx256):
        # R(x) = int_x^inf q^2: the integral of q^2 up to x_right plus the
        # closed-form Airy tail (q ~ Ai there, and int_s^inf Ai^2 has the
        # antiderivative Ai'(s)^2 - s Ai(s)^2)
        sol = hm_solution
        edges = sol._edges
        ai, aip = specialfn.airy_ai(sol.x_right, ctx256)
        q2 = lambda y: sol.q_at(y) ** 2
        with mp.workprec(280):
            tail = aip * aip - sol.x_right * ai * ai
            # int q^2 over every whole element, shared by all the x below
            whole = [_gauss_legendre(sol, q2, lo, hi)
                     for lo, hi in zip(edges, edges[1:])]
            for x in (-11, -8, -4.5, -1, 0, 2.5, 6, 7.5):
                local = painleve2.r_of(sol, x)
                e, _ = sol._position(mpf(x), sol.precision_bits)
                quad = (_gauss_legendre(sol, q2, x, edges[e + 1])
                        + mp.fsum(whole[e + 1:]) + tail)
                assert abs(local - quad) < 10 * mpf(ctx256.tolerance)

    def test_r_x9_scale_empirically(self, hm_solution, wp300):
        # fitted coefficient of the x^-9 defect of the order-2 series is O(1)
        x = mpf(-10)
        rho = painleve2.r_left_series_coefficients(2)
        gap = abs(painleve2.r_of(hm_solution, x) - x * x * _partial_sum(rho, x, 2))
        c = gap / (x * x / 4 * abs(x) ** -9)
        assert mpf("0.5") < c < 30

    def test_domain_check(self, hm_solution):
        with pytest.raises(DomainError):
            painleve2.r_of(hm_solution, 9)
        with pytest.raises(DomainError):
            hm_solution.q_at(-13)

    def test_nan_is_outside_the_window(self, hm_solution, ctx256):
        with pytest.raises(DomainError):
            hm_solution.q_at(mp.nan)
        with pytest.raises(DomainError):
            hm_solution.q_prime_at(mp.nan)
        for a, b in ((mp.nan, 0), (-2, mp.nan)):
            with pytest.raises(DomainError):
                painleve2.integrate_kind(hm_solution, "q", a, b, ctx256)


class TestSpectralIntegration:
    def test_point_values_reproduce_interior_nodes(self, hm_solution):
        # q_at and q_prime_at sum the DCT rows of every element, so at the
        # interior Lobatto nodes they must give back the stored values
        sol = hm_solution
        bound = mpf(2) ** -(sol.precision_bits - 8)
        with mp.workprec(sol.precision_bits + 16):
            for e in range(len(sol._elem_q)):
                xs = sol._elem_nodes(e)
                for j in range(1, sol.p):
                    assert abs(sol.q_at(xs[j]) / sol._elem_q[e][j] - 1) < bound
                    assert abs(sol.q_prime_at(xs[j]) / sol._elem_qp[e][j] - 1) < bound

    def test_fresh_solution_builds_one_table_per_integrand(
            self, hm_solution, ctx256, monkeypatch):
        # point values and integrals of q read the same table
        built = []
        build = painleve2._build_table

        def counting(solution, kind, bits):
            built.append(kind)
            return build(solution, kind, bits)

        monkeypatch.setattr(painleve2, "_build_table", counting)
        sol = painleve2.HMSolution.from_json(hm_solution.to_json())
        assert ctx256.precision_bits == sol.precision_bits
        sol.q_at(-3)
        sol.q_prime_at(-3)
        sol.q_at(2)
        painleve2.integrate_kind(sol, "q", -3, 2, ctx256)
        painleve2.integrate_kind(sol, "q_reg", -3, -1, ctx256)
        assert sorted(built) == ["q", "qp"]

    def test_reads_match_a_double_precision_clenshaw(self, hm_solution):
        # each row is summed on its own grid, so q and q' keep their
        # relative accuracy where they are small: one grid for all rows
        # loses it near x = 8, where q is about 1e-7.  The reads carry
        # about 2^-282 here; the bound leaves 6 bits of that, and fails a
        # DCT matrix computed at only bits + 16 (2^-270) as well as a
        # global grid that does not pay some 25 bits more per integer
        sol = hm_solution
        bits = sol.precision_bits
        span = sol.x_right - sol.x_left
        xs = ([6 + mpf(2) * i / 97 for i in range(97)]
              + [sol.x_left + span * i / 401 for i in range(402)])
        for kind, read in (("q", sol.q_at), ("qp", sol.q_prime_at)):
            table = _mpf_dct(sol, kind, bits)
            with mp.workprec(2 * bits):
                for x in xs:
                    e, _ = sol._position(x, bits)
                    a, b = sol._edges[e], sol._edges[e + 1]
                    t = (2 * x - a - b) / (b - a)
                    b1 = b2 = mpf(0)
                    for c in reversed(table[e][1:]):
                        b1, b2 = 2 * t * b1 - b2 + c, b1
                    want = t * b1 - b2 + table[e][0]
                    assert abs(read(x) / want - 1) <= mpf(2) ** -(bits + 20)

    def test_integer_dct_matches_mpf_fdot(self, hm_solution):
        # the integer DCT, exact and then truncated to its row's grid,
        # against the mpf one
        sol = hm_solution
        bits = sol.precision_bits
        for kind in ("q", "qp", "r"):
            rows = painleve2._table(sol, kind, bits)[0]
            for (frac, row), want in zip(rows, _mpf_dct(sol, kind, bits)):
                got = [fixedpoint.from_grid(c, frac) for c in row]
                bound = max(abs(c) for c in want) * mpf(2) ** -(bits + 16)
                assert max(abs(a - b) for a, b in zip(got, want)) <= bound

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
                assert abs(got - _gauss_legendre(sol, f, a, b)) < mpf(10) ** -30

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
        assert back.to_json() == doc
        with mp.workprec(280):
            for x in (-7.3, 0.1, 5.9):
                assert back.q_at(x) == hm_solution.q_at(x)

    def test_row_of_the_wrong_length_is_rejected(self, hm_solution):
        for name in ("elem_q", "elem_qp"):
            doc = hm_solution.to_json_dict()
            doc[name][23] = doc[name][23][:-1]
            with pytest.raises(ValueError):
                painleve2.HMSolution.from_json_dict(doc)

    def test_edges_that_do_not_fit_are_rejected(self, hm_solution):
        for name in ("edges", "elem_q", "elem_qp"):
            doc = hm_solution.to_json_dict()
            doc[name] = doc[name][:-1]
            with pytest.raises(ValueError):
                painleve2.HMSolution.from_json_dict(doc)

    def test_value_of_the_wrong_type_is_rejected(self, hm_solution):
        for name, value in (("edges", None), ("x_left", 3), ("ref", [[0, 1, 2, 3]]),
                            ("precision_bits", "256")):
            doc = hm_solution.to_json_dict()
            doc[name] = value
            with pytest.raises(ValueError):
                painleve2.HMSolution.from_json_dict(doc)

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
