"""Hastings-McLeod solver and its asymptotic series."""

import collections
import gc
import hashlib
import json
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from mpmath import ctx_mp_python, mp, mpf

from twlab import fixedpoint, painleve2, specialfn, twdist
from twlab.errors import DomainError, SolverError
from twlab.precision import REPORT_GUARD, PrecisionContext
from twlab.quadrature import gauss_legendre


def _partial_sum(coeffs, x, order):
    """sum_{m <= order} coeffs[m] x^(-3m), the bracket of both left series."""
    s = mpf(0)
    for m in range(order, -1, -1):
        s = s / x ** 3 + mpf(coeffs[m].numerator) / coeffs[m].denominator
    return s


def _hm_left_series(order):
    """a_0..a_order of q(x) = sqrt(-x/2) * sum a_k x^(-3k), exactly, from
    the integer recursion of painleve2._left_series."""
    return tuple(Fraction(a, 16 ** k)
                 for k, (a, _) in zip(range(order + 1), painleve2._left_series()))


def _cubic_left_series(order):
    """a_0..a_order from the recursion as the painleve2 docstring first
    states it, T_m as the triple sum over i + j + k = m with every index
    below m: O(m^3) Fraction products, the reference for the integer
    recursion."""
    a = [Fraction(1)]
    for m in range(1, order + 1):
        cm = Fraction(1, 4) - 9 * (m - 1) ** 2
        tm = Fraction(0)
        for i in range(m):
            for j in range(m - i + 1):
                k = m - i - j
                if j < m and k < m:
                    tm += a[i] * a[j] * a[k]
        a.append((cm * a[m - 1] - tm) / 2)
    return a


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


def _elem_nodes(sol, e):
    """Element e's Lobatto nodes in x, at the working precision."""
    a, b = sol._edges[e], sol._edges[e + 1]
    return [(a + b) / 2 + (b - a) / 2 * t for t in sol._ref]


def _nodal_values(sol, kind, e):
    """Element e's nodal values of q, q' or R (``kind`` "q", "qp", "r"), R
    formed in mpf at the working precision."""
    q, qp = sol._elem_q[e], sol._elem_qp[e]
    if kind == "q":
        return q
    if kind == "qp":
        return qp
    return [d * d - x * v * v - v ** 4 for x, v, d in zip(_elem_nodes(sol, e), q, qp)]


def _full_dct_on_grid(p, bits):
    """Every column of the integer DCT-I matrix, each entry formed and
    truncated onto the grid as painleve2._dct_on_grid forms its columns."""
    frac = bits + painleve2._READ_GUARD
    with mp.workprec(frac + 16):
        cosines = [mp.cospi(mpf(m) / p) for m in range(2 * p)]
        half = [mpf(1) / 2 if j in (0, p) else mpf(1) for j in range(p + 1)]
        return [[fixedpoint.to_grid((-1) ** n * half[n] * half[j] * 2 / p
                                    * cosines[n * j % (2 * p)], frac)
                 for j in range(p + 1)] for n in range(p + 1)]


def _mpf_dct(sol, kind, bits):
    """Per element, the Chebyshev coefficients of ``kind`` from an mpf DCT-I
    of its nodal values: the values (R formed from the stored q and q'), the
    DCT matrix and each coefficient (one mp.fdot) at 2 bits, so the
    coefficients are those of the exact interpolant to well past the
    library's accuracy."""
    p = sol.p
    with mp.workprec(2 * bits):
        values = [_nodal_values(sol, kind, e) for e in range(len(sol._elem_q))]
        cosines = [mp.cospi(mpf(m) / p) for m in range(2 * p)]
        half = [mpf(1) / 2 if j in (0, p) else mpf(1) for j in range(p + 1)]
        dct = [[(-1) ** n * half[n] * half[j] * 2 / p * cosines[n * j % (2 * p)]
                for j in range(p + 1)] for n in range(p + 1)]
        return [[mp.fdot(d, f) for d in dct] for f in values]


class TestLeftSeries:
    def test_q_coefficients_low_orders(self):
        a = _hm_left_series(2)
        assert a == (Fraction(1), Fraction(1, 8), Fraction(-73, 128))

    def test_r_coefficients_low_orders(self):
        rho = painleve2.r_left_series_coefficients(4)
        assert rho == (Fraction(1, 4), Fraction(-1, 8), Fraction(9, 64),
                       Fraction(-189, 128), Fraction(21663, 512))

    def test_integer_recursion_matches_the_cubic_one(self):
        # a_k, and rho_m = (P^2)_m / (2 (2 - 3m)) from the same a_k
        order = 30
        a = _cubic_left_series(order)
        rho = [sum(a[i] * a[m - i] for i in range(m + 1)) / (2 * (2 - 3 * m))
               for m in range(order + 1)]
        assert _hm_left_series(order) == tuple(a)
        assert painleve2.r_left_series_coefficients(order) == tuple(rho)

    def test_boundary_value_stops_at_the_precision_floor(self):
        # the least term at x = -40 is about 4e-107 relative, so at 256 bits
        # the sum stops at the first term below 2^-256 of it, and agrees
        # with a 600-bit sum to that
        with mp.workprec(256):
            q, err = painleve2.q_left_boundary_value(-40)
            assert 0 < err <= mpf(2) ** -256 * q
        with mp.workprec(600):
            exact, _ = painleve2.q_left_boundary_value(-40)
            assert abs(q - exact) <= mpf(2) ** -254 * q

    def test_series_satisfies_ode(self, wp300):
        # the truncated expansion must kill q'' - 2q^3 - xq through its
        # order; the leftover is ~ 4 (-x/2)^(3/2) |a_{order+1}| x^(-3(order+1))
        x = mpf(-30)
        h = mpf(10) ** -9
        order = 5

        def q(y):
            a = _hm_left_series(order)
            return mp.sqrt(-y / 2) * _partial_sum(a, y, order)

        second = (q(x + h) - 2 * q(x) + q(x - h)) / (h * h)
        resid = second - 2 * q(x) ** 3 - x * q(x)
        a_next = _hm_left_series(order + 1)[order + 1]
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
        ai, _ = specialfn.airy_ai(8, ctx256.precision_bits)
        assert abs(hm_solution.q_at(8) / ai - 1) < mpf(10) ** -8

    def test_left_value_against_series(self, hm_solution, wp300):
        # partial sums sit within a few times the first omitted term; with
        # all corrections of one sign they do not bracket, so the envelope is
        # the meaningful assertion
        a = _hm_left_series(4)
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
            xs = self._joined([_elem_nodes(sol, e) for e in range(len(sol._elem_q))])
            qs = self._joined(sol._elem_q)
            tail = [q for x, q in zip(xs, qs) if x >= 2]
            assert all(a > b for a, b in zip(tail, tail[1:]))

    def test_r_nonnegative_nonincreasing(self, hm_solution):
        with mp.workprec(280):
            rv = self._joined([_nodal_values(hm_solution, "r", e)
                               for e in range(len(hm_solution._elem_q))])
        assert all(v >= 0 for v in rv)
        assert all(a >= b for a, b in zip(rv, rv[1:]))

    def test_collocation_residual_reported(self, hm_solution):
        assert hm_solution.residual_norm < mpf(10) ** -12

    # q and q' of the [-12, 8]/1100-node 256-bit solve, to 70 digits, with
    # the left boundary value summed to its least term.  They record that
    # solution, not the true q: at -11.5 it is good to about 1e-20 (the
    # boundary error), far from the 1e-60 the comparison asks
    PINNED = {
        "-11.5": ("2.39771807956065406836596173847834736509118671081519756276262791705779241",
                  "-0.104300339492819958554663224666658341976187656062374562684514461778526089"),
        "-6": ("1.73102495883177869643975003613305731105997081536855222676700218688705521",
               "-0.144778284257288586988314731388301947697683048553074484602232984278023346"),
        "0": ("0.367061551548078427747792113174578434635960942684505976602052449464607143",
              "-0.295372105447550054557007047311342332240402276853188519527534311117168111"),
        "3": ("0.00659115940491975949611137339097288484721955733244904907133188959503131694",
              "-0.0119130906495437621735409939414532428626534583255420726600328304368788558"),
        "7.5": ("1.91725606751343297561221677383471871110128065108239341486241593467079903e-7",
                "-5.31271395972056353448577195888201454287835902651273733618664849509666196e-7"),
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
        # residual of the same u at twice the working precision, with the
        # nodes, h and D1 read exactly from the grid and D2 = D1 D1 formed
        # here from them
        prec = 256 + 64
        with mp.workprec(prec):
            mesh = painleve2._Mesh(mpf(-12), mpf(8), 46, painleve2._ELEMENT_DEGREE)
            bc_l = painleve2.q_left_boundary_value(mesh.edges[0])[0]
            bc_r = specialfn.airy_ai(mesh.edges[-1], prec)[0]
            u64, fac = painleve2._warm_start(mesh, float(bc_l), float(bc_r))
            u, res = painleve2._refine(mesh, u64, fac, bc_l, bc_r,
                                       stop=mpf(2) ** -(prec - 24))
        p, f = mesh.p, mesh.frac

        def exact(rows):
            return [[fixedpoint.from_grid(v, f) for v in row] for row in rows]

        u, res, nodes, d1 = (exact(rows) for rows in
                             (u, res, mesh.nodes_fixed, mesh.d1_fixed))
        hs = exact([mesh.h_fixed])[0]
        with mp.workprec(2 * prec):
            d2 = [[mp.fdot(row, col) for col in zip(*d1)] for row in d1]
            for e, (ue, re) in enumerate(zip(u, res)):
                h = hs[e]
                ref = [ue[0] - bc_l if e == 0 else u[e - 1][p] - ue[0]]
                ref += [4 / (h * h) * mp.fdot(d2[i], ue)
                        - (2 * ue[i] ** 2 + nodes[e][i]) * ue[i]
                        for i in range(1, p)]
                ref.append(ue[p] - bc_r if e == mesh.k - 1 else
                           2 / h * mp.fdot(d1[p], ue)
                           - 2 / hs[e + 1] * mp.fdot(d1[0], u[e + 1]))
                for got, want in zip(re, ref):
                    assert abs(got - want) <= mpf(2) ** -(prec + 8)

    def test_updated_dots_equal_recomputed_dots(self, monkeypatch):
        # the refinement builds D u from the steps alone (u0 = 0 - (-u64),
        # then minus each sweep's step); every residual must see exactly the
        # plain dots of its u
        residual = painleve2._ode_residual
        sweeps = []

        def checked(mesh, u, dots, bc_l, bc_r):
            p = mesh.p
            rows = [mesh.d1_fixed[0]] + mesh.d2_fixed[1:p] + [mesh.d1_fixed[p]]
            assert dots == [[fixedpoint.dot(row, ue) for row in rows] for ue in u]
            sweeps.append(1)
            return residual(mesh, u, dots, bc_l, bc_r)

        monkeypatch.setattr(painleve2, "_ode_residual", checked)
        painleve2.solve_hastings_mcleod(-8, 6, 200, PrecisionContext(192, 1e-12))
        assert len(sweeps) >= 3

    def test_default_solution_is_pinned(self, hm_solution):
        # SHA-256 of the stored arrays of the default solve: a change to the
        # solver that moves one bit of q, q', the edges or the reference
        # nodes must update this pin and SOLVER_VERSION together
        doc = hm_solution.to_json_dict()
        arrays = json.dumps([doc[k] for k in ("elem_q", "elem_qp", "edges", "ref")])
        assert hashlib.sha256(arrays.encode()).hexdigest() == (
            "6c9e8a06985979082f2a1bb409c6861b0fa832266917e6c94311ef0cc1bdc222")

    def test_default_solve_takes_seven_sweeps(self, monkeypatch):
        residual = painleve2._ode_residual
        calls = []

        def counted(*args):
            calls.append(1)
            return residual(*args)

        monkeypatch.setattr(painleve2, "_ode_residual", counted)
        painleve2.solve_hastings_mcleod(ctx=PrecisionContext(256, 1e-12))
        assert len(calls) == 1 + 7

    def test_mpf_conversions_do_not_grow_per_node(self, monkeypatch):
        # mpf -> grid conversions in _Mesh and _refine: the edges (k + 1)
        # and the k-independent reference nodes, D1 and boundary values;
        # doubling k at fixed p adds at most k + 1, so no per-node mpf work
        to_grid, mesh_cls, refine = fixedpoint.to_grid, painleve2._Mesh, painleve2._refine
        active, counts = [False], []

        def counted(v, frac):
            if active[0] and not isinstance(v, float):
                counts[-1] += 1
            return to_grid(v, frac)

        def watched(fn):
            def run(*args, **kwargs):
                active[0] = True
                try:
                    return fn(*args, **kwargs)
                finally:
                    active[0] = False
            return run

        monkeypatch.setattr(fixedpoint, "to_grid", counted)
        monkeypatch.setattr(painleve2, "_Mesh", watched(mesh_cls))
        monkeypatch.setattr(painleve2, "_refine", watched(refine))
        ctx = PrecisionContext(64, 1e-12)
        for k in (10, 20):
            counts.append(0)
            painleve2.solve_hastings_mcleod(-8, 6, 24 * k + 1, ctx)
        assert 0 < counts[1] - counts[0] <= 10 + 1

    def test_fine_mesh_converges(self):
        # elements of width 0.058: a row of 4/h^2 D2 sums to about 2^27, so
        # u rounded to the working precision would hold the residual above
        # the stop; on the grid 48 bits finer it does not
        ctx = PrecisionContext(64, 1e-12)
        sol = painleve2.solve_hastings_mcleod(-6, 6, 5000, ctx)
        assert sol.residual_norm <= mpf(2) ** -(64 + 64 - 24)

    def test_refinement_that_does_not_contract_raises(self, monkeypatch):
        # refine with the Jacobian of a shifted state instead of the warm start's
        warm_start = painleve2._warm_start

        def shifted_warm_start(mesh, *args):
            u, _ = warm_start(mesh, *args)
            return u, painleve2._factor64(mesh, u + 0.5)

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


class TestIntegerMesh:
    @staticmethod
    def _mesh(p, bits=256):
        with mp.workprec(bits):
            return painleve2._Mesh(mpf(-8), mpf(6), 5, p)

    @pytest.mark.parametrize("p", [7, 24, 36])
    def test_d1_skew_and_d2_centrosymmetric(self, p):
        mesh = self._mesh(p)
        d1, d2 = mesh.d1_fixed, mesh.d2_fixed
        for i in range(p + 1):
            assert sum(d1[i]) == 0
            for j in range(p + 1):
                assert d1[p - i][p - j] == -d1[i][j]
                assert d2[p - i][p - j] == d2[i][j]
        # D2 is D1 D1 floored once onto the grid, in every row
        assert d2 == [[fixedpoint.dot(row, col) >> mesh.frac for col in zip(*d1)]
                      for row in d1]

    @pytest.mark.parametrize("p", [7, 24, 36])
    def test_folded_dots_equal_plain_dots(self, p):
        mesh = self._mesh(p)
        rows = [mesh.d1_fixed[0]] + mesh.d2_fixed[1:p] + [mesh.d1_fixed[p]]
        rng = random.Random(p)
        for bits in (60, 400):
            for _ in range(5):
                v = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(p + 1)]
                assert painleve2._folded_dots(mesh.dot_pairs, v) == [
                    fixedpoint.dot(row, v) for row in rows]
                assert painleve2._folded_dots(mesh.d1_pairs, v) == [
                    fixedpoint.dot(row, v) for row in mesh.d1_fixed]

    def test_nodes_and_scales_from_the_grid(self):
        # each node within one unit of the grid below (a + b)/2 + (b - a)/2 t
        # for the grid's a, b and t; the scales are 2/h and 4/h^2 floored
        mesh = self._mesh(24)
        f = mesh.frac
        with mp.workprec(2 * f):
            ref = [fixedpoint.from_grid(fixedpoint.to_grid(t, f), f) for t in mesh.ref]
            for e, row in enumerate(mesh.nodes_fixed):
                a, b = (fixedpoint.from_grid(fixedpoint.to_grid(v, f), f)
                        for v in mesh.edges[e:e + 2])
                h = b - a
                assert h == fixedpoint.from_grid(mesh.h_fixed[e], f)
                for x, t in zip(row, ref):
                    want = ((a + b) / 2 + h / 2 * t) * 2 ** f
                    assert 0 <= want - x < 1
                assert 0 <= 2 / h * 2 ** f - mesh.scale1_fixed[e] < 1
                assert 0 <= 4 / (h * h) * 2 ** f - mesh.scale2_fixed[e] < 1

    def test_frexp_steps_equal_to_grid(self):
        tiny = 5e-324
        values = [0.0, tiny, -tiny, 3 * tiny, 1e-300, -1e-300, 1.5, -1.5,
                  2.0 ** 60, -2.0 ** 60]
        rows = np.array([values, values[::-1]])
        for scale in range(0, 1141):
            for row, (m, shift) in zip(rows.tolist(),
                                       painleve2._steps_on_grid(rows, scale)):
                assert [w << shift for w in m] == [fixedpoint.to_grid(d, scale)
                                                   for d in row]

    def test_frexp_steps_of_a_zero_row(self):
        assert painleve2._steps_on_grid(np.zeros((1, 4)), 300) == [([0] * 4, 0)]

    def test_nonfinite_step_raises(self):
        with pytest.raises(SolverError):
            painleve2._steps_on_grid(np.array([[1.0, float("nan")]]), 10)


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
        ai, aip = specialfn.airy_ai(sol.x_right, ctx256.precision_bits)
        q2 = lambda y: sol.q_at(y) ** 2
        with mp.workprec(280):
            tail = aip * aip - sol.x_right * ai * ai
            # int q^2 over every whole element, shared by all the x below
            whole = [_gauss_legendre(sol, q2, lo, hi)
                     for lo, hi in zip(edges, edges[1:])]
            locate = painleve2._points(sol, "q", sol.precision_bits).locate
            for x in (-11, -8, -4.5, -1, 0, 2.5, 6, 7.5):
                local = painleve2.r_of(sol, x)
                e, _ = locate(mpf(x))
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
                xs = _elem_nodes(sol, e)
                for j in range(1, sol.p):
                    assert abs(sol.q_at(xs[j]) / sol._elem_q[e][j] - 1) < bound
                    assert abs(sol.q_prime_at(xs[j]) / sol._elem_qp[e][j] - 1) < bound

    def test_fresh_solution_builds_one_table_per_integrand(
            self, hm_solution, ctx256, tail_constants, monkeypatch):
        # each (read, kind) forms one DCT per element, once: the q and q'
        # point tables k each, the q integral table k more, the R integral
        # table k more, and repeated reads none.  Reading q' never builds
        # an integral table
        dcts = []
        dct = painleve2._dct

        def counting_dct(rows, values):
            dcts.append(1)
            return dct(rows, values)

        monkeypatch.setattr(painleve2, "_dct", counting_dct)
        sol = painleve2.HMSolution.from_json(hm_solution.to_json())
        bits = sol.precision_bits
        assert ctx256.precision_bits == bits
        k = sol.elements
        sol.q_at(-3)
        sol.q_at(2)
        assert len(dcts) == k
        sol.q_prime_at(-3)
        sol.q_prime_at(4)
        assert len(dcts) == 2 * k
        assert not [key for key in sol._cum_cache if key[0] == "integrals"]
        painleve2.integrate_kind(sol, "q", -3, 2, ctx256)
        painleve2.integrate_kind(sol, "q", -3, -1, ctx256)
        assert len(dcts) == 3 * k
        twdist.tw_point(-2, sol, tail_constants, ctx256)
        assert len(dcts) == 4 * k  # the R integral table
        assert {key[1] for key in sol._cum_cache
                if key[0] == "integrals"} == {"q", "r"}

    def test_qp_table_keeps_no_exact_coefficients(self, hm_solution, ctx256):
        # q' is read, never integrated; no memo entry, the q' point table
        # or any other, keeps the exact DCT coefficients the tables are
        # formed from, and reading q and q' first leaves the q and R
        # integrals bit for bit
        sol = painleve2.HMSolution.from_json(hm_solution.to_json())
        bits = sol.precision_bits
        k = sol.elements
        for x in (-11.5, -3.3, 0.0, 7.9):
            sol.q_prime_at(x)
            sol.q_at(x)
        for kind in ("q", "r"):
            painleve2.integrate_kind(sol, kind, -1, 1, ctx256)
        exact = {tuple(c) for kind in ("q", "qp", "r")
                 for _, c in painleve2._coefficients(sol, kind, bits)}

        def int_rows(v):
            if isinstance(v, list) and v and all(type(n) is int for n in v):
                yield tuple(v)
            elif isinstance(v, (list, tuple)):
                for w in v:
                    yield from int_rows(w)
            elif hasattr(v, "__dict__"):
                yield from int_rows(list(vars(v).values()))

        kept = list(int_rows(list(sol._cum_cache.values())))
        assert len(kept) > 4 * k and not exact & set(kept)

        def integrals(s):
            return [painleve2.integrate_kind(s, kind, -5, x, ctx256)._mpf_
                    for kind in ("q", "r") for x in (-3.3, 0.0, 7.9)]

        # the point reads first leave the integrals bit for bit
        fresh = painleve2.HMSolution.from_json(hm_solution.to_json())
        assert integrals(sol) == integrals(fresh)

    def test_tables_do_not_keep_their_solution_alive(self, hm_solution, ctx256):
        # the tables live in the solution's memo dict; a table that held the
        # solution would make a cycle, and every solution read would stay
        # in memory until the cyclic collector ran
        sol = painleve2.HMSolution.from_json(hm_solution.to_json())
        sol.q_at(0)
        sol.q_prime_at(0)
        for kind in ("q", "r"):
            painleve2.integrate_kind(sol, kind, -1, 1, ctx256)
        ref = weakref.ref(sol)
        gc.disable()
        try:
            del sol
            assert ref() is None
        finally:
            gc.enable()

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
            locate = painleve2._points(sol, kind, bits).locate
            with mp.workprec(2 * bits):
                for x in xs:
                    e, _ = locate(x)
                    a, b = sol._edges[e], sol._edges[e + 1]
                    t = (2 * x - a - b) / (b - a)
                    b1 = b2 = mpf(0)
                    for c in reversed(table[e][1:]):
                        b1, b2 = 2 * t * b1 - b2 + c, b1
                    want = t * b1 - b2 + table[e][0]
                    assert abs(read(x) / want - 1) <= mpf(2) ** -(bits + 20)

    def test_cumulative_read_matches_integrate_kind(self, hm_solution, ctx256):
        # one locate and one Clenshaw sum per integrand, less the x_left
        # end each table reads once, give integrate_kind from x_left bit
        # for bit: at x_left, at every element edge (x_right included)
        # and at points in between, floats and mpfs
        sol = painleve2.HMSolution.from_json(hm_solution.to_json())
        rng = random.Random(200)
        span = float(sol.x_right - sol.x_left)
        xs = [sol.x_left] + list(sol._edges)
        xs += [float(sol.x_left) + span * rng.random() for _ in range(80)]
        with mp.workprec(300):
            xs += [sol.x_left + (sol.x_right - sol.x_left) * rng.random()
                   for _ in range(200 - len(xs))]
        assert len(xs) == 200
        for x in xs:
            got = painleve2.cumulative_integrals(sol, x, ctx256)
            want = [painleve2.integrate_kind(sol, kind, sol.x_left, x, ctx256)
                    for kind in ("r", "q")]
            assert [v._mpf_ for v in got] == [v._mpf_ for v in want]
        with mp.workprec(400):
            below = sol.x_left - mpf(2) ** -300
        for x in (below, 8.5, float("nan")):
            with pytest.raises(DomainError):
                painleve2.cumulative_integrals(sol, x, ctx256)

    def test_reads_need_no_call_order(self, hm_solution, ctx256):
        # each integral table is built whole on its first read, so two
        # fresh solutions, one read by cumulative_integrals first and one
        # by integrate_kind first, give the same bits
        xs = (-11.5, -3.3, 0.0, 7.9)

        def cumulative(sol):
            return [v._mpf_ for x in xs
                    for v in painleve2.cumulative_integrals(sol, x, ctx256)]

        def spans(sol):
            return [painleve2.integrate_kind(sol, kind, -5, x, ctx256)._mpf_
                    for kind in ("r", "q") for x in xs[1:]]

        first = painleve2.HMSolution.from_json(hm_solution.to_json())
        second = painleve2.HMSolution.from_json(hm_solution.to_json())
        want = cumulative(first), spans(first)
        got_spans = spans(second)
        assert (cumulative(second), got_spans) == want

    def test_cold_cumulative_read_does_no_per_node_mpf_work(self, hm_solution, ctx256,
                                                            monkeypatch):
        # the first cumulative read builds the R and q integral tables from
        # raw mantissas (fixedpoint.row_to_grid), the edges and the
        # reference nodes shifted from one grid each (_r_row, _integrals)
        # and the DCT matrix shifted from one row of products
        # (_dct_on_grid), and forms no point table, which no integral
        # reads; later q_at and q_prime_at form theirs, bit for bit
        monkeypatch.setattr(painleve2, "_dct_cache", {})
        monkeypatch.setattr(painleve2, "_dct_halves_cache", {})
        sol = painleve2.HMSolution.from_json(hm_solution.to_json())
        calls = collections.Counter()

        def counted(owner, name):
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a: calls.update([name]) or fn(*a))

        counted(mp, "mag")
        counted(fixedpoint, "to_grid")
        for name in ("mpf_mul", "mpf_mul_int"):
            counted(ctx_mp_python, name)
        painleve2.cumulative_integrals(sol, -2, ctx256)
        assert calls["mag"] == 0
        assert calls["mpf_mul"] + calls["mpf_mul_int"] <= sol.p + 1
        # 104: the edges and the reference nodes once per solution
        # (_exact_grid), the DCT products and each table's window ends
        assert calls["to_grid"] < 110
        def points():
            return {key[1] for key in sol._cum_cache if key[0] == "points"}

        assert not points()
        xs = [(i - 1000) / 100 for i in range(1600)]
        with mp.workprec(53):
            reads = [[_enc(read(x)) for read in (sol.q_at, sol.q_prime_at)] for x in xs]
        assert points() == {"q", "qp"}
        digest = hashlib.sha256(json.dumps(reads).encode()).hexdigest()
        assert digest == TestReadWindow.READS_SHA256

    @pytest.mark.parametrize("p", [2, 3, 8, 16, 24, 25, 36, 48])
    def test_dct_matrix_is_parity_symmetric(self, p, monkeypatch):
        # entry (n, p - j) is (-1)^n entry (n, j) and entry (p - n, j) is
        # (-1)^(p+j) entry (n, j) exactly, so the rows n <= p/2 of the
        # columns _dct_on_grid keeps determine the matrix and the folded
        # _dct gives the integers of the full product; its p + 1 cosines
        # give the integers of all 2p, since cos(pi (2p - m)/p) = cos(pi m/p)
        monkeypatch.setattr(painleve2, "_dct_cache", {})
        monkeypatch.setattr(painleve2, "_dct_halves_cache", {})
        rng = random.Random(p)
        for bits in (64, 128, 192, 256, 300, 512, 600, 1024):
            full = _full_dct_on_grid(p, bits)
            for n, row in enumerate(full):
                sign = -1 if n % 2 else 1
                assert all(row[p - j] == sign * row[j] for j in range(p + 1))
                assert all(full[p - n][j] == (-1) ** (p + j) * row[j]
                           for j in range(p + 1))
            frac, rows = painleve2._dct_on_grid(p, bits)
            assert frac == bits + painleve2._READ_GUARD
            assert rows == [row[:p // 2 + 1] for row in full]
            values = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(p + 1)]
            _, halves = painleve2._dct_halves(p, bits)
            assert painleve2._dct(halves, values) == [fixedpoint.dot(row, values)
                                                      for row in full]

    def test_dct_reads_a_quarter_of_the_products(self, hm_solution, monkeypatch):
        # at p = 24 each element's DCT multiplies 13 rows by 13 folded
        # columns, 169 pairs, against 325 with the column fold alone and 625
        # for the full matrix
        assert hm_solution.p == 24
        pairs = []
        dot = fixedpoint.dot
        monkeypatch.setattr(fixedpoint, "dot", lambda xs, ys: pairs.append(
            min(len(xs), len(ys))) or dot(xs, ys))
        painleve2._coefficients(hm_solution, "q", 256)
        assert sum(pairs) == 169 * hm_solution.elements

    @pytest.mark.parametrize("p", [2, 3, 8, 24, 25, 48])
    def test_dct_columns_match_their_literal_definition(self, p, monkeypatch):
        # each entry formed in mpf as the product its definition names, at
        # F + 16 bits, and truncated onto the grid: _dct_on_grid shifts one
        # product per cosine instead, which must give the same integers
        monkeypatch.setattr(painleve2, "_dct_cache", {})
        for bits in (64, 256, 320):
            frac = bits + painleve2._READ_GUARD
            with mp.workprec(frac + 16):
                cosines = [mp.cospi(mpf(m) / p) for m in range(p + 1)]
                half = [mpf(1) / 2 if j in (0, p) else mpf(1) for j in range(p + 1)]
                want = [[fixedpoint.to_grid((-1) ** n * half[n] * half[j] * 2 / p
                                            * cosines[p - abs(p - n * j % (2 * p))], frac)
                         for j in range(p // 2 + 1)] for n in range(p + 1)]
            assert painleve2._dct_on_grid(p, bits) == (frac, want)

    def test_fixed_point_r_matches_double_precision(self, hm_solution):
        # R from q, q' and x on one integer grid, against R formed in mpf at
        # twice the precision: one unit of the row's grid for its truncation,
        # and a small fraction of one for the floors beneath it (_R_GUARD)
        sol = hm_solution
        bits = sol.precision_bits
        width = bits + REPORT_GUARD + painleve2._READ_GUARD
        for e in range(len(sol._elem_q)):
            frac, row = painleve2._r_row(sol, e, width)
            assert max(map(abs, row)).bit_length() == width
            with mp.workprec(2 * bits):
                want = _nodal_values(sol, "r", e)
                err = max(abs(fixedpoint.from_grid(v, frac) - w)
                          for v, w in zip(row, want))
                assert err < mpf(17) / 16 * mpf(2) ** -frac

    def test_integer_dct_matches_mpf_fdot(self, hm_solution):
        # the integer DCT, exact and then truncated to its row's grid,
        # against the mpf one
        sol = hm_solution
        bits = sol.precision_bits
        for kind in ("q", "qp", "r"):
            rows = painleve2._points(sol, kind, bits).rows
            for (frac, row), want in zip(rows, _mpf_dct(sol, kind, bits)):
                got = [fixedpoint.from_grid(c, frac) for c in row]
                bound = max(abs(c) for c in want) * mpf(2) ** -(bits + 16)
                assert max(abs(a - b) for a, b in zip(got, want)) <= bound

    def test_matches_per_element_gauss_legendre(self, hm_solution, ctx256, wp300):
        sol = hm_solution
        integrands = {"q": sol.q_at, "r": lambda y: painleve2.r_of(sol, y)}
        # one element exactly, [-3.30, -2.87]
        element = (sol._edges[20], sol._edges[21])
        spans = [(-11.3, 7.77), (0.1, 0.2), (-11.3, -1.9), (-9.95, -9.7), element]
        for kind, f in integrands.items():
            for a, b in spans:
                got = painleve2.integrate_kind(sol, kind, a, b, ctx256)
                assert abs(got - _gauss_legendre(sol, f, a, b)) < mpf(10) ** -30

    def test_regularized_kinds_stop_at_zero(self, hm_solution, ctx256):
        # the regularized integrands are no integrand kinds: twdist subtracts
        # their closed forms, and q and R integrate across 0
        for kind in ("q", "r"):
            painleve2.integrate_kind(hm_solution, kind, -2, 1, ctx256)
        for kind in ("q_reg", "r_reg"):
            with pytest.raises(ValueError):
                painleve2.integrate_kind(hm_solution, kind, -2, 0, ctx256)


def _enc(v):
    """v as to_json stores it: [sign, hex mantissa, exponent, bit count]."""
    sign, man, exp, bc = v._mpf_
    return [sign, hex(int(man)), exp, bc]


class TestReadWindow:
    # q and q' on [-10, 6) with step 0.01, as to_json encodes them, and
    # integrate_kind on a few intervals: taken before the reads located x in
    # integers, they pin every read bit for bit
    READS_SHA256 = "fc8711f259ff67dfec08fb635dc313c867fd7c2cd35a39d0b8ae637bc45340b4"
    INTEGRALS = {
        ("q", -12, 8): [0, "0x9f8d20d804ac420703939cd0a2a594c45f877f65e13df0e4"
                           "a54d0acafaf27996bdfb", -267, 272],
        ("q", -11.3, 7.77): [0, "0x4904c461b92bc4614b0c197948e26a6212de8ccc806db2ef"
                                "e818659b975f845acaa3", -266, 271],
        ("q", -3, 2): [0, "0x164caa6e5983b0309e4cb5ec9fee4cc11a9e2b11c58954dd"
                          "80d0e57b9da500aec0bf", -267, 269],
        ("q", 0.1, 0.2): [0, "0x425a3765c2940c5d4c13128a4184265479735839069a6e94"
                             "d5fecf2bc2bdd2f9b1", -267, 263],
        ("r", -12, 8): [0, "0x48393b6dd9bce962529826bb58bdc54a1a23b19ad002821f"
                           "ca34abbd45df901bda15", -263, 271],
        ("r", -11.3, 7.77): [0, "0x78ae579da96300ed76aba7a92584521eb448169d6fc82dda"
                                "40f2d8005d3627803c67", -264, 271],
        ("r", -3, 2): [0, "0x2858986c2903f21be7c6c017b7aa7e788f9577dc08cee47b"
                          "efbd2c85c484b54542b", -264, 266],
        ("r", 0.1, 0.2): [0, "0x14fee4f9d9cd2c2e0af8020c3531a989fb62c1b50c63e756"
                             "71f2ab366c6961241", -264, 257],
    }

    def test_reads_are_pinned(self, hm_solution):
        xs = [(i - 1000) / 100 for i in range(1600)]
        back = painleve2.HMSolution.from_json(hm_solution.to_json())
        with mp.workprec(53):
            for sol in (hm_solution, back):
                reads = [[_enc(read(x)) for read in (sol.q_at, sol.q_prime_at)]
                         for x in xs]
                digest = hashlib.sha256(json.dumps(reads).encode()).hexdigest()
                assert digest == self.READS_SHA256

    def test_integrals_are_pinned(self, hm_solution, ctx256):
        back = painleve2.HMSolution.from_json(hm_solution.to_json())
        for (kind, a, b), want in self.INTEGRALS.items():
            assert _enc(painleve2.integrate_kind(back, kind, a, b, ctx256)) == want

    def _reads(self, sol, ctx):
        """Every read that checks the window, as a function of x."""
        return [sol.q_at, sol.q_prime_at,
                lambda x: painleve2.integrate_kind(sol, "q", x, sol.x_right, ctx),
                lambda x: painleve2.integrate_kind(sol, "r", sol.x_left, x, ctx)]

    def test_window_ends_are_accepted(self, hm_solution, ctx256):
        sol = hm_solution
        with mp.workprec(400):
            inside = [sol.x_left + mpf(2) ** -300, sol.x_right - mpf(2) ** -300]
        ends = [sol.x_left, sol.x_right, float(sol.x_left), float(sol.x_right)]
        for read in self._reads(sol, ctx256):
            for x in ends + inside:
                read(x)
        for kind in ("q", "r"):
            whole = painleve2.integrate_kind(sol, kind, sol.x_left, sol.x_right, ctx256)
            assert whole == painleve2.integrate_kind(sol, kind, -12.0, 8.0, ctx256)

    def test_just_outside_the_window_raises(self, hm_solution, ctx256):
        # a float one ulp outside lies off the ends on the grid; an mpf
        # 2^-300 outside truncates onto them, so only the exact comparison
        # rejects it, at any ambient precision
        sol = hm_solution
        with mp.workprec(400):
            tiny = [sol.x_left - mpf(2) ** -300, sol.x_right + mpf(2) ** -300]
        ulp = [math.nextafter(float(sol.x_left), -math.inf),
               math.nextafter(float(sol.x_right), math.inf)]
        for read in self._reads(sol, ctx256):
            for x in ulp + tiny:
                with pytest.raises(DomainError):
                    read(x)

    def test_non_finite_x_raises(self, hm_solution, ctx256):
        sol = hm_solution
        bad = [float("nan"), mp.nan, float("inf"), float("-inf"), mp.inf, mp.ninf]
        for read in self._reads(sol, ctx256):
            for x in bad:
                with pytest.raises(DomainError):
                    read(x)


class TestTablePin:
    # every integer of the Chebyshev tables, recorded before the cold build
    # read raw mantissas, shared the reference nodes between elements,
    # formed the DCT matrix from one row of products and formed the point
    # rows on first read: the matrix at (24, 256), and for q, q' and R at
    # 256 and 192 bits the exact DCT rows, the point rows and, for the
    # integrands, the antiderivative rows, cum and left_end
    TABLES_SHA256 = "d8adafadc5013a701b7b21d304173c881923a99249dde27eb891d65a276be5ee"

    def test_integer_tables_are_pinned(self, hm_solution, monkeypatch):
        def integrals(table):
            return [table.rows, [_enc(v) for v in table.cum],
                    list(map(int, table.left_end))]

        monkeypatch.setattr(painleve2, "_dct_cache", {})
        monkeypatch.setattr(painleve2, "_dct_halves_cache", {})
        doc = [painleve2._dct_on_grid(24, 256)]
        sol = painleve2.HMSolution.from_json(hm_solution.to_json())
        for bits in (256, 192):
            width = bits + REPORT_GUARD + painleve2._READ_GUARD
            dct_frac, halves = painleve2._dct_halves(sol.p, bits)
            for kind in ("q", "qp", "r"):
                values = sol._elem_q if kind == "q" else sol._elem_qp
                grids = [painleve2._r_row(sol, e, width) if kind == "r"
                         else fixedpoint.row_to_grid(values[e], width)
                         for e in range(sol.elements)]
                doc.append([kind, bits, [(frac + dct_frac, painleve2._dct(halves, row))
                                         for frac, row in grids]])
                points = painleve2._points(sol, kind, bits)
                if kind == "qp":
                    doc.append(points.rows)
                elif bits == 256:  # the integrals formed before the point rows
                    doc += [integrals(painleve2._integrals(sol, kind, bits)), points.rows]
                else:  # and after them
                    doc += [points.rows, integrals(painleve2._integrals(sol, kind, bits))]
        digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
        assert digest == self.TABLES_SHA256


class TestStability:
    def test_grid_refinement_convergence(self):
        ctx = PrecisionContext(192, 1e-18)
        a = painleve2.solve_hastings_mcleod(-10, 7, 400, ctx)
        b = painleve2.solve_hastings_mcleod(-10, 7, 800, ctx)
        with mp.workprec(220):
            for x in (-9, -4, 0, 3, 6.5):
                assert abs(a.q_at(x) - b.q_at(x)) < mpf(10) ** -18

    def test_left_window_twice_as_far_agrees(self, hm_solution, tail_constants,
                                             ctx256):
        # the default window's left boundary value is off by the series'
        # least term, 2.3e-19 at -12; at -24 it is about 1e-50, so q near
        # the left end, and F and E by the left representation, must agree
        wide = painleve2.solve_hastings_mcleod(-24, 8, 1760, ctx256)
        with mp.workprec(300):
            assert painleve2.q_left_boundary_value(-12)[1] <= mpf("3e-19")
            assert abs(wide.q_at(-11.5) - hm_solution.q_at(-11.5)) <= mpf(10) ** -18
            near, far = (twdist.tw_point(-2, sol, tail_constants, ctx256)
                         for sol in (hm_solution, wide))
            assert abs(near.F - far.F) <= mpf(10) ** -18
            assert abs(near.E - far.E) <= mpf(10) ** -18

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

    def test_malformed_value_is_rejected(self, hm_solution):
        # each value is [sign, hex mantissa, exponent, bit count] as to_json
        # writes it, decoded exactly, so a value that could not have been
        # written is refused rather than read as some other number
        for value in ([2, "0x5", -2, 3], [0, "-0x5", -2, 3], [0, "0x5", "1", 3],
                      [0, "0x5", 1.5, 3], [0, "0x5", -2, 2], [0, "0x5", -2, "x"],
                      [0, "zz", -2, 3], [0, "0x5", -2]):
            doc = hm_solution.to_json_dict()
            doc["edges"][3] = value
            with pytest.raises(ValueError):
                painleve2.HMSolution.from_json_dict(doc)

    @pytest.mark.parametrize("name, damage", [
        # edges 10 and 11 swapped: q(-7.5) would read 1.88896, not 1.93591
        ("edges", lambda e: e[:10] + [e[11], e[10]] + e[12:]),
        ("edges", lambda e: [_enc(mpf(-12) + mpf(2) ** -40)] + e[1:]),
        ("edges", lambda e: e[:-1] + [_enc(mpf(8) - mpf(2) ** -40)]),
        # a reversed ref would put every R node at the wrong x
        ("ref", lambda r: r[::-1]),
        ("ref", lambda r: [_enc(-1 + mpf(2) ** -40)] + r[1:]),
        ("ref", lambda r: r[:-1] + [_enc(1 - mpf(2) ** -40)]),
        # at -5 bits, q(0) would read 0.3670615256, not 0.3670615515
        ("precision_bits", lambda bits: -5),
        ("precision_bits", lambda bits: 63),
    ], ids=["edges_swapped", "first_edge_not_x_left", "last_edge_not_x_right",
            "ref_reversed", "ref_not_from_minus_one", "ref_not_to_one",
            "negative_precision", "precision_below_64"])
    def test_value_to_json_dict_could_not_write_is_rejected(self, hm_solution,
                                                            name, damage):
        doc = hm_solution.to_json_dict()
        doc[name] = damage(doc[name])
        with pytest.raises(ValueError):
            painleve2.HMSolution.from_json_dict(doc)

    def test_missing_key_is_rejected(self, hm_solution):
        # a ValueError that names the key, as for every other malformed
        # document, so a reader need catch nothing else
        stored = set(hm_solution.to_json_dict()) - {"schema_version", "kind"}
        assert len(stored) == 8
        for name in sorted(stored):
            doc = hm_solution.to_json_dict()
            del doc[name]
            with pytest.raises(ValueError, match=repr(name)):
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

    def test_left_tail_estimates_have_the_right_scale(self, ctx256):
        # tail(-12) - tail(-16) is the regularized integral over [-16, -12],
        # which a solve from -16 (boundary error about 1e-28) gives far more
        # accurately: the truncation error of tail(-12) it exposes must be
        # of the size of the estimate, neither above twice it nor far below
        sol = painleve2.solve_hastings_mcleod(-16, 8, 1320, ctx256)
        with mp.workprec(300):
            for kind, tail, reg in (
                    ("q", painleve2.left_tail_q_regularized, twdist.regularizer_q),
                    ("r", painleve2.left_tail_r_regularized, twdist.regularizer_r)):
                near, err = tail(-12)
                far, _ = tail(-16)
                between = (painleve2.integrate_kind(sol, kind, -16, -12, ctx256)
                           - (reg(-16) - reg(-12)))
                assert err / 4 < abs(near - far - between) <= 2 * err
                assert err <= mpf("3e-19")
