"""Determinant ladders, orthogonal-polynomial objects, and the double-scaling
scaffolding."""

import pytest
from mpmath import mp, mpf

from twlab import painleve2, specialfn, toeplitz_lab as tl, twdist
from twlab.errors import DomainError, PrecisionError
from twlab.precision import PrecisionContext

CTX = PrecisionContext(256, 1e-22)


def bessel_ref(j, two_t):
    return mp.besseli(j, two_t)


class TestLogDet:
    def test_one_by_one_families(self, wp300):
        v = tl.toeplitz_log_det(tl.MomentMatrixSpec(1.0, 1, "plain"), CTX)
        assert abs(v - mp.log(bessel_ref(0, 2))) < mpf(10) ** -70
        # ++ is the Chebyshev-U Gram family: I_0 - I_2
        v = tl.d_pm_log("plus_plus", 1, 1.0, CTX)
        assert abs(v - mp.log(bessel_ref(0, 2) - bessel_ref(2, 2))) < mpf(10) ** -70
        v = tl.d_pm_log("minus_plus", 1, 1.0, CTX)
        assert abs(v - mp.log(bessel_ref(0, 2) + bessel_ref(1, 2))) < mpf(10) ** -70

    def test_two_by_two_cofactor_oracle(self, wp300):
        v = tl.toeplitz_log_det(tl.MomentMatrixSpec(1.0, 2, "plain"), CTX)
        ref = mp.log(bessel_ref(0, 2) ** 2 - bessel_ref(1, 2) ** 2)
        assert abs(v - ref) < mpf(10) ** -70

    def test_strong_szego_limit(self, wp300):
        # n >> 2t: e^(-t^2) D_n -> 1
        v = tl.toeplitz_log_det(tl.MomentMatrixSpec(1.0, 40, "plain"), CTX)
        assert abs(mp.exp(v - 1) - 1) < mpf(10) ** -20

    def test_lu_route_matches_cholesky(self, wp300):
        spec = tl.MomentMatrixSpec(5.0, 12, "plain")
        a = tl.toeplitz_log_det(spec, CTX)
        b = tl.toeplitz_log_det_lu(spec, CTX)
        assert abs(a - b) < mpf(10) ** -40

    @pytest.mark.parametrize("kind, n", [("plain", 56), ("plus_plus", 27),
                                         ("minus_plus", 28)])
    def test_lu_route_at_lab_size(self, kind, n, wp300):
        spec = tl.MomentMatrixSpec(30.0, n, kind)
        a = tl.toeplitz_log_det(spec, CTX)
        b = tl.toeplitz_log_det_lu(spec, CTX)
        assert abs(a - b) <= mpf(10) ** -70

    def test_log_d56_pinned(self, wp300):
        # log D_56(30) from the ladder's Cholesky and the left-looking
        # pivoted LU (identical at 256 bits), to 73 decimals
        ref = mpf("899.665107163724684105397878627470076844476503207208460"
                  "8594946186761142913141")
        spec = tl.MomentMatrixSpec(30.0, 56)
        assert abs(tl.toeplitz_log_det_lu(spec, CTX) - ref) < mpf(10) ** -70
        assert abs(tl.toeplitz_log_det(spec, CTX) - ref) < mpf(10) ** -70

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            tl.MomentMatrixSpec(1.0, 0, "plain")
        with pytest.raises(DomainError):
            tl.MomentMatrixSpec(-1.0, 3, "plain")
        with pytest.raises(DomainError):
            tl.MomentMatrixSpec(1.0, 3, "bogus")


class TestKappa:
    def test_q0(self, wp300):
        v = tl.kappa_sq(0, 2.0, CTX)
        assert abs(v + mp.log(bessel_ref(0, 4))) < mpf(10) ** -70

    def test_all_negative(self, wp300):
        for q in range(0, 12):
            assert tl.kappa_sq(q, 2.0, CTX) < 0

    def test_double_scaling_toward_painleve(self, hm_solution, wp300):
        # kappa_{2t}^2 ~ 1 - R(0)/t^(1/3), sharpening as t grows
        r0 = painleve2.r_of(hm_solution, 0)
        prev = None
        for t in (10, 20, 40):
            k = mp.exp(tl.kappa_sq(2 * t, float(t), CTX))
            pred = 1 - r0 / mpf(t) ** (mpf(1) / 3)
            gap = abs(k - pred)
            if prev is not None:
                assert gap < prev
            prev = gap

    def test_airy_prediction_improves_on_leading(self, wp300):
        # modest regime: correction must beat leading order
        t = 12.0
        for q in (8, 12, 16):
            exact = -tl.kappa_sq(q - 1, t, CTX)
            with_corr = tl.airy_log_kappa_prediction(q, t)
            leading = tl.airy_log_kappa_prediction(q, t, include_correction=False)
            assert abs(exact - with_corr) < abs(exact - leading)

    def test_prediction_domain(self):
        with pytest.raises(DomainError):
            tl.airy_log_kappa_prediction(0, 10.0)
        with pytest.raises(DomainError):
            tl.airy_log_kappa_prediction(25, 10.0)   # q >= 2t
        with pytest.raises(DomainError):
            tl.airy_log_kappa_prediction(19, 9.6)    # correction magnitude >= 1/2


class TestPiZero:
    def test_q1_closed_form(self, wp300):
        v = tl.pi_zero(1, 3.0, CTX)
        assert abs(v + bessel_ref(1, 6) / bessel_ref(0, 6)) < mpf(10) ** -60

    def test_verblunsky_identity(self, wp300):
        for q in range(2, 21):
            lhs = 1 - tl.pi_zero(q, 3.0, CTX) ** 2
            rhs = mp.exp(tl.kappa_sq(q - 1, 3.0, CTX) - tl.kappa_sq(q, 3.0, CTX))
            assert abs(lhs - rhs) < mpf(10) ** -40

    def test_sign_alternation_and_magnitude(self, wp300):
        t = 12.0
        for q in range(8, 21):
            v = tl.pi_zero(q, t, CTX)
            assert (v > 0) == (q % 2 == 0)
            pred = tl.pi_zero_airy_prediction(q, t)
            assert abs(v - pred) / abs(pred) < mpf("0.2")

    def test_magnitude_below_one(self, wp300):
        for q in (1, 5, 9, 30):
            assert abs(tl.pi_zero(q, 4.0, CTX)) < 1

    def test_domain(self):
        with pytest.raises(DomainError):
            tl.pi_zero(0, 3.0, CTX)

    def test_levinson_matches_normal_equations(self):
        # pi_q(0) is c_0 of M[:q,:q] c = -(I_{q-j}(2t))_j, solved here by LU
        # on moments from mp.besseli
        with mp.workprec(400):
            for q in range(1, 21):
                m = mp.matrix(q, q)
                rhs = mp.matrix(q, 1)
                for j in range(q):
                    for k in range(q):
                        m[j, k] = mp.besseli(abs(j - k), 10)
                    rhs[j] = -mp.besseli(q - j, 10)
                ref = mp.lu_solve(m, rhs)[0]
                assert abs(tl.pi_zero(q, 5.0, CTX) - ref) < mpf(10) ** -60


class TestPinnedLadder:
    # log kappa_q^2 and pi_q(0) at t = 30 from the Cholesky solves of the
    # normal equations at 5834 bits, to 80 digits
    PINNED = {
        1: ("-52.94168155383801338464030799443539262482622116361607241747324067954116329707114",
            "-0.99163135012420877241611312854293166328593129406342979032070688589751671124770521"),
        35: ("-5.8731165538520739634384973866041564471091669750351784795912885954884286366793423",
             "-0.6454061267772477048201329796751647307670902076310292669821551699873578782322459"),
        70: ("-8.4861990099848257940312809534332862944972541341049960511553248053199253176267977e-7",
             "0.0014363877506621511100711677829054547733732227933785895332443825726537747349317598"),
    }

    def test_t30_values(self, wp300):
        tl.get_ladder(30.0, "plain", 71, CTX)
        for q, (log_kappa_sq, pi0) in self.PINNED.items():
            assert abs(tl.kappa_sq(q, 30.0, CTX) - mpf(log_kappa_sq)) < mpf(10) ** -70
            assert abs(tl.pi_zero(q, 30.0, CTX) - mpf(pi0)) < mpf(10) ** -70


class TestAdaptivePrecision:
    def test_stabilization_is_enforced(self):
        # an unreachable tolerance with one refinement must raise, proving
        # the two-precision agreement is checked rather than assumed
        hopeless = PrecisionContext(64, 1e-300, max_refinements=1)
        with pytest.raises(PrecisionError):
            tl.get_ladder(2.0, "plain", 6, hopeless)

    def test_guard_sized_to_conditioning(self):
        # guard_bits(30) = ceil(120 log2 e) + 64 = 238; the pass at
        # 256 + 238 bits agrees with its doubling
        assert tl.get_ladder(30.0, "plain", 71, CTX).precision_bits_used == 988

    @pytest.mark.parametrize("t", [float("inf"), float("-inf"), float("nan")])
    def test_guard_rejects_non_finite_t(self, t):
        with pytest.raises(DomainError):
            tl.guard_bits(t)

    def test_one_bessel_row_per_pass(self, monkeypatch):
        # a ladder pass builds its own moment row, so the row count under
        # get_ladder is its stabilize pass count (494 and 988 bits here)
        row = specialfn.bessel_i_row
        calls = []

        def counted(*args):
            calls.append(args)
            return row(*args)

        monkeypatch.setattr(tl, "_ladder_cache", {})
        monkeypatch.setattr(specialfn, "bessel_i_row", counted)
        tl.get_ladder(30.0, "plain", 71, CTX)
        assert len(calls) == 2

    def test_ladder_cache_keeps_the_newest_ladders(self, monkeypatch):
        monkeypatch.setattr(tl, "_ladder_cache", tl._LadderCache())
        size = tl._LADDER_CACHE_SIZE
        first = [tl.get_ladder(1.0 + k, "plain", 3, CTX) for k in range(size)]
        # a repeat request is a hit, and makes t = 1 the newest key
        assert tl.get_ladder(1.0, "plain", 3, CTX) is first[0]
        # one more key evicts the oldest, now t = 2
        tl.get_ladder(20.0, "plain", 3, CTX)
        assert len(tl._ladder_cache) == size
        assert tl.get_ladder(1.0, "plain", 3, CTX) is first[0]
        assert tl.get_ladder(3.0, "plain", 3, CTX) is first[2]
        assert tl.get_ladder(2.0, "plain", 3, CTX) is not first[1]

    def test_scan_reports_precision(self):
        scan = tl.toeplitz_scan(2.0, range(1, 6), CTX)
        assert scan.precision_bits_used >= CTX.precision_bits


class TestScan:
    def test_records_and_identity(self, wp300):
        scan = tl.toeplitz_scan(3.0, range(1, 12), CTX)
        recs = {r.q: r for r in scan.records}
        for q in range(2, 12):
            r = recs[q]
            assert abs(r.gamma - 6 / mpf(q)) < mpf(10) ** -70
            lhs = 1 - r.pi0 ** 2
            rhs = mp.exp(recs[q - 1].log_kappa_sq - r.log_kappa_sq)
            assert abs(lhs - rhs) < mpf(10) ** -40

    def test_predictions_populated_in_range(self):
        scan = tl.toeplitz_scan(8.0, (4, 8, 20), CTX)
        recs = {r.q: r for r in scan.records}
        assert recs[4].log_kappa_sq_airy_pred is not None
        assert recs[20].log_kappa_sq_airy_pred is None   # q+1 beyond 2t
        assert recs[4].pi0_airy_pred is not None


class TestTelescoping:
    def test_parts_sum_to_direct_determinant(self, hm_solution, wp300):
        rep = tl.sum_parts_report(7.0, -1.0, 3, 2, hm_solution, CTX)
        assert abs(rep.total - rep.total_direct) < mpf(10) ** -20
        # any split point gives the same total
        rep2 = tl.sum_parts_report(7.0, -1.0, 5, 2, hm_solution, CTX)
        assert abs(rep.total - rep2.total) < mpf(10) ** -40

    def test_painleve_part_gap_shrinks_with_t(self, hm_solution):
        prev = None
        for t in (10.0, 20.0, 40.0):
            rep = tl.sum_parts_report(t, -1.0, 6, 4, hm_solution, CTX)
            gap = abs(rep.painleve_part - rep.painleve_part_limit)
            if prev is not None:
                assert gap < prev
            prev = gap

    def test_total_approaches_log_f2(self, hm_solution):
        with mp.workprec(280):
            prev = None
            for t in (8.0, 16.0, 32.0):
                rep = tl.sum_parts_report(t, -1.0, 6, 4, hm_solution, CTX)
                # compare against F2 at the determinant's own scaling position
                # (the floor in n shifts the effective argument by frac/t^(1/3))
                t13 = mpf(t) ** (mpf(1) / 3)
                x_eff = (rep.n - 2 * mpf(t)) / t13
                consts = twdist.TailConstants.compute(
                    PrecisionContext(256, 1e-12))
                ref = twdist.tw_cdf(x_eff, 2, hm_solution, consts,
                                    PrecisionContext(256, 1e-12))
                gap = abs(rep.total - mp.log(ref))
                if prev is not None:
                    assert gap < prev
                prev = gap

    def test_window_validation(self, hm_solution):
        with pytest.raises(DomainError):
            tl.sum_parts_report(7.0, -1.0, 11, 2, hm_solution, CTX)


class TestExactPart:
    def test_residual_shrinks_with_t(self):
        vals = [abs(tl.exact_part_limit_check(3, t, CTX))
                for t in (25.0, 50.0, 100.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_selberg_closed_vs_quadrature(self, wp300):
        for L in (1, 2, 3):
            closed = tl.selberg_hermite_log_closed(L, 2.0, CTX)
            quad = tl.selberg_hermite_log_quadrature(L, 2.0, CTX)
            assert abs(closed - quad) < mpf(10) ** -12

    def test_selberg_l1_exact(self, wp300):
        # one-dimensional case is the plain Gaussian integral sqrt(pi/t)
        closed = tl.selberg_hermite_log_closed(1, 7.0, CTX)
        assert abs(closed - mp.log(mp.sqrt(mp.pi / 7))) < mpf(10) ** -70

    def test_quadrature_rejects_large_l(self):
        with pytest.raises(DomainError):
            tl.selberg_hermite_log_quadrature(4, 2.0, CTX)


class TestPMFamilies:
    def test_pp_product_identity_truncations(self, wp300):
        # e^(-t^2/2) D_l^{++} = prod_{j>=l} kappa_{2j+1}^2 / (1 + pi_{2j+2});
        # truncations approach the determinant as the cap grows
        t = 8.0
        ell = 6
        lhs = -mpf(t) ** 2 / 2 + tl.d_pm_log("plus_plus", ell, t, CTX)
        gaps = []
        for cap in (10, 14, 18):
            acc = mpf(0)
            for j in range(ell, cap + 1):
                acc += (tl.kappa_sq(2 * j + 1, t, CTX)
                        - mp.log(1 + tl.pi_zero(2 * j + 2, t, CTX)))
            gaps.append(abs(acc - lhs))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < mpf(10) ** -12

    def test_mp_product_identity(self, wp300):
        # e^(-t^2/2 - t) D_l^{-+} = prod_{j>=l} kappa_{2j}^2 / (1 - pi_{2j+1})
        t = 8.0
        ell = 7
        lhs = -mpf(t) ** 2 / 2 - t + tl.d_pm_log("minus_plus", ell, t, CTX)
        acc = mpf(0)
        for j in range(ell, 27):
            acc += (tl.kappa_sq(2 * j, t, CTX)
                    - mp.log(1 - tl.pi_zero(2 * j + 1, t, CTX)))
        assert abs(acc - lhs) < mpf(10) ** -20

    def test_exact_combination_shrinks_with_t(self, wp300):
        # log(D_{L-1}^{++} D_L^{-+} / D_{2L-1}) -> (2L-1) log 2 as t grows
        def combo(L, t):
            return (tl.d_pm_log("plus_plus", L - 1, t, CTX)
                    + tl.d_pm_log("minus_plus", L, t, CTX)
                    - tl.toeplitz_log_det(tl.MomentMatrixSpec(t, 2 * L - 1, "plain"), CTX)
                    - (2 * L - 1) * mp.log(2))
        for L in (3, 5):
            assert abs(combo(L, 50.0)) > abs(combo(L, 100.0))

    def test_domain(self):
        with pytest.raises(DomainError):
            tl.d_pm_log("plus_plus", 0, 1.0, CTX)
        with pytest.raises(DomainError):
            tl.d_pm_log("plain", 1, 1.0, CTX)


class TestESide:
    def test_report_identity_and_limits(self, hm_solution):
        rep = tl.e_double_scaling_check(16.0, -1.0, 3, 4, hm_solution, CTX)
        with mp.workprec(280):
            assert abs(rep.identity_gap) < mpf(10) ** -20
            # parts sit near their limits at this modest t
            assert abs(rep.exact_part - rep.exact_part_limit) < mpf("0.5")
            assert abs(rep.airy_part - rep.airy_part_limit) < mpf("1.0")
            assert abs(rep.painleve_part - rep.painleve_part_limit) < mpf("1.5")

    def test_report_past_zero(self, hm_solution):
        # the Painleve-part limit integrates q itself, so x > 0 is in range;
        # it matches the regularized route split at 0
        rep = tl.e_double_scaling_check(16.0, 0.5, 3, 4, hm_solution, CTX)
        with mp.workprec(280):
            assert abs(rep.identity_gap) < mpf(10) ** -20
            want = (painleve2.integrate_kind(hm_solution, "q_reg", -4, 0, CTX)
                    + mp.sqrt(2) / 3 * mpf(4) ** mpf("1.5")
                    + painleve2.integrate_kind(hm_solution, "q", 0, 0.5, CTX))
            assert abs(rep.painleve_part_limit - want) < mpf(10) ** -60

    def test_pp_value_approaches_fe(self, hm_solution, tail_constants, ctx256):
        gaps = []
        with mp.workprec(280):
            for t in (8.0, 16.0):
                rep = tl.e_double_scaling_check(t, -1.0, 3, 4, hm_solution, CTX)
                t13 = mpf(t) ** (mpf(1) / 3)
                x_eff = 2 * (rep.ell - mpf(t)) / t13
                pt = twdist.tw_point(x_eff, hm_solution, tail_constants, ctx256)
                gaps.append(abs(rep.d_pp_value - pt.F1))
        assert gaps[1] < gaps[0]

    def test_pi_partial_sums_decrease(self, hm_solution):
        res = tl.pi_partial_sums(16.0, 0.0, 10, hm_solution, CTX, parity="odd")
        with mp.workprec(280):
            assert abs(res[-1]) < abs(res[0])
            res_even = tl.pi_partial_sums(16.0, 0.0, 10, hm_solution, CTX,
                                          parity="even")
            assert abs(res_even[-1]) < abs(res_even[0])

    def test_parity_validation(self, hm_solution):
        with pytest.raises(DomainError):
            tl.pi_partial_sums(16.0, 0.0, 3, hm_solution, CTX, parity="both")
