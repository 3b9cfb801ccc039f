"""Determinant ladders, orthogonal-polynomial objects, and the double-scaling
scaffolding."""

import hashlib
import json
from collections import Counter, OrderedDict

import pytest
from mpmath import ctx_mp_python, libmp, mp, mpf

from twlab import (checks, fredholm_oracle, painleve2, quadrature, specialfn,
                   toeplitz_lab as tl, twdist)
from twlab.errors import DomainError, PrecisionError
from twlab.precision import REPORT_GUARD, PrecisionContext, round_to

CTX = PrecisionContext(256, 1e-22)


def bessel_ref(j, two_t):
    return mp.besseli(j, two_t)


def kappa_sq(q, t):
    """log kappa_q^2 = log D_q - log D_{q+1} from the plain ladder at CTX.
    It is always negative (the scaled determinants e^(-t^2) D_n are
    increasing probabilities), so a value at or above the ladder's error
    bound is inconsistent.  Far beyond 2t the true value is below the bound,
    and the one read is within the bound of it, of either sign."""
    ladder = tl.get_ladder(t, "plain", q + 1, CTX)
    val = ladder.log_kappa_sq(q)
    assert val < ladder.error_bound, f"kappa_{q}^2(t={t}) >= 1"
    return round_to(val, CTX.precision_bits)


@pytest.fixture()
def bessel_rows(monkeypatch):
    """The bessel_i_row calls made from here on, under an empty ladder
    cache."""
    row = specialfn.bessel_i_row
    calls = []

    def counted(*args):
        calls.append(args)
        return row(*args)

    monkeypatch.setattr(tl, "_ladder_cache", OrderedDict())
    monkeypatch.setattr(specialfn, "bessel_i_row", counted)
    return calls


@pytest.mark.parametrize("call, name", [
    (lambda: tl.MomentMatrixSpec(3, 2.5), "n"),
    (lambda: tl.get_ladder(3, "plain", 2.5, CTX), "n_cap"),
    (lambda: tl.pi_zero(2.5, 3, CTX), "q"),
    (lambda: tl.d_pm_log("plus_plus", 2.5, 3, CTX), "ell"),
    (lambda: tl.toeplitz_scan(3, [2.5], CTX), "q"),
    (lambda: tl.selberg_hermite_log_closed(2.5, 1.0, CTX), "L"),
    (lambda: tl.selberg_hermite_log_quadrature(2.5, 1.0, CTX), "L"),
    (lambda: tl.exact_part_limit_check(2.5, 3.0, CTX), "L"),
    (lambda: checks.sum_parts_report(10.0, -1.0, 2.5, 3, None, None, CTX), "L"),
    (lambda: checks.e_double_scaling_check(10.0, -1.0, 2.5, 3, None, None, CTX), "L"),
    (lambda: PrecisionContext(128.0), "precision_bits"),
    (lambda: fredholm_oracle.f2_fredholm(0, 40.5, CTX, verify_convergence=False), "m"),
    (lambda: fredholm_oracle.build_rule(0, 40.5, CTX), "m"),
    (lambda: quadrature.gauss_legendre(5.5, 128), "n"),
    (lambda: specialfn.bessel_i_row(3.5, 6, 128), "max_j"),
    (lambda: painleve2.solve_hastings_mcleod(-12, 8, 1100.5), "nodes"),
    (lambda: painleve2.solve_hastings_mcleod(-12, 8, float("inf")), "nodes"),
    (lambda: quadrature.gauss_legendre(5, 128.0), "prec"),
    (lambda: specialfn.airy_ai(1.0, 64.5), "bits"),
    (lambda: specialfn.airy_ai_tail_integral(1.0, 64.0), "bits"),
    (lambda: specialfn.airy_ai_walk_grid([0, 1], 4, 64.5), "bits"),
    (lambda: specialfn.bessel_i_row(3, 6, 128.0), "bits"),
    (lambda: specialfn.bessel_i_row_error(64.5), "bits"),
    (lambda: specialfn.zeta_prime_minus_one(64.5), "bits"),
    (lambda: tl.get_ladder(3, "plain", 4, CTX).log_d(2.5), "n"),
    (lambda: tl.get_ladder(3, "plain", 4, CTX).log_kappa_sq(1.5), "q"),
], ids=["spec", "get_ladder", "pi_zero", "d_pm_log", "scan", "selberg_closed",
        "selberg_quadrature", "exact_part", "sum_parts_report",
        "e_double_scaling_check", "context_bits", "f2_fredholm", "build_rule",
        "gauss_legendre", "bessel_i_row", "solve_nodes", "solve_nodes_inf",
        "gauss_legendre_prec", "airy_ai_bits", "airy_ai_tail_integral_bits",
        "airy_ai_walk_grid_bits", "bessel_i_row_bits", "bessel_i_row_error_bits",
        "zeta_prime_minus_one_bits", "ladder_log_d", "ladder_log_kappa_sq"])
def test_indices_must_be_integers(call, name):
    # an index that is not an integer is refused by name, neither rounded
    # (the scan read q = 2.5 as 2, the closed Selberg form L = 2.5 as a
    # real L, the solve nodes = 1100.5 as 46 elements) nor left to fail as a
    # KeyError, TypeError or OverflowError further in
    with pytest.raises(DomainError, match=f"^{name} must be an integer"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: PrecisionContext(32), "precision_bits must be >= 64, got 32"),
    (lambda: fredholm_oracle.f2_fredholm(0, 10, CTX), "m must be >= 20, got 10"),
    (lambda: quadrature.gauss_legendre(0, 128), "n must be >= 1, got 0"),
    (lambda: specialfn.bessel_i_row(-1, 6, 128), "max_j must be >= 0, got -1"),
    (lambda: painleve2.solve_hastings_mcleod(-12, 8, 100),
     "nodes must be >= 200, got 100"),
    (lambda: tl.toeplitz_scan(3, [0, 2], CTX), "q must be >= 1, got 0"),
    (lambda: tl.exact_part_limit_check(1, 3.0, CTX), "L must be >= 2, got 1"),
], ids=["context_bits", "f2_fredholm", "gauss_legendre", "bessel_i_row",
        "solve_nodes", "scan", "exact_part"])
def test_indices_below_their_least(call, message):
    # one text for an integer below its least value, naming the argument
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: tl.guard_bits("abc", 10, "ladder"), "symbol parameter t"),
    (lambda: tl.MomentMatrixSpec(None, 3), "symbol parameter t"),
    (lambda: fredholm_oracle.build_rule(float("nan"), 40, CTX), "x"),
    (lambda: fredholm_oracle.f2_fredholm(float("inf"), 40, CTX), "x"),
    (lambda: painleve2.solve_hastings_mcleod(-12, float("inf")), "x_right"),
    (lambda: painleve2.solve_hastings_mcleod(float("-inf"), 8), "x_left"),
    (lambda: specialfn.airy_ai("abc", 64), "x"),
    (lambda: specialfn.bessel_i_row(3, float("nan"), 64), "two_t"),
    (lambda: specialfn.airy_ai_tail_integral(float("nan"), 64), "x"),
    (lambda: PrecisionContext(256, "abc"), "tolerance"),
    (lambda: PrecisionContext(256, float("inf")), "tolerance"),
    (lambda: PrecisionContext(256, mpf(-1)), "tolerance"),
    (lambda: twdist.tw_point("abc", None, None, CTX), "x"),
    (lambda: twdist.tw_point(None, None, None, CTX), "x"),
    (lambda: twdist.tw_point(1j, None, None, CTX), "x"),
    (lambda: twdist.cdf_left("abc", None, None, CTX), "x"),
    (lambda: twdist.cdf_right(None, None, CTX), "x"),
    (lambda: painleve2.cumulative_integrals(None, "abc", CTX), "x"),
    (lambda: painleve2.integrate_kind(None, "q", 0, 1j, CTX), "b"),
    (lambda: painleve2.integrate_kind(None, "q", "abc", 0, CTX), "a"),
], ids=["guard_bits", "spec", "build_rule", "f2_fredholm", "solve_x_right",
        "solve_x_left", "airy_ai", "bessel_i_row", "airy_ai_tail_integral",
        "tolerance_str", "tolerance_inf", "tolerance_negative", "tw_point_str",
        "tw_point_none", "tw_point_complex", "cdf_left", "cdf_right",
        "cumulative_integrals", "integrate_kind", "integrate_kind_a"])
def test_reals_must_be_finite(call, name):
    # a real argument that is not a finite real is refused by name before
    # any work, not left to fail as a TypeError, a bare ValueError or a
    # fixed-point grid error further in; an x is checked before the
    # solution is read, so none is needed here
    with pytest.raises(DomainError, match=f"^{name} must be a finite real"):
        call()


class TestMomentRow:
    # sha256 of the JSON grid integers of the t = 30 plain rows of the
    # ladder pass (n = 71 at 456 bits) and of D_56 at 454 bits, recorded
    # from the mpf Miller recurrence the integer one replaced
    DIGESTS = {
        (71, 456): "c3980080dac959c7408c928a269e30dbe17324032c30b92202c65addcf697043",
        (56, 454): "73006ce4189c3e90456b4a3af3b9e22576abbe353631d04bf8a857a6c6c620ce",
    }

    @pytest.mark.parametrize("n, bits", list(DIGESTS))
    def test_pass_rows_are_pinned(self, n, bits):
        row = tl._moment_row(30, n, "plain", bits)
        digest = hashlib.sha256(json.dumps(row).encode()).hexdigest()
        assert digest == self.DIGESTS[n, bits]


class TestNoPerStepMpfWork:
    @staticmethod
    def counted(monkeypatch, targets):
        """A Counter of the calls, by name, of each (owner, name) target."""
        calls = Counter()
        for owner, name in targets:
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, _fn=fn, _name=name, **k:
                                calls.update([_name]) or _fn(*a, **k))
        return calls

    @pytest.fixture()
    def mpf_ops(self, monkeypatch):
        """Counts of the mpf arithmetic of mpf objects (ctx_mp_python's
        names) and of mp.make_mpf, under an empty ladder cache."""
        calls = self.counted(monkeypatch, [(ctx_mp_python, name) for name in (
            "mpf_add", "mpf_sub", "mpf_mul", "mpf_mul_int", "mpf_div", "mpf_neg")]
            + [(mp, "make_mpf")])
        monkeypatch.setattr(tl, "_ladder_cache", OrderedDict())
        return calls

    def test_row_does_no_mpf_work_per_step(self, mpf_ops):
        # the ladder pass's row: 309 integer steps at 607 bits, then one
        # mpf per entry
        row = specialfn.bessel_i_row(70, 60, 456)
        assert mpf_ops["make_mpf"] == len(row) == 71
        assert sum(mpf_ops.values()) == 71 < specialfn._miller_start(70, 60.0, 607)

    def test_warm_scan_makes_only_its_outputs(self, mpf_ops):
        tl.toeplitz_scan(30, range(1, 71), CTX)
        mpf_ops.clear()
        scan = tl.toeplitz_scan(30, range(1, 71), CTX)
        outputs = sum(v is not None for r in scan.records
                      for v in (r.gamma, r.log_kappa_sq, r.pi0,
                                r.log_kappa_sq_airy_pred, r.pi0_airy_pred))
        assert outputs == 327
        assert mpf_ops["make_mpf"] == sum(mpf_ops.values()) == outputs

    def test_cached_reads_do_no_per_pivot_work(self, monkeypatch):
        # a ladder keeps its exact partial sums, so a cached determinant or
        # pi_q(0) read sums no pivots and switches no precision: it rounds
        # one kept value
        tl.get_ladder(30.0, "plain", 71, CTX)
        calls = self.counted(monkeypatch, [(mp, "fsum"), (mp, "workprec"),
                                           (libmp, "mpf_add")])
        tl.toeplitz_log_det(tl.MomentMatrixSpec(30.0, 56), CTX)
        tl.d_pm_log("plus_plus", 27, 30.0, CTX)
        tl.d_pm_log("minus_plus", 28, 30.0, CTX)
        tl.pi_zero(40, 30.0, CTX)
        assert not calls


class TestKeptSums:
    # the old read of log D_n, kept as the reference: the pivots summed by
    # mp.fsum at the read's precision.  At 1000 ambient bits both sides
    # are the exact sums, which carry 486 bits at t = 30 and 582 at t = 1
    @staticmethod
    def fsum_log_d(ladder, n):
        with mp.workprec(max(mp.prec, ladder.precision_bits_used + REPORT_GUARD)):
            return mp.fsum(ladder.log_pivots[:n]) if n else mpf(0)

    @pytest.fixture(scope="class")
    def ladders(self):
        return ([tl.get_ladder(30.0, kind, n, CTX) for kind, n in
                 (("plain", 71), ("plus_plus", 35), ("minus_plus", 35))]
                + [tl._cholesky_ladder(30.0, "plain", 56, CTX)]
                + [tl.get_ladder(1.0, kind, n, CTX) for kind, n in
                   (("plain", 120), ("plus_plus", 59), ("minus_plus", 59))])

    @pytest.mark.parametrize("ambient", [53, 1000])
    def test_kept_sums_give_the_fsum_bits(self, ladders, ambient):
        with mp.workprec(ambient):
            for ladder in ladders:
                for n in range(ladder.n_cap + 1):
                    assert ladder.log_d(n)._mpf_ == self.fsum_log_d(ladder, n)._mpf_


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
        # toeplitz_log_det_lu, the name perfbench reads, is the Cholesky
        # route, and at 256 bits it returns the ladder's value bit for bit
        spec = tl.MomentMatrixSpec(5.0, 12, "plain")
        chol = round_to(tl._cholesky_ladder(5.0, "plain", 12, CTX).log_d(12),
                        CTX.precision_bits)
        b = tl.toeplitz_log_det_lu(spec, CTX)
        assert b._mpf_ == chol._mpf_ == tl.toeplitz_log_det(spec, CTX)._mpf_

    @pytest.mark.parametrize("kind, n", [("plain", 56), ("plus_plus", 27),
                                         ("minus_plus", 28)])
    def test_lu_route_at_lab_size(self, kind, n, wp300):
        # the perfbench toeplitz_scan sizes: the Cholesky route behind
        # toeplitz_log_det_lu and the ladder agree bit for bit at 256 bits
        spec = tl.MomentMatrixSpec(30.0, n, kind)
        a = tl.toeplitz_log_det(spec, CTX)
        b = tl.toeplitz_log_det_lu(spec, CTX)
        assert a._mpf_ == b._mpf_

    def test_log_d56_pinned(self, wp300):
        # log D_56(30) from the ladder's Cholesky and a left-looking pivoted
        # LU (identical at 256 bits), to 73 decimals
        ref = mpf("899.665107163724684105397878627470076844476503207208460"
                  "8594946186761142913141")
        spec = tl.MomentMatrixSpec(30.0, 56)
        assert abs(tl.toeplitz_log_det_lu(spec, CTX) - ref) < mpf(10) ** -70
        assert abs(tl.toeplitz_log_det(spec, CTX) - ref) < mpf(10) ** -70

    def test_spec_validation(self, bessel_rows):
        with pytest.raises(DomainError):
            tl.MomentMatrixSpec(1.0, 0, "plain")
        with pytest.raises(DomainError):
            tl.MomentMatrixSpec(-1.0, 3, "plain")
        with pytest.raises(DomainError):
            tl.MomentMatrixSpec(1.0, 3, "bogus")
        # get_ladder refuses a bad kind or size before any pass
        with pytest.raises(DomainError, match="^kind must be one of"):
            tl.get_ladder(1.0, "bogus", 3, CTX)
        with pytest.raises(DomainError, match="^n_cap must be >= 1"):
            tl.get_ladder(1.0, "plain", 0, CTX)
        assert not bessel_rows and not tl._ladder_cache


class TestKappa:
    def test_q0(self, wp300):
        v = kappa_sq(0, 2.0)
        assert abs(v + mp.log(bessel_ref(0, 4))) < mpf(10) ** -70

    def test_all_negative(self, wp300):
        for q in range(0, 12):
            assert kappa_sq(q, 2.0) < 0

    def test_double_scaling_toward_painleve(self, hm_solution, wp300):
        # kappa_{2t}^2 ~ 1 - R(0)/t^(1/3), sharpening as t grows
        r0 = painleve2.r_of(hm_solution, 0)
        prev = None
        for t in (10, 20, 40):
            k = mp.exp(kappa_sq(2 * t, float(t)))
            pred = 1 - r0 / mpf(t) ** (mpf(1) / 3)
            gap = abs(k - pred)
            if prev is not None:
                assert gap < prev
            prev = gap

    def test_airy_prediction_improves_on_leading(self, wp300):
        # modest regime: correction must beat leading order
        t = 12.0
        for q in (8, 12, 16):
            exact = -kappa_sq(q - 1, t)
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

    def test_far_beyond_2t_is_within_the_bound(self):
        # log kappa_80^2(t=1) is about -(1/81!)^2, far below the bound, so
        # the pass may return either sign; it is not an inconsistency
        val = kappa_sq(80, 1.0)
        assert abs(val) <= tl.get_ladder(1.0, "plain", 81, CTX).error_bound


class TestPiZero:
    def test_q1_closed_form(self, wp300):
        v = tl.pi_zero(1, 3.0, CTX)
        assert abs(v + bessel_ref(1, 6) / bessel_ref(0, 6)) < mpf(10) ** -60

    def test_verblunsky_identity(self, wp300):
        # the Levinson pass forms kappa from pi by this identity, so kappa
        # comes from the Cholesky route
        chol = tl._cholesky_ladder(3.0, "plain", 21, CTX)
        for q in range(2, 21):
            lhs = 1 - tl.pi_zero(q, 3.0, CTX) ** 2
            rhs = mp.exp(chol.log_kappa_sq(q - 1) - chol.log_kappa_sq(q))
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
            assert abs(kappa_sq(q, 30.0) - mpf(log_kappa_sq)) < mpf(10) ** -70
            assert abs(tl.pi_zero(q, 30.0, CTX) - mpf(pi0)) < mpf(10) ** -70

    def test_t30_pm_values(self, wp300):
        # log D^{++}_27(30) and log D^{-+}_28(30) from the Levinson pass at
        # 512 bits, 2e-152 or closer to the Cholesky route, to 80 digits
        pinned = {("plus_plus", 27): "449.05666690199174800885580363335252865"
                                     "613778617177617600893557116388112043754514",
                  ("minus_plus", 28): "479.2940324658498646427183415502579180"
                                      "4623654089244689019154463542875680158431321"}
        for (kind, ell), ref in pinned.items():
            assert abs(tl.d_pm_log(kind, ell, 30.0, CTX) - mpf(ref)) < mpf(10) ** -70


class TestAdaptivePrecision:
    def test_stabilization_is_enforced(self, monkeypatch, bessel_rows):
        # without its guard a pass loses bits to the conditioning, so its
        # error bound exceeds 2^-256 and the one pass raises, proving the
        # bound is checked rather than assumed
        monkeypatch.setattr(tl, "guard_bits", lambda t, n, route: 0)
        for t in (2.0, 30.0):
            monkeypatch.setattr(tl, "_ladder_cache", OrderedDict())
            del bessel_rows[:]
            with pytest.raises(PrecisionError):
                tl.get_ladder(t, "plain", 6, CTX)
            assert len(bessel_rows) == 1

    def test_guard_sized_to_conditioning(self, monkeypatch):
        # guard_bits(30, 71, "ladder") = ceil(120 log2 e + 3 log2 72) + 8
        # = 200; the one pass at 256 + 200 bits certifies its values to
        # 2^-256
        monkeypatch.setattr(tl, "_ladder_cache", OrderedDict())
        ladder = tl.get_ladder(30.0, "plain", 71, CTX)
        assert ladder.precision_bits_used == 456
        assert ladder.error_bound <= mpf(2) ** -CTX.precision_bits

    @pytest.mark.parametrize("t", [float("inf"), float("-inf"), float("nan"),
                                   0.0, -3.0])
    def test_guard_rejects_non_finite_t(self, t):
        # one rule for t, read by the guard, the spec and the index rule
        for call in (lambda: tl.guard_bits(t, 1, "ladder"),
                     lambda: tl.MomentMatrixSpec(t, 1),
                     lambda: tl.scaling_index(t, -1, CTX)):
            with pytest.raises(DomainError, match="^symbol parameter t must be"):
                call()

    def test_one_bessel_row_per_pass(self, bessel_rows):
        # a ladder pass builds its own moment row, so the row count under
        # get_ladder is its stabilize pass count: one, at 456 bits
        tl.get_ladder(30.0, "plain", 71, CTX)
        assert len(bessel_rows) == 1

    def test_ladder_serves_every_tolerance(self, bessel_rows):
        # the pass is exact up to rounding and certified to 2^-precision_bits,
        # so the tolerance is no part of the cache key
        ladder = tl.get_ladder(30.0, "plain", 71, PrecisionContext(256, 1e-12))
        assert tl.get_ladder(30.0, "plain", 71, PrecisionContext(256, 1e-22)) is ladder
        assert len(bessel_rows) == 1

    def test_one_pass_serves_every_family(self, bessel_rows):
        # the plain pass to 2n + 1 holds both +- ladders to n, and a repeat
        # request returns the record it holds, not a new view
        tl.get_ladder(30.0, "plain", 2 * 27 + 1, CTX)
        for kind in ("plus_plus", "minus_plus"):
            ladder = tl.get_ladder(30.0, kind, 27, CTX)
            assert ladder.n_cap == 27
            assert tl.get_ladder(30.0, kind, 27, CTX) is ladder
            assert tl.get_ladder(30.0, kind, 20, CTX) is ladder
        assert len(bessel_rows) == 1

    def test_ladder_cache_keeps_the_newest_ladders(self, monkeypatch):
        monkeypatch.setattr(tl, "_ladder_cache", OrderedDict())
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

    def test_ladder_cache_keys_the_exact_t(self, monkeypatch):
        # at 53 ambient bits a t with more bits than the ambient precision
        # gets its own ladder, the one an uncached pass gives
        monkeypatch.setattr(tl, "_ladder_cache", OrderedDict())
        with mp.workprec(400):
            t = mpf(10) + mpf(2) ** -80
        with mp.workprec(53):
            plain = tl.get_ladder(10.0, "plain", 6, CTX)
            wide = tl.get_ladder(t, "plain", 6, CTX)
        assert wide is not plain
        assert wide.log_pivots[1] != plain.log_pivots[1]
        monkeypatch.setattr(tl, "_ladder_cache", OrderedDict())
        uncached = tl.get_ladder(t, "plain", 6, CTX)
        assert wide.log_pivots == uncached.log_pivots
        assert wide.pi0 == uncached.pi0

    def test_scan_reports_precision(self):
        scan = tl.toeplitz_scan(2.0, range(1, 6), CTX)
        assert scan.precision_bits_used >= CTX.precision_bits


class TestErrorBound:
    """The one pass's bound is at most 2^-256 and covers the distance to a
    pass at doubled bits, for every value the pass forms."""

    @staticmethod
    def _passes(monkeypatch, run):
        """(compute, bits) of every stabilize call that ``run`` makes."""
        captured = []
        stabilize = tl.stabilize

        def capture(compute, bits, ctx, what="result"):
            captured.append((compute, bits))
            return stabilize(compute, bits, ctx, what)

        monkeypatch.setattr(tl, "_ladder_cache", OrderedDict())
        monkeypatch.setattr(tl, "stabilize", capture)
        run()
        return captured

    @pytest.mark.parametrize("t, kind, n", [
        (3.0, "plain", 22), (3.0, "plus_plus", 10), (3.0, "minus_plus", 11),
        (30.0, "plain", 71), (30.0, "plus_plus", 27), (30.0, "minus_plus", 28),
        (50.0, "plain", 92), (50.0, "plus_plus", 45), (50.0, "minus_plus", 45)])
    def test_ladder_bound_covers_doubled_pass(self, monkeypatch, t, kind, n):
        # every family is a view of one plain Levinson pass: the one pass
        # captured gives the family's ladder at its bits and at doubled bits
        [(compute, bits)] = self._passes(
            monkeypatch, lambda: tl.get_ladder(t, kind, n, CTX))
        full, pass_bound = compute(bits)
        ladder = full[kind]
        ladder2 = compute(2 * bits)[0][kind]
        bound = ladder.error_bound
        assert bound <= pass_bound <= mpf(2) ** -CTX.precision_bits
        assert tl.get_ladder(t, kind, n, CTX).error_bound == bound
        with mp.workprec(4 * bits):
            for k in range(n):
                assert abs(ladder.log_pivots[k] - ladder2.log_pivots[k]) <= bound
                assert abs(ladder.log_d(k + 1) - ladder2.log_d(k + 1)) <= bound
            assert (kind == "plain") == bool(ladder.pi0)
            for q in ladder.pi0:
                assert abs(ladder.pi0[q] - ladder2.pi0[q]) <= bound

    @pytest.mark.parametrize("t, n", [(30.0, 56), (5.0, 12), (20.0, 40)])
    def test_cholesky_bound_covers_doubled_pass(self, monkeypatch, t, n):
        # a log pivot gets twice the bound of log D_n, so the returned bound
        # covers each pivot and, halved, each log D_k
        [(compute, bits)] = self._passes(
            monkeypatch, lambda: tl._cholesky_ladder(t, "plain", n, CTX))
        pivots, bound = compute(bits)
        pivots2, _ = compute(2 * bits)
        assert bound <= mpf(2) ** -CTX.precision_bits
        with mp.workprec(4 * bits):
            for k in range(n):
                assert abs(pivots[k] - pivots2[k]) <= bound
                assert abs(mp.fsum(pivots[:k + 1]) - mp.fsum(pivots2[:k + 1])) <= bound / 2


class TestGuardSlack:
    """Each route's guard is sized from the a priori form of its own bound,
    so at 256 bits its bound lies between 8 and 40 bits below 2^-256: a
    guard too small for the bound fails, and so does one that spends more
    than 40 bits on it."""

    @pytest.mark.parametrize("t, n", [
        (1.0, 20), (3.0, 12), (8.0, 24), (12.0, 40), (16.0, 40), (30.0, 56),
        (30.0, 71), (60.0, 125), (100.0, 230)])
    def test_every_route_keeps_8_to_40_bits(self, monkeypatch, t, n):
        bounds = {}
        stabilize = tl.stabilize

        def capture(compute, bits, ctx, what="result"):
            value, bound = stabilize(compute, bits, ctx, what)
            bounds[what.split()[0]] = bound
            return value, bound

        monkeypatch.setattr(tl, "_ladder_cache", OrderedDict())
        monkeypatch.setattr(tl, "stabilize", capture)
        tl.get_ladder(t, "plain", n, CTX)
        tl._cholesky_ladder(t, "plain", n, CTX)
        assert set(bounds) == {"toeplitz", "Cholesky"}
        for route, bound in bounds.items():
            assert mpf(2) ** -(256 + 40) <= bound <= mpf(2) ** -(256 + 8), route


class TestCholeskyRoute:
    """The Levinson ladders against the independent integer Cholesky of the
    moment matrices, within the sum of the two bounds."""

    @pytest.mark.parametrize("t, n", [(3.0, 21), (30.0, 71), (50.0, 91)])
    def test_levinson_ladders_agree_with_cholesky(self, t, n):
        bits = CTX.precision_bits + tl.guard_bits(t, n, "ladder")
        full, _ = tl._ladder_pass(t, n)(bits)
        for kind, size in (("plain", n), ("plus_plus", n // 2),
                           ("minus_plus", n // 2)):
            lev = full[kind]
            chol = tl._cholesky_ladder(t, kind, size, CTX)
            bound = lev.error_bound + chol.error_bound
            assert bound <= mpf(2) ** (1 - CTX.precision_bits)
            with mp.workprec(4 * bits):
                for k in range(size):
                    assert abs(lev.log_pivots[k] - chol.log_pivots[k]) <= bound
                    assert abs(lev.log_d(k + 1) - chol.log_d(k + 1)) <= bound


class TestScan:
    def test_records_and_identity(self, wp300):
        # the scan's kappa and pi come from one Levinson pass, so the
        # identity reads kappa from the Cholesky route
        scan = tl.toeplitz_scan(3.0, range(1, 12), CTX)
        chol = tl._cholesky_ladder(3.0, "plain", 12, CTX)
        recs = {r.q: r for r in scan.records}
        for q in range(2, 12):
            r = recs[q]
            assert abs(r.gamma - 6 / mpf(q)) < mpf(10) ** -70
            lhs = 1 - r.pi0 ** 2
            rhs = mp.exp(chol.log_kappa_sq(q - 1) - chol.log_kappa_sq(q))
            assert abs(lhs - rhs) < mpf(10) ** -40

    def test_predictions_populated_in_range(self):
        scan = tl.toeplitz_scan(8.0, (4, 8, 20), CTX)
        recs = {r.q: r for r in scan.records}
        assert recs[4].log_kappa_sq_airy_pred is not None
        assert recs[20].log_kappa_sq_airy_pred is None   # q+1 beyond 2t
        assert recs[4].pi0_airy_pred is not None


class TestScalingIndex:
    # per t: n = floor(2t + x t^(1/3)) over X, floor(2t - M t^(1/3) - 1) over
    # M_VALUES, ell = floor(t + (x/2) t^(1/3)) over X and floor(t - (M/2)
    # t^(1/3)) over M_VALUES, recorded from these literal formulas at
    # CTX.workprec()
    X = (-3, -1, -0.5, 0, 0.5, 2)
    M_VALUES = (2, 3, 4)
    PINNED = {
        3: ((1, 4, 5, 6, 6, 8), (2, 0, -1), (0, 2, 2, 3, 3, 4), (1, 0, 0)),
        7: ((8, 12, 13, 14, 14, 17), (9, 7, 5), (4, 6, 6, 7, 7, 8), (5, 4, 3)),
        8: ((10, 14, 15, 16, 17, 20), (11, 9, 7), (5, 7, 7, 8, 8, 10), (6, 5, 4)),
        10: ((13, 17, 18, 20, 21, 24), (14, 12, 10), (6, 8, 9, 10, 10, 12), (7, 6, 5)),
        16: ((24, 29, 30, 32, 33, 37), (25, 23, 20), (12, 14, 15, 16, 16, 18),
             (13, 12, 10)),
        20: ((31, 37, 38, 40, 41, 45), (33, 30, 28), (15, 18, 19, 20, 20, 22),
             (17, 15, 14)),
        32: ((54, 60, 62, 64, 65, 70), (56, 53, 50), (27, 30, 31, 32, 32, 35),
             (28, 27, 25)),
        50: ((88, 96, 98, 100, 101, 107), (91, 87, 84), (44, 48, 49, 50, 50, 53),
             (46, 44, 42)),
        100: ((186, 195, 197, 200, 202, 209), (189, 185, 180),
              (93, 97, 98, 100, 101, 104), (95, 93, 90)),
    }

    @pytest.mark.parametrize("t", sorted(PINNED))
    def test_sizes_match_the_literal_formulas(self, t):
        # at t = 8, 2t - t^(1/3) and 2t - 2 t^(1/3) - 1 are exact integers
        n, q_airy_hi, ell, j_airy_hi = self.PINNED[t]
        t = float(t)
        assert tuple(tl.scaling_index(t, x, CTX)[0] for x in self.X) == n
        assert tuple(tl.scaling_index(t, -M, CTX)[0] - 1
                     for M in self.M_VALUES) == q_airy_hi
        assert tuple(tl.scaling_index(t, x, CTX, per=2)[0] for x in self.X) == ell
        assert tuple(tl.scaling_index(t, -M, CTX, per=2)[0]
                     for M in self.M_VALUES) == j_airy_hi

    @pytest.mark.parametrize("t", sorted(PINNED))
    def test_x_eff_is_the_checks_expression(self, t):
        # x_eff is bit for bit (n - 2t)/t^(1/3), and 2(ell - t)/t^(1/3) on
        # the E side
        t = float(t)
        with CTX.workprec():
            t13 = mpf(t) ** (mpf(1) / 3)
            for x in self.X:
                n, x_eff = tl.scaling_index(t, x, CTX)
                assert x_eff == (n - 2 * mpf(t)) / t13
                ell, x_eff = tl.scaling_index(t, x, CTX, per=2)
                assert x_eff == 2 * (ell - mpf(t)) / t13


class TestTelescoping:
    def test_parts_sum_to_direct_determinant(self, hm_solution, tail_constants, wp300):
        rep = checks.sum_parts_report(7.0, -1.0, 3, 2, hm_solution, tail_constants, CTX)
        assert abs(rep.total - rep.total_direct) < mpf(10) ** -20
        # any split point gives the same total
        rep2 = checks.sum_parts_report(7.0, -1.0, 5, 2,
                                       hm_solution, tail_constants, CTX)
        assert abs(rep.total - rep2.total) < mpf(10) ** -40

    def test_painleve_part_gap_shrinks_with_t(self, hm_solution, tail_constants):
        prev = None
        for t in (10.0, 20.0, 40.0):
            rep = checks.sum_parts_report(t, -1.0, 6, 4,
                                          hm_solution, tail_constants, CTX)
            gap = abs(rep.parts["painleve"][0] - rep.parts["painleve"][1])
            if prev is not None:
                assert gap < prev
            prev = gap

    def test_total_approaches_log_f2(self, hm_solution, tail_constants):
        with mp.workprec(280):
            prev = None
            for t in (8.0, 16.0, 32.0):
                rep = checks.sum_parts_report(t, -1.0, 6, 4,
                                              hm_solution, tail_constants, CTX)
                # compare against F2 at the determinant's own scaling position
                # (the floor in n shifts the effective argument by frac/t^(1/3))
                n, x_eff = tl.scaling_index(t, -1.0, CTX)
                assert n == rep.n
                consts = twdist.TailConstants.compute(
                    PrecisionContext(256, 1e-12))
                ref = twdist.tw_cdf(x_eff, 2, hm_solution, consts,
                                    PrecisionContext(256, 1e-12))
                gap = abs(rep.total - mp.log(ref))
                if prev is not None:
                    assert gap < prev
                prev = gap

    def test_window_validation(self, hm_solution, tail_constants):
        with pytest.raises(DomainError):
            checks.sum_parts_report(7.0, -1.0, 11, 2, hm_solution, tail_constants, CTX)

    @pytest.mark.parametrize("ambient", [53, 1000])
    @pytest.mark.parametrize("t, L, M", [(20.0, 4, 4), (20.0, 8, 4), (30.0, 6, 3),
                                         (10.0, 3, 3)])
    def test_parts_keep_the_bits_of_fsum(self, t, L, M, ambient, hm_solution,
                                         tail_constants):
        # the Airy and Painleve parts at x = -1 (verify's telescoping rows
        # and toeplitz-limits' cases), each one exact difference of the
        # ladder's kept sums rounded once, against mp.fsum of the log pivots
        # at the working precision, whatever the ambient precision
        n = tl.scaling_index(t, -1.0, CTX)[0]
        hi = tl.scaling_index(t, -M, CTX)[0] - 1
        ladder = tl.get_ladder(t, "plain", n, CTX)
        with mp.workprec(ambient):
            rep = checks.sum_parts_report(t, -1.0, L, M, hm_solution,
                                          tail_constants, CTX)
            with CTX.workprec():
                for part, lo, up in (("airy", L, hi), ("painleve", hi, n)):
                    want = mp.fsum(ladder.log_pivots[lo:up])
                    got = ladder.log_ratio(lo, up, mp.prec)
                    assert got._mpf_ == want._mpf_
                    assert rep.parts[part][0] == round_to(want, CTX.precision_bits)

    @pytest.mark.parametrize("report, M", [
        (checks.sum_parts_report, 0), (checks.sum_parts_report, -3),
        (checks.e_double_scaling_check, -3)])
    def test_m_out_of_domain_before_any_ladder(self, report, M, hm_solution,
                                               tail_constants, monkeypatch):
        # the Airy-part limits read A_R(-M) (M > 0) and A_q(-M) (M >= 0)
        def no_pass(*args):
            raise AssertionError("ladder pass before the M check")

        monkeypatch.setattr(tl, "get_ladder", no_pass)
        monkeypatch.setattr(tl, "_cholesky_ladder", no_pass)
        with pytest.raises(DomainError, match="M"):
            report(10.0, 5.0, 3, M, hm_solution, tail_constants, CTX)


class TestExactPart:
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
        # truncations approach the determinant as the cap grows.  The ++
        # ladder is formed by this identity, so the determinant comes from
        # the Cholesky route
        t = 8.0
        ell = 6
        lhs = -mpf(t) ** 2 / 2 + tl._cholesky_ladder(t, "plus_plus", ell, CTX).log_d(ell)
        gaps = []
        for cap in (10, 14, 18):
            acc = mpf(0)
            for j in range(ell, cap + 1):
                acc += (kappa_sq(2 * j + 1, t)
                        - mp.log(1 + tl.pi_zero(2 * j + 2, t, CTX)))
            gaps.append(abs(acc - lhs))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < mpf(10) ** -12

    def test_mp_product_identity(self, wp300):
        # e^(-t^2/2 - t) D_l^{-+} = prod_{j>=l} kappa_{2j}^2 / (1 - pi_{2j+1}),
        # with the determinant from the Cholesky route as above
        t = 8.0
        ell = 7
        lhs = (-mpf(t) ** 2 / 2 - t
               + tl._cholesky_ladder(t, "minus_plus", ell, CTX).log_d(ell))
        acc = mpf(0)
        for j in range(ell, 27):
            acc += (kappa_sq(2 * j, t)
                    - mp.log(1 - tl.pi_zero(2 * j + 1, t, CTX)))
        assert abs(acc - lhs) < mpf(10) ** -20

    def test_domain(self):
        with pytest.raises(DomainError):
            tl.d_pm_log("plus_plus", 0, 1.0, CTX)
        with pytest.raises(DomainError):
            tl.d_pm_log("plain", 1, 1.0, CTX)


class TestESide:
    def test_report_identity_and_limits(self, hm_solution, tail_constants):
        rep = checks.e_double_scaling_check(16.0, -1.0, 3, 4,
                                            hm_solution, tail_constants, CTX)
        with mp.workprec(280):
            assert abs(rep.identity_gap) < mpf(10) ** -20
            # parts sit near their limits at this modest t
            assert abs(rep.parts["exact"][0] - rep.parts["exact"][1]) < mpf("0.5")
            assert abs(rep.parts["airy"][0] - rep.parts["airy"][1]) < mpf("1.0")
            assert abs(rep.parts["painleve"][0] - rep.parts["painleve"][1]) < mpf("1.5")

    def test_report_past_zero(self, hm_solution, tail_constants):
        # the Painleve-part limit integrates q itself, so x > 0 is in range;
        # it matches the integral split at 0
        rep = checks.e_double_scaling_check(16.0, 0.5, 3, 4,
                                            hm_solution, tail_constants, CTX)
        with mp.workprec(280):
            assert abs(rep.identity_gap) < mpf(10) ** -20
            want = (painleve2.integrate_kind(hm_solution, "q", -4, 0, CTX)
                    + painleve2.integrate_kind(hm_solution, "q", 0, 0.5, CTX))
            assert abs(rep.parts["painleve"][1] - want) < mpf(10) ** -60

    def test_pp_value_approaches_fe(self, hm_solution, tail_constants, ctx256):
        gaps = []
        with mp.workprec(280):
            for t in (8.0, 16.0):
                rep = checks.e_double_scaling_check(t, -1.0, 3, 4,
                                                    hm_solution, tail_constants, CTX)
                ell, x_eff = tl.scaling_index(t, -1.0, CTX, per=2)
                assert ell == rep.ell
                pt = twdist.tw_point(x_eff, hm_solution, tail_constants, ctx256)
                gaps.append(abs(rep.d_pp_value - pt.F1))
        assert gaps[1] < gaps[0]
