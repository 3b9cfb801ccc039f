"""Distribution functions, tail expansions, and total-integral identities."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from collections import OrderedDict

import pytest
from mpmath import ctx_mp_python, libmp, mp, mpf

from twlab import (fixedpoint, fredholm_oracle, painleve2, precision, specialfn,
                   toeplitz_lab, twdist)
from twlab.errors import DomainError, InternalConsistencyError, PrecisionError
from twlab.precision import PrecisionContext


def _enc(v):
    """v as to_json stores it: [sign, hex mantissa, exponent, bit count]."""
    sign, man, exp, bc = v._mpf_
    return [sign, hex(int(man)), exp, bc]


class TestTailConstants:
    # as to_json encodes them, taken before log Gamma, log G and zeta'(-1)
    # shared one summation and one start rule
    PINNED = {
        "tau1": [0, "0x192207f84e6cf32e7538a08f6b41189896757033097a0f973d761b51e5ee8c9b",
                 -253, 253],
        "tau2": [0, "0xdf53bba931770fa75bfe3a8b60fcf4c7a5abb14c7649fa564853d3dfdd43f5b7",
                 -256, 256],
        "tau4": [0, "0x8e2c6058b9a3cd7339953c210a8ce2ab600c9c085fb6e3012d6e79c608bf6e2d",
                 -256, 256],
        "f_prefactor": [0, "0x778d95187085c2f55542e33385e56e0a68bbab2e144840a5de693e922f7d99f7",
                        -255, 255],
        "e_prefactor": [0, "0x6ba27e656b4eb57a1cd345dcc8169fef0eb99d7a9102c58b5ae09d6d073bc14d",
                        -255, 255],
        "zeta_prime_minus_one": [
            1, "0x54b21484854d02737991808dfd7a762019b2be3457fec3330847db6345f0f983",
            -257, 255],
    }

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

    def test_pinned(self, tail_constants):
        assert {name: _enc(getattr(tail_constants, name))
                for name in self.PINNED} == self.PINNED


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

    def test_airy_tails_computed_once_per_solution(self, hm_solution, ctx256,
                                                   monkeypatch):
        calls = []
        for name in ("airy_tail_q_integral", "airy_tail_r_integral"):
            fn = getattr(twdist, name)
            monkeypatch.setattr(twdist, name,
                                lambda x, ctx, fn=fn, name=name: calls.append(name) or fn(x, ctx))
        fresh = painleve2.HMSolution.from_json(hm_solution.to_json())
        first = twdist.cdf_right(2, fresh, ctx256)
        assert twdist.cdf_right(2, fresh, ctx256) == first
        twdist.cdf_right(-3, fresh, ctx256)
        assert sorted(calls) == ["airy_tail_q_integral", "airy_tail_r_integral"]
        assert first == twdist.cdf_right(2, hm_solution, ctx256)

    def test_airy_tail_q_integral_against_quadrature(self):
        ctx = PrecisionContext(256, 1e-30)
        # 128-bit quadrature is good to ~1e-44 here, and far quicker than 256-bit
        with mp.workprec(128):
            for x in (6, 8, 10):
                oracle = mp.quad(mp.airyai, [x, mp.inf])
                got = twdist.airy_tail_q_integral(x, ctx)
                assert abs(got - oracle) < mpf(10) ** -30


class TestLeftRepresentation:
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

    def test_left_tails_computed_once_per_solution(self, hm_solution, tail_constants,
                                                   ctx256, monkeypatch):
        calls = []
        for name in ("left_tail_q_regularized", "left_tail_r_regularized"):
            fn = getattr(painleve2, name)
            monkeypatch.setattr(painleve2, name,
                                lambda x, fn=fn, name=name: calls.append(name) or fn(x))
        fresh = painleve2.HMSolution.from_json(hm_solution.to_json())
        first = twdist.cdf_left(-4, fresh, tail_constants, ctx256)
        twdist.cdf_left(-6, fresh, tail_constants, ctx256)
        assert sorted(calls) == ["left_tail_q_regularized", "left_tail_r_regularized"]
        assert first == twdist.cdf_left(-4, hm_solution, tail_constants, ctx256)
        # the tolerance check still runs when the tails come from the cache
        strict = PrecisionContext(256, 1e-30)
        for _ in range(2):
            with pytest.raises(PrecisionError):
                twdist.cdf_left(-4, fresh, tail_constants, strict)

    def test_tails_shared_across_tolerances(self, hm_solution, tail_constants,
                                            monkeypatch):
        # the Airy and left-series tails depend on the bits only, so points
        # at one precision and three tolerances compute each of them once
        calls = []
        for mod, name in ((twdist, "airy_tail_q_integral"),
                          (twdist, "airy_tail_r_integral"),
                          (painleve2, "left_tail_q_regularized"),
                          (painleve2, "left_tail_r_regularized")):
            fn = getattr(mod, name)
            monkeypatch.setattr(mod, name, lambda *a, fn=fn, name=name:
                                calls.append(name) or fn(*a))
        fresh = painleve2.HMSolution.from_json(hm_solution.to_json())
        for tol in (1e-10, 1e-11, 1e-12):
            twdist.tw_point(-2, fresh, tail_constants, PrecisionContext(256, tol))
        assert sorted(calls) == ["airy_tail_q_integral", "airy_tail_r_integral",
                                 "left_tail_q_regularized", "left_tail_r_regularized"]

    # cdf_left(-4) at 256 bits, as to_json encodes it
    F_E_AT_MINUS_4 = [
        [0, "0x3cf70ba4035dd56d43c9007fbfecb53e16816fd8d47498e6b64c11ac371e62f3", -258, 254],
        [0, "0x82294aa757a3c0d5f19870a21ad0ad0eec24fce5b5daa189ac45b30352ccad3b", -258, 256]]

    def test_other_prefactors_get_their_own_left_entry(self, hm_solution, tail_constants,
                                                       ctx256, monkeypatch):
        # a solution keeps one left entry per precision and prefactors:
        # constants with another f_prefactor get an entry of their own,
        # formed once, in either order, and neither goes stale
        doubled = dataclasses.replace(
            tail_constants, f_prefactor=mp.ldexp(tail_constants.f_prefactor, 1))
        _, man, exp, _ = self.F_E_AT_MINUS_4[0]
        calls = []
        form = twdist._form_left
        monkeypatch.setattr(twdist, "_form_left", lambda *a: calls.append(a) or form(*a))
        for order in ((tail_constants, doubled), (doubled, tail_constants)):
            calls.clear()
            fresh = painleve2.HMSolution.from_json(hm_solution.to_json())
            for consts in order + order + order:
                f, e = twdist.cdf_left(-4, fresh, consts, ctx256)
                assert _enc(e) == self.F_E_AT_MINUS_4[1]
                if consts is tail_constants:
                    assert _enc(f) == self.F_E_AT_MINUS_4[0]
                    continue
                with mp.workprec(300):
                    assert abs(f / (2 * mpf((int(man, 16), exp))) - 1) < mpf(10) ** -70
            assert len(calls) == 2


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

    def test_checked_point_reads_each_integrand_once(self, hm_solution, tail_constants,
                                                     ctx256, monkeypatch):
        # the left value and the right one it is checked against share one
        # cumulative read: x is located once, each integrand costs one
        # Clenshaw sum, and the right value is the left one times a ratio
        # kept with the solution, so only the left value takes exps (of
        # the mpf kernel, on raw tuples).  The pass runs at one working
        # precision: no mp.workprec switch and no round_to pass.  The
        # solution's entries are found without hashing an mpf
        twdist.tw_point(-2, hm_solution, tail_constants, ctx256)
        calls = []

        def counted(owner, name):
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name,
                                lambda *a: calls.append(name) or fn(*a))

        counted(fixedpoint, "clenshaw")
        counted(libmp, "mpf_exp")
        counted(painleve2._Table, "locate")
        counted(mp, "workprec")
        counted(ctx_mp_python, "mpf_hash")
        for module in (precision, painleve2, twdist):
            counted(module, "round_to")
        twdist.tw_point(-2, hm_solution, tail_constants, ctx256, check=True)
        assert sorted(calls) == ["clenshaw", "clenshaw", "locate", "mpf_exp", "mpf_exp"]

    def test_check_sees_a_shifted_right_constant(self, hm_solution, tail_constants,
                                                 ctx256, monkeypatch):
        # the check compares F with F rho_F and E with E rho_E, rho kept
        # with the solution: a right constant off by 1e-6 moves rho by about
        # as much, some 1e-7 of F and E here, far past _AGREEMENT_TOL
        fresh = painleve2.HMSolution.from_json(hm_solution.to_json())
        for x in (-2, -3):
            twdist.tw_point(x, fresh, tail_constants, ctx256, check=True)
        right = twdist._right_constants
        monkeypatch.setattr(twdist, "_right_constants", lambda sol, ctx:
                            tuple(k + mpf("1e-6") for k in right(sol, ctx)))
        fresh = painleve2.HMSolution.from_json(hm_solution.to_json())
        for x in (-2, -3):
            with pytest.raises(InternalConsistencyError):
                twdist.tw_point(x, fresh, tail_constants, ctx256, check=True)

    def test_representation_switch(self, hm_solution, tail_constants, ctx256):
        assert twdist.tw_point(-1.5, hm_solution, tail_constants, ctx256).representation == "left"
        assert twdist.tw_point(-0.5, hm_solution, tail_constants, ctx256).representation == "right"

    def test_side_is_that_of_x_at_any_ambient_precision(self, hm_solution, tail_constants,
                                                         ctx256):
        # 53 bits round -1 - 2^-80 to -1, but the side is taken from x itself
        with mp.workprec(300):
            x = -1 - mpf(2) ** -80
        rows = []
        for prec in (53, 300):
            with mp.workprec(prec):
                pt = twdist.tw_point(x, hm_solution, tail_constants, ctx256)
            rows.append([_enc(getattr(pt, name)) for name in ("x", "F", "E", "F1", "F2", "F4")]
                        + [pt.representation])
        assert rows[0][-1] == "left"
        assert rows[0] == rows[1]

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


class TestPointPin:
    """Every field of tw_point, and tw_cdf, cdf_left and cdf_right, as to_json
    encodes them, pinned by one SHA-256 each, at ambient 53 bits.  Taken
    before the point read left mp.workprec for one pass on raw mpf tuples,
    then re-taken when the side came from x itself rather than x rounded to
    the ambient precision: that moved only the rows of -1 - 2^-80, which 53
    bits round to -1, from the right side to the left."""

    POINTS_SHA256 = "cca558dd7810411fc41d2f8d5a55f73959054e306c74d6a4f82d60861fab42a9"
    CDFS_SHA256 = "71a24c092fdde18f28243929dad4bf6fadc7da8c7f0dcb439ee69fa3a4589285"

    @pytest.fixture(scope="class")
    def contexts(self, ctx256, tail_constants):
        ctx192 = PrecisionContext(192, 1e-12)
        return [(ctx256, tail_constants),
                (ctx192, twdist.TailConstants.compute(ctx192))]

    @staticmethod
    def _xs(sol):
        with mp.workprec(300):
            below = [-1 - mpf(2) ** -52, -1 - mpf(2) ** -80]
        return ([(k - 80) / 10 for k in range(121)] + [-1.0] + below
                + [sol.x_left, sol.x_right])

    @staticmethod
    def _digest(rows):
        return hashlib.sha256(json.dumps(rows).encode()).hexdigest()

    def test_points_are_pinned(self, hm_solution, contexts):
        rows = []
        with mp.workprec(53):
            for ctx, consts in contexts:
                for check in (True, False):
                    for x in self._xs(hm_solution):
                        pt = twdist.tw_point(x, hm_solution, consts, ctx, check=check)
                        rows.append([_enc(getattr(pt, name))
                                     for name in ("x", "F", "E", "F1", "F2", "F4")]
                                    + [pt.representation])
        assert self._digest(rows) == self.POINTS_SHA256

    def test_cdfs_are_pinned(self, hm_solution, contexts):
        rows = []
        with mp.workprec(53):
            for ctx, consts in contexts:
                for x in self._xs(hm_solution):
                    rows.append([_enc(twdist.tw_cdf(x, beta, hm_solution, consts, ctx))
                                 for beta in (1, 2, 4)])
                for x in (-4, -2):
                    rows.append([_enc(v) for v in
                                 twdist.cdf_left(x, hm_solution, consts, ctx)
                                 + twdist.cdf_right(x, hm_solution, ctx)])
        assert self._digest(rows) == self.CDFS_SHA256


class TestImport:
    def test_reading_a_stored_solution_leaves_numpy_out(self, hm_solution, tmp_path):
        # numpy serves only the float64 warm start of the solver: loading a
        # stored solution and reading F and E on both sides never imports it
        path = tmp_path / "hm.json"
        path.write_text(hm_solution.to_json())
        src = os.path.dirname(os.path.dirname(twdist.__file__))
        code = ("import sys\n"
                "from twlab import painleve2, twdist\n"
                "from twlab.precision import PrecisionContext\n"
                "ctx = PrecisionContext(256, 1e-12)\n"
                f"sol = painleve2.HMSolution.from_json(open({str(path)!r}).read())\n"
                "consts = twdist.TailConstants.compute(ctx)\n"
                "sides = [twdist.tw_point(x, sol, consts, ctx).representation\n"
                "         for x in (-4.0, 2.0)]\n"
                "assert sides == ['left', 'right'], sides\n"
                "sys.exit('numpy' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestArgumentPrecision:
    """tw_point reads x as the caller passes it: at 53 ambient bits a
    300-bit x = -2 + 2^-100 moves F and E off their values at -2 by the
    first-order steps F R/2 h and E q/2 h (d log F/dx = R/2, d log E/dx =
    q/2), to the O(h) of the second order."""

    def test_tw_point_at_53_ambient_bits(self, hm_solution, tail_constants, ctx256):
        with mp.workprec(300):
            h = mpf(2) ** -100
            x = -2 + h
        with mp.workprec(53):
            got = twdist.tw_point(x, hm_solution, tail_constants, ctx256)
            at_two = twdist.tw_point(-2.0, hm_solution, tail_constants, ctx256)
        with mp.workprec(300):
            r = painleve2.r_of(hm_solution, -2.0)
            q = hm_solution.q_at(-2.0)
            assert abs((got.F - at_two.F) / (at_two.F * r / 2 * h) - 1) < mpf(10) ** -25
            assert abs((got.E - at_two.E) / (at_two.E * q / 2 * h) - 1) < mpf(10) ** -25

    def test_entry_points_ignore_the_ambient_precision(
            self, hm_solution, tail_constants, ctx256, monkeypatch):
        # the same raw bits at ambient 53 and 1000, each run with empty
        # memos: a string x is read at the working precision, a float and
        # a 300-bit mpf exactly, by tw_point and by the integral reads
        with mp.workprec(300):
            wide = -mpf(1) / 3 + mpf(2) ** -280

        def raw():
            monkeypatch.setattr(specialfn, "_zeta_cache", {})
            monkeypatch.setattr(toeplitz_lab, "_ladder_cache", OrderedDict())
            sol = dataclasses.replace(hm_solution, _cum_cache={})
            point = [twdist.tw_point(x, sol, tail_constants, ctx256)
                     for x in ("-0.3", -0.3, wide)]
            cdfs = (twdist.cdf_right("-0.3", sol, ctx256)
                    + twdist.cdf_left("-2.3", sol, tail_constants, ctx256))
            spec = toeplitz_lab.MomentMatrixSpec(3.0, 6)
            return ([(p.x._mpf_, p.F._mpf_, p.E._mpf_) for p in point],
                    [v._mpf_ for v in cdfs],
                    painleve2.integrate_kind(sol, "q", "-0.3", "0.7", ctx256)._mpf_,
                    specialfn.zeta_prime_minus_one(320)._mpf_,
                    [v._mpf_ for v in specialfn.airy_ai("-0.3", 128)],
                    toeplitz_lab.toeplitz_log_det(spec, ctx256)._mpf_)

        with mp.workprec(53):
            low = raw()
        with mp.workprec(1000):
            assert raw() == low

    @pytest.mark.parametrize("x", [-12.5, 8.5, float("nan"), float("inf")])
    def test_outside_the_window_raises(self, x, hm_solution, tail_constants, ctx256):
        with pytest.raises(DomainError):
            twdist.tw_point(x, hm_solution, tail_constants, ctx256)


class TestTotalIntegrals:
    def test_residual_is_twice_the_log_gap(self, hm_solution, tail_constants, ctx256):
        # both representations read one cumulative integral, so
        # 2 log(left/right) is the same constant at every x: the residual
        lhs_r, rhs_r, lhs_q, rhs_q = twdist.total_integral_check(
            hm_solution, tail_constants, ctx256)
        with mp.workprec(280):
            for x in (-11.5, -6, -1.5):
                fl, el = twdist.cdf_left(x, hm_solution, tail_constants, ctx256)
                fr, er = twdist.cdf_right(x, hm_solution, ctx256)
                assert abs(2 * mp.log(fl / fr) - (lhs_r - rhs_r)) <= mpf(10) ** -60
                assert abs(2 * mp.log(el / er) - (lhs_q - rhs_q)) <= mpf(10) ** -60

    def test_domain(self, hm_solution, tail_constants):
        # the left sides hold the left-series tail, which the default
        # window cannot take to 1e-30
        with pytest.raises(PrecisionError):
            twdist.total_integral_check(hm_solution, tail_constants,
                                        PrecisionContext(256, 1e-30))


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

    def test_regularizer_domains(self):
        # A_R needs y < 0 (log|y| at 0) and A_q y <= 0 (|y|^(3/2) turns
        # complex past 0); outside, each raises instead of returning an
        # infinity or an mpc
        assert twdist.regularizer_q(0) == 0
        for y in (0, 3, float("nan")):
            with pytest.raises(DomainError):
                twdist.regularizer_r(y)
        for y in (mpf(10) ** -30, 3, float("nan")):
            with pytest.raises(DomainError):
                twdist.regularizer_q(y)
