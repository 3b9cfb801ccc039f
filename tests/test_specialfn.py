"""Scalar special functions against independent oracles.

Oracles used here: mpmath's own implementations (entirely separate code
paths), adaptive quadrature of defining integrals, finite differences of
defining ODEs, and closed forms.
"""

import hashlib
import json
import math
import random

import pytest
from mpmath import mp, mpf

from twlab import checks, fixedpoint, fredholm_oracle, specialfn
from twlab.errors import DomainError
from twlab.precision import PrecisionContext

BITS = 256


# ---------------------------------------------------------------------------
# Airy
# ---------------------------------------------------------------------------

class TestAiry:
    def test_value_at_zero_closed_form(self, wp300):
        ai, aip = specialfn.airy_ai(0, BITS)
        ref_ai = mp.power(3, mpf(-2) / 3) / mp.gamma(mpf(2) / 3)
        ref_aip = -mp.power(3, mpf(-1) / 3) / mp.gamma(mpf(1) / 3)
        assert abs(ai - ref_ai) < mpf(10) ** -70
        assert abs(aip - ref_aip) < mpf(10) ** -70

    def test_against_mpmath_oracle(self):
        # exact to the working precision
        with mp.workprec(700):
            for x in (-10, -7.5, -3, -1, 0.5, 2, 7, 8.5, 12, 14,
                      mpf("16.35"), 25):
                ai, aip = specialfn.airy_ai(x, BITS)
                assert abs(ai / mp.airyai(x) - 1) <= mpf(10) ** -68
                assert abs(aip / mp.airyai(x, derivative=1) - 1) <= \
                    mpf(10) ** -68

    def test_leading_asymptotic_factor_at_ten(self, wp300):
        # Ai(10) * 2 sqrt(pi) 10^(1/4) e^((2/3)10^(3/2)) = 1 - c1/zeta + O(zeta^-2)
        ai, _ = specialfn.airy_ai(10, BITS)
        zeta = mpf(2) / 3 * mpf(10) ** mpf("1.5")
        scaled = ai * 2 * mp.sqrt(mp.pi) * mpf(10) ** mpf("0.25") * mp.exp(zeta)
        c1 = mpf(5) / 72
        # next coefficient of the expansion is 385/10368
        bound = 2 * mpf(385) / 10368 / zeta ** 2
        assert abs(scaled - (1 - c1 / zeta)) < bound

    def test_ode_by_central_difference_at_one(self, wp300):
        h = mpf(10) ** -4
        ai_m, _ = specialfn.airy_ai(1 - h, BITS)
        ai_0, _ = specialfn.airy_ai(1, BITS)
        ai_p, _ = specialfn.airy_ai(1 + h, BITS)
        second = (ai_p - 2 * ai_0 + ai_m) / (h * h)
        # error is (h^2/12) Ai'''' = (h^2/12)(2 Ai' + x^2 Ai)
        assert abs(second - 1 * ai_0) < h * h

    def test_ode_residual_random_sweep(self):
        bits = 128
        rng = random.Random(20240917)
        h = mpf(10) ** -4
        with mp.workprec(160):
            for _ in range(50):
                x = mpf(rng.uniform(-10, 10))
                am, _ = specialfn.airy_ai(x - h, bits)
                a0, ap0 = specialfn.airy_ai(x, bits)
                ap, _ = specialfn.airy_ai(x + h, bits)
                second = (ap - 2 * a0 + am) / (h * h)
                fourth_bound = 2 * abs(ap0) + x * x * abs(a0)
                assert abs(second - x * a0) <= h * h / 12 * fourth_bound * 4 + mpf(10) ** -25

    def test_constants_computed_once(self, monkeypatch):
        # each x below sums the Maclaurin series at fewer bits than the one
        # before, so Ai(0) and Ai'(0) are computed for x = 6 only, from one
        # Gamma(1/3): the reflection formula gives Gamma(2/3) from it
        xs = (6, 4, 2, 1, 0)
        bits = [specialfn._maclaurin_bits(x, BITS) for x in xs]
        assert all(a > b for a, b in zip(bits, bits[1:]))
        closed = specialfn._gamma_one_third
        calls = []

        def counted(prec):
            calls.append(prec)
            return closed(prec)

        monkeypatch.setattr(specialfn, "_airy_const_cache", {})
        monkeypatch.setattr(specialfn, "_gamma_one_third", counted)
        for x in xs:
            specialfn.airy_ai(x, BITS)
        assert calls == [bits[0] + 16]

    @pytest.mark.parametrize("prec", [53, 200, 296, 427, 507, 703])
    def test_constants_correctly_rounded(self, prec, monkeypatch):
        # Gamma(1/3) from one AGM, at prec + 16 bits, rounds Ai(0) and
        # Ai'(0) correctly (a Stirling log Gamma(2/3) at prec bits missed
        # by an ulp at about half of the precisions 200, 207, ..., 1194)
        monkeypatch.setattr(specialfn, "_airy_const_cache", {})
        got = specialfn._airy_constants(prec)
        with mp.workprec(2 * prec + 64):
            want = (mp.power(3, mpf(-2) / 3) / mp.gamma(mpf(2) / 3),
                    -mp.power(3, mpf(-1) / 3) / mp.gamma(mpf(1) / 3))
        with mp.workprec(prec):
            assert got == tuple(+v for v in want)

    @pytest.mark.parametrize("kernel", [specialfn.airy_ai,
                                        specialfn.airy_ai_tail_integral])
    def test_no_mpf_work_per_maclaurin_term(self, kernel, monkeypatch):
        # the Maclaurin sums run on integers: x = 25 sums about ten times
        # the terms of x = 0.5, at more bits, with the same mpf operations
        monkeypatch.setattr(specialfn, "_airy_const_cache", {})
        specialfn.airy_ai(25, 2 * BITS)  # Ai(0), Ai'(0) at the most bits used
        counts = []
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
                     "__rpow__", "__neg__", "__pos__", "__abs__"):
            def counted(*args, _op=getattr(mpf, name)):
                counts[-1] += 1
                return _op(*args)
            monkeypatch.setattr(mpf, name, counted)
        for x in (0.5, 16.35, 25):
            counts.append(0)
            kernel(x, BITS)
        assert counts[0] == counts[1] == counts[2]

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            specialfn.airy_ai(float("nan"), BITS)
        with pytest.raises(DomainError):
            specialfn.airy_ai(float("inf"), BITS)


def _walk(points, frac, bits):
    """airy_ai_walk_grid at the integer points on 2^-frac, which must
    return integers, as exact mpf pairs (Ai, Ai')."""
    grid = specialfn.airy_ai_walk_grid(points, frac, bits)
    assert all(isinstance(n, int) for triple in grid for n in triple)
    return [(mp.ldexp(ai, -f), mp.ldexp(aip, -f)) for ai, aip, f in grid]


class TestAiryWalk:
    FCTX = PrecisionContext(256, 1e-10)

    @staticmethod
    def _from_the_cut(rule):
        """The rule's nodes and its cut on the rule's grid, as the Nystrom
        matrix walks them."""
        q = rule.frac_bits
        return rule.node_grid + [fixedpoint.to_grid(rule.cut, q)], q

    @pytest.mark.parametrize("x", [-8, 0, 4])
    def test_nystrom_nodes_against_mpmath(self, x, airy_reference):
        rule, ref = airy_reference(x, 80, 700)
        walk = _walk(rule.node_grid, rule.frac_bits, self.FCTX.precision_bits)
        with mp.workprec(700):
            for (ai, aip), (ref_ai, ref_aip) in zip(walk, ref):
                assert abs(ai / ref_ai - 1) <= mpf(10) ** -74
                assert abs(aip / ref_aip - 1) <= mpf(10) ** -74

    @pytest.mark.parametrize("x", [-8, 4, 16])
    def test_fine_rule_from_the_cut_against_mpmath(self, x, airy_reference):
        # the Nystrom walk: m = 160 halves the steps, so the division by h
        # needs more bits; at x = 16 the cut is x + 1, a start of its own.
        # The reference is mp.airyai at 320 bits (2^-320 = 4.7e-97, far
        # below the 1e-74 checked), a third of the 700-bit cost at u > 4
        rule, ref = airy_reference(x, 160, 320)
        walk = _walk(*self._from_the_cut(rule), self.FCTX.precision_bits)
        with mp.workprec(320):
            for (ai, aip), (ref_ai, ref_aip) in zip(walk, ref):
                assert abs(ai / ref_ai - 1) <= mpf(10) ** -74
                assert abs(aip / ref_aip - 1) <= mpf(10) ** -74

    @pytest.mark.parametrize("bits", [128, 256])
    @pytest.mark.parametrize("x", [-8, 4, 16])
    def test_doubled_bits_agree(self, x, bits):
        # each Taylor sum stops on its own terms, so a walk at 2 bits sums
        # further and is the reference for the walk at bits
        points, q = self._from_the_cut(fredholm_oracle.build_rule(x, 160, self.FCTX))
        walk = _walk(points, q, bits)
        ref = _walk(points, q, 2 * bits)
        with mp.workprec(2 * bits):
            for pair, ref_pair in zip(walk, ref):
                for got, want in zip(pair, ref_pair):
                    assert abs(got / want - 1) <= mpf(2) ** -bits

    @pytest.mark.parametrize("u", [-3, mpf("16.3")])
    def test_one_point_is_the_start_value(self, u):
        # the start is airy_ai at bits + 32, put on a grid with 40 more bits
        bits = self.FCTX.precision_bits
        (ai, aip), = _walk([fixedpoint.to_grid(u, 64)], 64, bits)
        start = specialfn.airy_ai(u, bits + 32)
        for got, ref in zip((ai, aip), start):
            assert abs(got - ref) <= mp.ldexp(1, mp.mag(ref) - bits - 32)

    @pytest.mark.parametrize("points", [
        [], [1, 0], [0, 0], [0, 2, 1], [-5, -5, 3], [3, -1, -2]])
    def test_rejects_bad_points(self, points):
        with pytest.raises(DomainError):
            specialfn.airy_ai_walk_grid(points, 8, self.FCTX.precision_bits)


# ---------------------------------------------------------------------------
# Modified Bessel row
# ---------------------------------------------------------------------------

class TestBesselRow:
    def test_row_at_zero(self):
        row = specialfn.bessel_i_row(4, 0, BITS)
        assert row[0] == 1
        assert all(v == 0 for v in row[1:])

    def test_generating_function(self, wp300):
        # sum_{j=-J}^{J} I_j(x) = e^x; symmetry I_{-j} = I_j
        row = specialfn.bessel_i_row(30, 2, BITS)
        total = row[0] + 2 * mp.fsum(row[1:])
        assert abs(total - mp.exp(2)) < mpf(10) ** -20

    def test_quadrature_oracle(self, wp300):
        # I_j(2t) = (1/2pi) int e^{2t cos th} cos(j th) dth
        row = specialfn.bessel_i_row(3, 2, BITS)
        for j in (0, 1, 3):
            ref = mp.quad(lambda th: mp.exp(2 * mp.cos(th)) * mp.cos(j * th),
                          [0, mp.pi]) / mp.pi
            assert abs(row[j] - ref) < mpf(10) ** -15

    def test_three_term_recurrence(self, wp300):
        for x in (mpf("0.5"), mpf(2), mpf(10)):
            row = specialfn.bessel_i_row(22, x, BITS)
            for j in range(1, 21):
                lhs = row[j - 1] - row[j + 1]
                rhs = 2 * j / x * row[j]
                assert abs(lhs - rhs) <= 10 * mpf(10) ** -40 * max(1, abs(rhs))

    @pytest.mark.parametrize("max_j, two_t, bits", [
        (70, 60, 494), (184, 100, 1218), (0, 60, 494), (300, 4, 200),
        (70, 60, 456), (55, 60, 454)])
    def test_lab_rows_against_mpmath(self, max_j, two_t, bits):
        # the row is rounded to bits + ceil(two_t log2 e) + 32; allow 2 to 4
        # ulps of that, and the stated absolute error.  Every order carries
        # the normalisation error, the top ones also the truncation of the
        # recurrence at its start index.  (70, 60, 456) and (55, 60, 454)
        # are the t = 30 rows that test_toeplitz_lab pins: the ladder
        # pass's and D_56's at 454 bits.
        row = specialfn.bessel_i_row(max_j, two_t, bits)
        out_bits = bits + math.ceil(two_t * math.log2(math.e)) + 32
        orders = sorted({0, min(1, max_j), max_j // 2, max(max_j - 1, 0), max_j})
        with mp.workprec(3000):
            for j in orders:
                ref = mp.besseli(j, two_t)
                assert abs(row[j] / ref - 1) <= mpf(2) ** -(out_bits - 2), j
                assert abs(row[j] - ref) <= specialfn.bessel_i_row_error(bits), j

    def test_miller_start_bisects_to_the_linear_scan(self):
        # the first N > max_j below the Debye target, as the scan up from
        # max_j + 1 finds it
        def linear(max_j, z, bits):
            z = max(z, 1e-300)
            target = (specialfn._log_bessel_i_debye(max(max_j, 1), z)
                      - (bits + 16) * math.log(2.0))
            n = max_j + 1
            while specialfn._log_bessel_i_debye(n, z) >= target:
                n += 1
            return n

        for max_j in (0, 1, 7, 70, 230, 600):
            for z in (0.0, 1e-9, 0.5, 4.0, 60.0, 200.0, 1000.0):
                for bits in (64, 200, 607, 1218, 3000):
                    assert (specialfn._miller_start(max_j, z, bits)
                            == linear(max_j, z, bits)), (max_j, z, bits)

    @pytest.mark.parametrize("t, n", [(3, 22), (30, 71), (50, 92)])
    def test_stated_error_covers_doubled_bits(self, t, n):
        # the ladders' row at their pass bits, up to max_j = 2n (the +-
        # families), against the row at doubled bits
        bits = 256 + math.ceil(4 * t * math.log2(math.e)) + 64
        row = specialfn.bessel_i_row(2 * n, 2 * t, bits)
        ref = specialfn.bessel_i_row(2 * n, 2 * t, 2 * bits)
        err = specialfn.bessel_i_row_error(bits)
        with mp.workprec(4 * bits):
            assert max(abs(a - b) for a, b in zip(row, ref)) <= err

    def test_rejects_negative_argument(self):
        for two_t in (-1, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(DomainError):
                specialfn.bessel_i_row(3, two_t, BITS)


# ---------------------------------------------------------------------------
# log Gamma / log Barnes G
# ---------------------------------------------------------------------------

class TestLogGamma:
    def test_special_values(self, wp300):
        assert abs(specialfn.log_gamma(1, BITS)) < mpf(10) ** -70
        assert abs(specialfn.log_gamma(mpf(1) / 2, BITS) - mp.log(mp.pi) / 2) < mpf(10) ** -70
        assert abs(specialfn.log_gamma(6, BITS) - mp.log(120)) < mpf(10) ** -70

    def test_against_mpmath(self, wp300):
        for z in (0.25, 1.75, 3.5, 17.0, 123.25):
            assert abs(specialfn.log_gamma(z, BITS) - mp.loggamma(z)) < mpf(10) ** -68

    def test_rejects_nonpositive(self):
        for z in (0, -2.5, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(DomainError):
                specialfn.log_gamma(z, BITS)


class TestLogBarnesG:
    def test_unit_values(self):
        for z in (1, 2, 3):
            assert abs(specialfn.log_barnes_g(z, BITS)) < mpf(10) ** -70

    def test_half_argument_closed_form(self, wp300):
        zp = specialfn.zeta_prime_minus_one(BITS)
        closed = mp.log(2) / 24 - mp.log(mp.pi) / 4 + mpf(3) / 2 * zp
        assert abs(specialfn.log_barnes_g(mpf(1) / 2, BITS) - closed) < mpf(10) ** -40

    def test_superfactorial_value(self, wp300):
        # G(6) = 1! 2! 3! 4! = 288
        assert abs(specialfn.log_barnes_g(6, BITS) - mp.log(288)) < mpf(10) ** -70

    def test_recurrence_sweep(self, wp300):
        z = mpf("0.5")
        while z <= mpf("10.5"):
            lhs = specialfn.log_barnes_g(z + 1, BITS)
            rhs = specialfn.log_gamma(z, BITS) + specialfn.log_barnes_g(z, BITS)
            assert abs(lhs - rhs) < mpf(10) ** -40
            z += 1

    def test_rejects_nonpositive(self):
        for z in (0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(DomainError):
                specialfn.log_barnes_g(z, BITS)

    @pytest.mark.parametrize("z", [mpf(1) / 2, 3, mpf(15) / 2, 20])
    def test_one_stirling_sum_against_mpmath(self, z, monkeypatch):
        # log Gamma(z + i) = log Gamma(z) + sum_{j<i} log(z + j): one
        # Stirling sum per call, however far z is shifted.  G is good to
        # 2^-BITS relative; beyond |log G| = 1 the value returned is log G
        # rounded to BITS bits, so there it is log G that is, relatively
        raw = specialfn._log_gamma_raw
        calls = []

        def counted(w, prec):
            calls.append(w)
            return raw(w, prec)

        monkeypatch.setattr(specialfn, "_log_gamma_raw", counted)
        got = specialfn.log_barnes_g(z, BITS)
        assert calls == [z]
        with mp.workprec(600):
            ref = mp.log(mp.barnesg(z))
            assert abs(got - ref) <= mpf(2) ** -BITS * max(1, abs(ref))


class TestZetaPrimeMinusOne:
    def test_against_mpmath_oracle(self, wp300):
        mine = specialfn.zeta_prime_minus_one(BITS)
        ref = mp.zeta(-1, derivative=1)
        assert abs(mine - ref) < mpf(10) ** -70

    def test_reference_decimal(self, wp300):
        mine = specialfn.zeta_prime_minus_one(BITS)
        assert abs(mine - mpf("-0.1654211437")) < mpf("1e-9")

    def test_barnes_asymptotics_recovers_constant(self, wp300):
        # log G(z+1) from factorials alone (no zeta' anywhere), then strip the
        # smooth part of the large-argument expansion; the leftover constant
        # has error B_4/(8 z^2), i.e. O(z^-2)
        mine = specialfn.zeta_prime_minus_one(BITS)
        for z_int in (40, 1000):
            z = mpf(z_int)
            log_g = mp.fsum(specialfn.log_gamma(q + 1, BITS)
                            for q in range(2, z_int))
            fit = (log_g - (z * z / 2 * mp.log(z) - mpf(3) / 4 * z * z
                            + z / 2 * mp.log(2 * mp.pi) - mp.log(z) / 12))
            bound = 2 * abs(mp.bernoulli(4)) / (8 * z * z)
            assert abs(fit - mine) < bound
        # at z=1000 the recovery is below the 1e-8 target outright
        assert abs(fit - mine) < mpf(10) ** -8

    def test_g_half_two_routes_agree(self, wp300):
        # recurrence route vs the closed form carrying zeta'(-1)
        zp = specialfn.zeta_prime_minus_one(BITS)
        closed = mp.log(2) / 24 - mp.log(mp.pi) / 4 + mpf(3) / 2 * zp
        via_series = specialfn.log_barnes_g(mpf(1) / 2, BITS)
        assert abs(via_series - closed) < mpf(10) ** -40


# ---------------------------------------------------------------------------
# The Bernoulli series: one summation rule, one start rule
# ---------------------------------------------------------------------------

def _enc(v):
    """v as to_json stores it: [sign, hex mantissa, exponent, bit count]."""
    sign, man, exp, bc = v._mpf_
    return [sign, hex(int(man)), exp, bc]


def _digest(values):
    return hashlib.sha256(json.dumps([_enc(v) for v in values]).encode()).hexdigest()


class TestBernoulliSeries:
    # log Gamma and log G at six arguments and 64..448 bits, and zeta'(-1)
    # at 64..512 bits in steps of 32, as to_json encodes them: taken before
    # the three series shared one summation and one start rule, they pin
    # every value bit for bit where that code was accurate
    ARGS = (0.1, 0.5, 2 / 3, 2.5, 7.25, 33.0)
    LOG_GAMMA_G_SHA256 = "f046a73ce76bfee3a1dc3f15a214587d47de7f398a2f7d519045816a4abb6aa6"
    ZETA_SHA256 = "9e8168e5e6c2eab84dc13564b391aced6f2a62414a53a02934fda8da477c8108"

    def test_log_gamma_and_log_g_are_pinned(self):
        with mp.workprec(53):
            values = [f(z, bits) for bits in range(64, 449, 64) for z in self.ARGS
                      for f in (specialfn.log_gamma, specialfn.log_barnes_g)]
        assert _digest(values) == self.LOG_GAMMA_G_SHA256

    def test_zeta_prime_is_pinned(self):
        with mp.workprec(53):
            values = [specialfn.zeta_prime_minus_one(bits) for bits in range(64, 513, 32)]
        assert _digest(values) == self.ZETA_SHA256

    @pytest.mark.parametrize("bits", [600, 1024, 2048])
    def test_beyond_512_bits(self, bits):
        # the start rule sizes every series to the precision, so no cutoff
        # runs out of accuracy: zeta'(-1) against mpmath, and log G(1/2)
        # against G(1/2) = 2^(1/24) e^(3 zeta'(-1)/2) pi^(-1/4)
        zp = specialfn.zeta_prime_minus_one(bits)
        half = specialfn.log_barnes_g(mpf(1) / 2, bits)
        with mp.workprec(bits + 32):
            ref = mp.zeta(-1, derivative=1)
            closed = mp.log(2) / 24 + 3 * ref / 2 - mp.log(mp.pi) / 4
            assert abs(zp / ref - 1) <= mpf(2) ** -bits
            assert abs(half / closed - 1) <= mpf(2) ** -bits

    @pytest.mark.parametrize("bits", [280, 512])
    def test_special_function_suite_passes(self, bits):
        # its last row is zeta'(-1) at twice the bits, 560 and 1024
        rows = checks.special_function_suite(None, None, PrecisionContext(bits, 1e-12))
        assert [r.name for r in rows if not r.ok] == []


class TestAiryPinned:
    # Ai, Ai' and the tail integral as to_json encodes them, taken while the
    # Maclaurin sums still ran in mpf: the integer kernel reproduces every
    # value bit for bit
    XS = (-12, -8.5, -3, -1, 0, 0.5, 2, 7, 8, 16.353285911396828, 25)
    BITS = (64, 128, 256, 296, 320, 512)
    AIRY_SHA256 = "6139e413b2b83e7ed94797f27d078eb39d9d52a7d1cad615b9e13738286b9f96"
    TAIL_SHA256 = "c7381fe0317484ff7ad9933ed9ce5b084ed9c91bc7a439092488c3dd6d2769d4"

    def test_airy_is_pinned(self):
        with mp.workprec(53):
            values = [v for x in self.XS for bits in self.BITS
                      for v in specialfn.airy_ai(x, bits)]
        assert _digest(values) == self.AIRY_SHA256

    def test_tail_integral_is_pinned(self):
        with mp.workprec(53):
            values = [specialfn.airy_ai_tail_integral(x, bits)
                      for x in self.XS for bits in self.BITS]
        assert _digest(values) == self.TAIL_SHA256


# ---------------------------------------------------------------------------
# Arguments with more bits than the ambient precision
# ---------------------------------------------------------------------------

class TestArgumentPrecision:
    """Each kernel reads its argument at its own working precision: at 53
    ambient bits a 300-bit argument keeps the 2^-280 that decides the
    result's low bits."""

    @staticmethod
    def _wide(num, den):
        """num/den + 2^-280 at 300 bits."""
        with mp.workprec(300):
            return mpf(num) / den + mpf(2) ** -280

    @pytest.mark.parametrize("bits", [64, 256])
    def test_scalar_kernels_at_53_ambient_bits(self, bits):
        x, z = self._wide(1, 3), self._wide(7, 3)
        with mp.workprec(53):
            got = [*specialfn.airy_ai(x, bits), specialfn.log_gamma(z, bits),
                   specialfn.log_barnes_g(z, bits),
                   specialfn.airy_ai_tail_integral(x, bits)]
        with mp.workprec(600):
            want = [mp.airyai(x), mp.airyai(x, derivative=1), mp.loggamma(z),
                    mp.log(mp.barnesg(z)), mpf(1) / 3 - mp.airyai(x, derivative=-1)]
            for g, w in zip(got, want):
                assert abs(g / w - 1) <= mpf(2) ** -bits

    def test_bessel_row_at_53_ambient_bits(self):
        bits, z = 256, self._wide(7, 3)
        with mp.workprec(53):
            row = specialfn.bessel_i_row(4, z, bits)
        with mp.workprec(600):
            for j, v in enumerate(row):
                assert abs(v - mp.besseli(j, z)) <= specialfn.bessel_i_row_error(bits)
