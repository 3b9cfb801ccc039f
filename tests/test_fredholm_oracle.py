"""Airy-kernel Fredholm determinant oracle."""

import hashlib
import json
import math
from itertools import islice

import numpy as np
import pytest
from mpmath import libmp, mp, mpf

from twlab import fredholm_oracle, specialfn
from twlab.errors import DomainError, InternalConsistencyError, PrecisionError
from twlab.linalg import (cauchy_schur_entry_error, cauchy_schur_pivots,
                          cholesky_entry_error, cholesky_log_pivots,
                          log_det_error)
from twlab.precision import PrecisionContext

CTX = PrecisionContext(256, 1e-12)


def _entry(gen, i, j):
    # entry (i, j) of the symmetric matrix held in generator form, exact
    a, b, u, d, frac = gen
    if i == j:
        return mp.ldexp(d[i], -frac)
    num = mp.ldexp(b[i] * a[j] - a[i] * b[j], -2 * frac)
    return num / mp.ldexp(u[i] - u[j], -frac)


def _mpf_rule(rule):
    # the rule's nodes and weights as exact mpfs
    return ([mp.ldexp(v, -rule.frac_bits) for v in rule.node_grid],
            [mp.ldexp(v, -rule.frac_bits) for v in rule.weight_grid])


def _lower_triangle(gen):
    # the assembled lower triangle on the grid, the Cholesky's input
    a, b, u, d, _ = gen
    return [[(b[i] * a[j] - a[i] * b[j]) // (u[i] - u[j]) for j in range(i)] + [d[i]]
            for i in range(len(d))]


def _division_schur(a, b, u, d, frac):
    # the Schur pass with each multiplier one floor division by its pivot,
    # the reference for cauchy_schur_pivots' reciprocal rule
    a, b, d = list(a), list(b), list(d)
    largest = max(1 << frac, max(map(abs, a)), max(map(abs, b)), max(d))
    pivots = []
    for k in range(len(d)):
        pivots.append(d[k])
        held = []
        for i in range(k + 1, len(d)):
            s = (b[i] * a[k] - a[i] * b[k]) // (u[i] - u[k])
            l = (s << frac) // d[k]
            held.append(l)
            a[i] -= (l * a[k]) >> frac
            b[i] -= (l * b[k]) >> frac
            d[i] -= (l * s) >> frac
        for vs in (held, islice(a, k + 1, None), islice(b, k + 1, None)):
            largest = max(largest, max(map(abs, vs), default=0))
    return pivots, largest


# the (m, x) of the Schur and pivot-product checks
SCHUR_CASES = ([(m, x) for m in (40, 80, 160) for x in (-8, -2, 0, 4, 10)]
               + [(80, -12)])


class TestKernel:
    # entries of the symmetrized matrix delta_ij - sqrt(w_i w_j) A(u_i, u_j)
    def test_diagonal_entry_closed_form(self, wp300):
        # A(u, u) = Ai'(u)^2 - u Ai(u)^2
        nodes, weights = _mpf_rule(fredholm_oracle.build_rule(-4, 40, CTX))
        gen = fredholm_oracle.nystrom_matrix(-4, 40, CTX)
        i = 10
        u, w = nodes[i], weights[i]
        k = (1 - _entry(gen, i, i)) / w
        ref = mp.airyai(u, derivative=1) ** 2 - u * mp.airyai(u) ** 2
        assert abs(k - ref) < mpf(10) ** -70

    def test_integral_form_oracle(self, wp300):
        # A(u, v) = int_0^inf Ai(u+s) Ai(v+s) ds
        nodes, weights = _mpf_rule(fredholm_oracle.build_rule(-4, 40, CTX))
        gen = fredholm_oracle.nystrom_matrix(-4, 40, CTX)
        i, j = 12, 5
        u, v = nodes[i], nodes[j]
        k = -_entry(gen, i, j) / mp.sqrt(weights[i] * weights[j])
        with mp.workdps(40):
            oracle = mp.quad(lambda s: mp.airyai(u + s) * mp.airyai(v + s),
                             [0, 4, 10, 24])
        assert abs(k - oracle) < mpf(10) ** -30

    @pytest.mark.parametrize("x", [-8, 4])
    def test_generators_within_stated_units(self, x, airy_reference):
        # nystrom_matrix's docstring: a_i, b_i within 2 units of 2^-F of
        # sqrt(w_i) Ai(u_i), sqrt(w_i) Ai'(u_i) at the rule's u_i, w_i, and
        # d_i within 2 + 4 (|b_i| + |u_i a_i|) + a_i^2 units
        rule, ref = airy_reference(x, 80, 700)
        gen = fredholm_oracle.nystrom_matrix(x, 80, CTX)
        unit = mp.ldexp(1, -gen.frac_bits)
        with mp.workprec(700):
            for i, (u, w, (ai, aip)) in enumerate(zip(*_mpf_rule(rule), ref)):
                a, b = mp.sqrt(w) * ai, mp.sqrt(w) * aip
                assert abs(gen.a[i] * unit - a) <= 2 * unit
                assert abs(gen.b[i] * unit - b) <= 2 * unit
                d = 1 - (b * b - u * a * a)
                units = 2 + 4 * (abs(b) + abs(u * a)) + a * a
                assert abs(gen.d[i] * unit - d) <= units * unit

    def test_generator_form_in_fixed_point(self):
        gen = fredholm_oracle.nystrom_matrix(-4, 40, CTX)
        assert gen.frac_bits == CTX.precision_bits + 32
        assert [len(v) for v in gen[:4]] == [40] * 4
        assert all(isinstance(v, int) for vs in gen[:4] for v in vs)
        assert all(lo < hi for lo, hi in zip(gen.u, gen.u[1:]))

    @pytest.mark.parametrize("x", [-8, -2, 0, 4])
    def test_log_det_against_800_bit_cholesky(self, x):
        # the Schur pass on the m = 80 generators against mp.cholesky of the
        # matrix they define, rebuilt at 800 bits
        gen = fredholm_oracle.nystrom_matrix(x, 80, CTX)
        pivots, _ = cauchy_schur_pivots(*gen, "Nystrom matrix")
        with mp.workprec(gen.frac_bits):
            got = mp.fsum(mp.log(mp.ldexp(p, -gen.frac_bits)) for p in pivots)
        with mp.workprec(800):
            mat = mp.matrix(80, 80)
            for i in range(80):
                for j in range(80):
                    mat[i, j] = _entry(gen, i, j)
            low = mp.cholesky(mat)
            ref = 2 * mp.fsum(mp.log(low[i, i]) for i in range(80))
            assert abs(got - ref) <= mpf(2) ** -(CTX.precision_bits - 8) * abs(ref)

    @pytest.mark.parametrize("m", [40, 80, 160])
    @pytest.mark.parametrize("x", [-8, -2, 0, 4])
    def test_schur_matches_cholesky_within_stated_errors(self, x, m):
        # both factorisations are exact for the generators' matrix plus
        # their stated entry errors; the assembled triangle's floors add
        # 2^-F to the Cholesky's.  ||M^-1|| from float64 eigenvalues, times 2
        gen = fredholm_oracle.nystrom_matrix(x, m, CTX)
        frac = gen.frac_bits
        rows = _lower_triangle(gen)
        with mp.workprec(frac):
            pivots, largest = cauchy_schur_pivots(*gen, "Nystrom matrix")
            schur = mp.fsum(mp.log(mp.ldexp(p, -frac)) for p in pivots)
            chol = mp.fsum(cholesky_log_pivots(rows, frac, "Nystrom matrix"))
            full = np.array([[float(mp.ldexp(rows[max(i, j)][min(i, j)], -frac))
                              for j in range(m)] for i in range(m)])
            inv_norm = 2 / mpf(float(np.linalg.eigvalsh(full)[0]))
            tol = (log_det_error(m, cauchy_schur_entry_error(gen.u, largest, frac),
                                 inv_norm)
                   + log_det_error(m, cholesky_entry_error(rows, frac)
                                   + mp.ldexp(1, -frac), inv_norm))
            assert tol < mpf(2) ** -200
            assert abs(schur - chol) <= tol

    @pytest.mark.parametrize("m, x", SCHUR_CASES)
    def test_schur_pivots_match_the_division_pass(self, m, x):
        # the reciprocal per pivot gives every multiplier exactly, so the
        # pivots and the largest entry held are bit for bit the division's
        gen = fredholm_oracle.nystrom_matrix(x, m, CTX)
        assert cauchy_schur_pivots(*gen, "Nystrom matrix") == _division_schur(*gen)

    @pytest.mark.parametrize("m, x", SCHUR_CASES)
    def test_pivot_product_is_rounded_once(self, m, x):
        # the product cut to F + 64 bits is the exact product rounded once
        gen = fredholm_oracle.nystrom_matrix(x, m, CTX)
        pivots, _ = cauchy_schur_pivots(*gen, "Nystrom matrix")
        frac = gen.frac_bits
        want = libmp.from_man_exp(math.prod(pivots), -m * frac, frac, libmp.round_nearest)
        assert fredholm_oracle._pivot_product(pivots, frac)._mpf_ == want

    def test_operator_norm_above_one_raises(self):
        # generators scaled by 2 scale the kernel by 4, so ||K|| > 1 and the
        # matrix 1 - K is indefinite
        a, b, u, d, frac = fredholm_oracle.nystrom_matrix(-4, 40, CTX)
        one = 1 << frac
        a, b = [2 * v for v in a], [2 * v for v in b]
        d = [one - 4 * (one - v) for v in d]
        with pytest.raises(InternalConsistencyError, match="scaled Nystrom matrix"):
            cauchy_schur_pivots(a, b, u, d, frac, "scaled Nystrom matrix")

    def test_one_airy_start_per_matrix(self, monkeypatch):
        # every walk starts at the truncation point, the same for x <= 15, so
        # the memoised start serves a second x without a new airy_ai
        calls = []
        airy_ai = specialfn.airy_ai

        def counted(x, bits):
            calls.append(x)
            return airy_ai(x, bits)

        monkeypatch.setattr(specialfn, "_walk_start_cache", {})
        monkeypatch.setattr(specialfn, "airy_ai", counted)
        fredholm_oracle.nystrom_matrix(-4, 40, CTX)
        assert len(calls) == 1
        fredholm_oracle.nystrom_matrix(2, 40, CTX)
        assert len(calls) == 1


class TestDeterminant:
    def test_right_tail_value(self, wp300):
        # 1 - F2(4) ~ 2 e^(-(4/3) 4^(3/2))/(32 pi 4^(3/2)) (1 - 35/(24 4^(3/2)));
        # the omitted corrections are O(x^-3) relative to the defect
        v = fredholm_oracle.f2_fredholm(4, 40, CTX, verify_convergence=False)
        x32 = mpf(4) ** mpf("1.5")
        defect = 2 * mp.exp(-mpf(4) / 3 * x32) / (32 * mp.pi * x32) * (1 - 35 / (24 * x32))
        assert abs((1 - v) - defect) < 10 * defect / x32 ** 2

    @pytest.mark.parametrize("x, ref", [
        (-7.99, "2.330375023826974861097312860886471568241e-19"),
        (-1.99, "0.4176414589316935730829242459613837042033"),
        (2.01, "0.9998912853183808617561775188089410507166"),
    ])
    def test_pinned_against_larger_rule(self, x, ref, wp300):
        # ref: the same determinant with m = 120 nodes
        v = fredholm_oracle.f2_fredholm(x, 80, PrecisionContext(256, 1e-10),
                                        verify_convergence=False)
        assert abs(v - mpf(ref)) <= mpf(10) ** -30

    @pytest.mark.parametrize("x, ref", [
        (-7.99, "2.33037502382697486109731286088651375387832863326600605469654803458702080813e-19"),
        (-1.99, "0.41764145893169357308292424596139158291127988957366935648226837978745284258618"),
        (2.01, "0.99989128531838086175617751880889040308032857825664355066244866888297910524927"),
    ])
    def test_pinned_to_mpf_factorisation(self, x, ref, wp300):
        # ref: the same m = 80 determinant from an mpf Cholesky at 288 bits,
        # each inner product one mp.fdot
        v = fredholm_oracle.f2_fredholm(x, 80, PrecisionContext(256, 1e-10),
                                        verify_convergence=False)
        assert abs(v - mpf(ref)) <= mpf(10) ** -70

    def test_thirteen_points_are_pinned(self):
        # f2_fredholm at x + 0.03, x = -8..4, as to_json encodes it, taken
        # before the Airy kernel and the Gauss-Legendre weights moved to
        # integers: no value moved
        with mp.workprec(53):
            values = [fredholm_oracle.f2_fredholm(x + 0.03, 80, PrecisionContext(256, 1e-10),
                                                  verify_convergence=False)
                      for x in range(-8, 5)]
        encoded = [[v._mpf_[0], hex(int(v._mpf_[1])), v._mpf_[2], v._mpf_[3]]
                   for v in values]
        assert hashlib.sha256(json.dumps(encoded).encode()).hexdigest() == \
            "9ea0156011e1d253eefb70517ffabc4c7aab71ac99d2abfed4c530a535e89880"

    def test_monotone(self, wp300):
        vals = [fredholm_oracle.f2_fredholm(x, 40, CTX, verify_convergence=False)
                for x in (-6, -2, 2)]
        assert vals[0] < vals[1] < vals[2]

    def test_m_convergence(self, wp300):
        a = fredholm_oracle.f2_fredholm(-2, 40, CTX, verify_convergence=False)
        b = fredholm_oracle.f2_fredholm(-2, 80, CTX, verify_convergence=False)
        assert abs(a - b) < mpf(10) ** -12

    def test_convergence_guard_raises(self):
        strict = PrecisionContext(256, 1e-60)
        with pytest.raises(PrecisionError):
            fredholm_oracle.f2_fredholm(-2, 20, strict, verify_convergence=True)

    def test_under_resolved_rule_is_a_precision_failure(self):
        # 40 nodes cannot resolve the kernel at x = -12: the discretized
        # operator norm reaches 1 and a Schur pivot goes nonpositive
        with pytest.raises(PrecisionError, match=r"m=40 .* at x=-12"):
            fredholm_oracle.f2_fredholm(-12, 40, CTX, verify_convergence=False)

    def test_rejects_small_rule(self):
        with pytest.raises(DomainError):
            fredholm_oracle.f2_fredholm(0, 10, CTX)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            fredholm_oracle.f2_fredholm(float("nan"), 40, CTX)


class TestRule:
    def test_rule_invariants(self):
        rule = fredholm_oracle.build_rule(-3, 48, CTX)
        assert rule.frac_bits == CTX.precision_bits + 48
        nodes, weights = _mpf_rule(rule)
        assert len(nodes) == len(weights) == 48
        assert all(w > 0 for w in weights)
        assert all(a < b for a, b in zip(nodes, nodes[1:]))
        assert nodes[0] > -3

    def test_truncation_point(self):
        u = fredholm_oracle._truncation_point(-8.0)
        with mp.workprec(200):
            assert mp.airyai(u) ** 2 < mpf(10) ** -39
            assert mp.airyai(u - 2) ** 2 > mpf(10) ** -41


class TestSpectrum:
    def test_matrix_spd_with_eigenvalues_in_unit_interval(self, wp300):
        gen = fredholm_oracle.nystrom_matrix(-4, 40, CTX)
        m = mp.matrix([[_entry(gen, i, j) for j in range(40)]
                       for i in range(40)])
        eigvals = mp.eigsy(m, eigvals_only=True)
        # the operator tail beyond the truncation point contributes ~1e-40,
        # so "at most 1" holds to that scale
        assert all(0 < ev <= 1 + mpf(10) ** -35 for ev in eigvals)

    def test_determinant_in_unit_interval(self, wp300):
        for x in (-6, 0, 3):
            v = fredholm_oracle.f2_fredholm(x, 40, CTX, verify_convergence=False)
            assert 0 < v < 1
