"""Fixed-point helpers: grid conversions, exact dot, integer Clenshaw."""

import random
from collections import OrderedDict

import pytest
from mpmath import mp, mpf

from twlab import fixedpoint


def _values(rng, n):
    with mp.workprec(300):
        return [mpf(rng.uniform(-1, 1)) * mpf(2) ** rng.randint(-60, 40) / 3
                for _ in range(n)] + [mpf(0)]


def test_to_grid_truncates_like_int_of_ldexp():
    rng = random.Random(5)
    for v in _values(rng, 200):
        for frac in (0, 17, 300, -5):
            assert fixedpoint.to_grid(v, frac) == int(mp.ldexp(v, frac))
    with pytest.raises(ValueError):
        fixedpoint.to_grid(mp.nan, 10)


def test_to_grid_of_a_float_needs_no_mpf():
    # the float branch reads the value from float.as_integer_ratio
    rng = random.Random(7)
    floats = [rng.uniform(-1, 1) * 2.0 ** rng.randint(-1070, 1000)
              for _ in range(500)] + [0.0, -0.0, 5e-324, -5e-324, 1.5, -3.0]
    for v in floats:
        for frac in (0, 17, 72, 368, 1100, -5):
            assert fixedpoint.to_grid(v, frac) == int(mp.ldexp(mpf(v), frac))
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            fixedpoint.to_grid(bad, 10)


def test_from_grid_exact_and_rounded():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(-2 ** 400, 2 ** 400)
        assert fixedpoint.from_grid(n, 300) == mp.ldexp(n, -300)
        with mp.workprec(120):
            assert fixedpoint.from_grid(n, 300, 120) == mp.ldexp(mpf(n), -300)


def test_row_to_grid_sizes_each_row_by_its_largest_entry():
    for scale in (mpf(2) ** 5, mpf(2) ** -40):
        frac, row = fixedpoint.row_to_grid([scale * 3, -scale, scale / 7], 100)
        assert max(abs(v) for v in row).bit_length() == 100
        assert fixedpoint.from_grid(row[1], frac) == -scale
    assert fixedpoint.row_to_grid([mpf(0), mpf(0)], 64) == (64, [0, 0])


def test_row_to_grid_rejects_inf_and_nan_anywhere():
    # as to_grid does, whichever entry is not finite and whatever the others
    for row in ([mpf(1), mp.inf], [mp.inf], [1, mp.nan], [mp.ninf, mpf(0)],
                [mpf(0), mpf(2), float("nan")], [3.5, float("-inf")]):
        with pytest.raises(ValueError):
            fixedpoint.row_to_grid(row, 64)


def test_row_to_grid_reads_ints_and_floats_as_to_grid_does():
    rng = random.Random(9)
    for _ in range(50):
        row = [rng.randint(-2 ** 40, 2 ** 40), rng.uniform(-1, 1) * 2.0 ** rng.randint(-60, 60),
               mpf(rng.uniform(-1, 1)) / 3, 0, 0.0]
        frac, got = fixedpoint.row_to_grid(row, 100)
        assert frac == 100 - max(mp.mag(v) for v in row if v)
        assert got == [fixedpoint.to_grid(v, frac) for v in row]


def test_clenshaw_matches_mpf_sum():
    rng = random.Random(7)
    bits = 256
    with mp.workprec(2 * bits):
        coeffs = [mpf(rng.uniform(-1, 1)) / (k + 1) ** 2 for k in range(25)]
        frac, row = fixedpoint.row_to_grid(coeffs, bits)
        for t in [mpf(-1), mpf(1)] + [mpf(rng.uniform(-1, 1)) for _ in range(30)]:
            want = mp.fsum(c * mp.chebyt(k, t) for k, c in enumerate(coeffs))
            got = fixedpoint.from_grid(
                fixedpoint.clenshaw(row, fixedpoint.to_grid(t, bits), bits), frac)
            assert abs(got - want) <= mpf(2) ** -(bits - 12)


def test_regrid_matches_row_to_grid_of_exact_values():
    rng = random.Random(8)
    for _ in range(50):
        frac = rng.randint(-20, 400)
        row = [rng.randint(-2 ** 300, 2 ** 300) >> rng.randint(0, 290)
               for _ in range(rng.randint(1, 30))]
        # bits above the row's size shift it left, bits below truncate
        # toward zero, negative entries included
        for bits in (8, 100, 350):
            want = fixedpoint.row_to_grid(
                [fixedpoint.from_grid(n, frac) for n in row], bits)
            assert fixedpoint.regrid(row, frac, bits) == want
    assert fixedpoint.regrid([-7, 5], 3, 2) == (2, [-3, 2])
    assert fixedpoint.regrid([3, -1], 10, 5) == (13, [24, -8])
    assert fixedpoint.regrid([0, 0, 0], 12, 64) == (64, [0, 0, 0])
    assert fixedpoint.regrid([0, 0, 0], 12, 64) == fixedpoint.row_to_grid(
        [mpf(0)] * 3, 64)


def test_integer_loops_do_not_call_mp_fdot(hm_solution, monkeypatch):
    # the solve, the ladder with pi, the Cholesky route, the Gauss-Legendre rule
    # and the Chebyshev tables run on Python integers; an mp.fdot in any of
    # them fails here
    from twlab import painleve2, quadrature, toeplitz_lab
    from twlab.precision import PrecisionContext

    def no_fdot(*args, **kwargs):
        raise AssertionError("mp.fdot called")

    sol = painleve2.HMSolution.from_json(hm_solution.to_json())
    monkeypatch.setattr(quadrature, "_rule_cache", {})
    monkeypatch.setattr(painleve2, "_dct_cache", {})
    monkeypatch.setattr(painleve2, "_dct_halves_cache", {})
    monkeypatch.setattr(toeplitz_lab, "_ladder_cache", OrderedDict())
    monkeypatch.setattr(mp, "fdot", no_fdot)
    painleve2.solve_hastings_mcleod(-8, 6, 200, PrecisionContext(64, 1e-12))
    ctx = PrecisionContext(256, 1e-22)
    ladder = toeplitz_lab.get_ladder(5.0, "plain", 12, ctx)
    assert len(ladder.pi0) == 11
    toeplitz_lab._cholesky_ladder(5.0, "plain", 12, ctx)
    quadrature.gauss_legendre(80, 288)
    sol.q_prime_at(0)  # q' is read, never integrated
    for kind in ("q", "r"):
        # the integral table forms its antiderivatives and reads left_end
        painleve2._integrals(sol, kind, sol.precision_bits)
