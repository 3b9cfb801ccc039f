"""The fixed-point Schur and Cholesky log-determinants."""

import math

import pytest
from mpmath import mp, mpf

from twlab.errors import InternalConsistencyError
from twlab.linalg import (cauchy_schur_entry_error, cauchy_schur_pivots,
                          cholesky_log_pivots, log_det_error)


def test_hilbert_log_det():
    # the 8x8 Hilbert matrix is positive definite with condition ~1.5e10 and
    # a diagonal below 1, outside the regime the callers rely on;
    # det H_n = c_n^4 / c_2n with c_n = 1! 2! ... (n-1)!
    frac = 200
    rows = [[(1 << frac) // (i + j + 1) for j in range(i + 1)] for i in range(8)]
    with mp.workprec(200):
        pivots = cholesky_log_pivots(rows, frac, "Hilbert matrix")
        assert len(pivots) == 8
        c = [math.prod(math.factorial(k) for k in range(1, n)) for n in (8, 16)]
        ref = 4 * mp.log(c[0]) - mp.log(c[1])
        assert abs(mp.fsum(pivots) - ref) <= mpf(10) ** -50


def test_nonpositive_pivot_raises():
    # eigenvalues 3 and -1: the second pivot is 1 - 2^2 = -3
    one = 1 << 64
    with pytest.raises(InternalConsistencyError, match="indefinite test matrix"):
        cholesky_log_pivots([[one], [2 * one, one]], 64, "indefinite test matrix")


def test_entries_past_the_diagonal_are_not_read():
    # the Toeplitz moment matrices are passed as their lower triangle; what
    # lies past the diagonal of a full row must not change the pivots
    frac = 96
    lower = [[(4 << frac) if i == j else (1 << frac) for j in range(i + 1)]
             for i in range(3)]
    padded = [row + [-7] * (3 - len(row)) for row in lower]
    with mp.workprec(96):
        assert (cholesky_log_pivots(padded, frac, "padded")
                == cholesky_log_pivots(lower, frac, "lower"))


def _on_grid(mat, frac):
    return [[int(mp.ldexp(v, frac)) for v in row] for row in mat]


def test_schur_cauchy_like_matches_mp_det_within_stated_error():
    # M_ij = (b_i a_j - a_i b_j) / (u_i - u_j) with unsorted nodes and
    # generators above 1, made positive definite by its diagonal
    n, frac = 8, 200
    with mp.workprec(600):
        a = [mpf(3 * i - 10) / 4 for i in range(n)]
        b = [mpf((5 * i) % 7) / 3 + 1 for i in range(n)]
        u = [mpf((3 * i) % n) / 2 for i in range(n)]
        ga, gb, gu = _on_grid([a, b, u], frac)
        mat = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                if i != j:
                    mat[i, j] = (mp.ldexp(gb[i] * ga[j] - ga[i] * gb[j], -2 * frac)
                                 / mp.ldexp(gu[i] - gu[j], -frac))
        for i in range(n):
            mat[i, i] = 1 + mp.fsum(abs(mat[i, j]) for j in range(n) if j != i)
        gd = [int(mp.ldexp(mat[i, i], frac)) for i in range(n)]
        for i in range(n):
            mat[i, i] = mp.ldexp(gd[i], -frac)
        ref = mp.log(mp.det(mat))
        inv_norm = 1 / min(mp.eigsy(mat, eigvals_only=True))
        pivots, largest = cauchy_schur_pivots(ga, gb, gu, gd, frac, "test matrix")
        assert largest > 1 << frac
        got = mp.fsum(mp.log(mp.ldexp(p, -frac)) for p in pivots)
        bound = log_det_error(n, cauchy_schur_entry_error(gu, largest, frac), inv_norm)
        assert bound < mpf(2) ** -(frac - 30)
        assert abs(got - ref) <= bound


def test_schur_nonpositive_pivot_raises():
    # u = (0, 1), a = (1, 0), b = (0, 1): M_10 = 1, so with unit diagonal the
    # second pivot is 1 - 1 = 0
    one = 1 << 64
    with pytest.raises(InternalConsistencyError,
                       match="Schur pivot in singular test matrix at index 1"):
        cauchy_schur_pivots([one, 0], [0, one], [0, one], [one, one], 64,
                            "singular test matrix")
