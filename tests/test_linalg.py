"""The fixed-point Cholesky and LU log-determinants."""

import math

import pytest
from mpmath import mp, mpf

from twlab.errors import InternalConsistencyError
from twlab.linalg import cholesky_log_pivots, lu_log_abs_pivots


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
    # the Toeplitz ladder passes full rows; what lies past the diagonal
    # must not change the pivots
    frac = 96
    lower = [[(4 << frac) if i == j else (1 << frac) for j in range(i + 1)]
             for i in range(3)]
    padded = [row + [-7] * (3 - len(row)) for row in lower]
    with mp.workprec(96):
        assert (cholesky_log_pivots(padded, frac, "padded")
                == cholesky_log_pivots(lower, frac, "lower"))


def _on_grid(mat, frac):
    return [[int(mp.ldexp(v, frac)) for v in row] for row in mat]


def test_lu_zero_leading_entry_swaps_rows():
    # no LU without a row swap exists; |det| = 6, pivots 2 then 3 after the
    # swap, and the input rows stay as they were
    frac = 64
    rows = _on_grid([[0, 3], [2, 5]], frac)
    before = [list(r) for r in rows]
    with mp.workprec(64):
        logs = lu_log_abs_pivots(rows, frac, "swap test matrix")
        assert logs == [mp.log(2), mp.log(3)]
    assert rows == before


def test_lu_nonsymmetric_matches_mp_det():
    # a 10x10 nonsymmetric matrix with entries of both signs and several
    # sizes, on which partial pivoting swaps rows at steps 4 and 6
    n, frac = 10, 400
    with mp.workprec(400):
        mat = [[mpf(((3 * i + 7 * j) % 11) - 5) / (1 + abs(i - 2 * j)) + (i == j)
                for j in range(n)] for i in range(n)]
        ref = mp.log(abs(mp.det(mp.matrix(mat))))
        logs = lu_log_abs_pivots(_on_grid(mat, frac), frac, "nonsymmetric matrix")
        assert len(logs) == n
        assert abs(mp.fsum(logs) - ref) <= mpf(2) ** -380


def test_lu_singular_matrix_raises():
    # the second row is twice the first; the multiplier 1/2 is exact on the
    # grid, so the second pivot is exactly zero
    frac = 64
    rows = _on_grid([[1, 2], [2, 4]], frac)
    with pytest.raises(InternalConsistencyError, match="singular test matrix at index 1"):
        lu_log_abs_pivots(rows, frac, "test matrix")
