"""The shared fixed-point Cholesky log-determinant."""

import math

import pytest
from mpmath import mp, mpf

from twlab.errors import InternalConsistencyError
from twlab.linalg import cholesky_log_pivots


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
