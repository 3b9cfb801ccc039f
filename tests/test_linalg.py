"""The shared Cholesky log-determinant."""

import pytest
from mpmath import mp, mpf

from twlab.errors import InternalConsistencyError
from twlab.linalg import cholesky_log_pivots


def test_hilbert_log_det():
    # the 8x8 Hilbert matrix is positive definite with condition ~1.5e10
    with mp.workprec(200):
        mat = [[1 / mpf(i + j + 1) for j in range(8)] for i in range(8)]
        pivots = cholesky_log_pivots(mat, "Hilbert matrix")
        assert len(pivots) == 8
        ref = mp.log(mp.det(mp.matrix(mat)))
        assert abs(mp.fsum(pivots) - ref) <= mpf(10) ** -50


def test_nonpositive_pivot_raises():
    # eigenvalues 3 and -1: the second pivot is 1 - 2^2 = -3
    with pytest.raises(InternalConsistencyError, match="indefinite test matrix"):
        cholesky_log_pivots([[mpf(1), mpf(2)], [mpf(2), mpf(1)]],
                            "indefinite test matrix")
