"""Log-determinant of a symmetric positive definite matrix, shared by the
Fredholm (Nystrom) and Toeplitz (moment matrix) routes."""

from __future__ import annotations

from typing import List, Sequence

from mpmath import mp, mpf

from .errors import InternalConsistencyError


def cholesky_log_pivots(mat: Sequence[Sequence[mpf]], what: str) -> List[mpf]:
    """log d_k, k = 0..n-1, for the Cholesky pivots d_k = D_{k+1}/D_k of the
    symmetric positive definite ``mat`` (D_k its k-th leading principal
    minor, D_0 = 1), so log det mat is the sum of the result.

    Left-looking, at the caller's working precision: row i of the factor L
    (mat = L L^T) is formed from the rows above it, each entry with one
    mp.fdot, whose products are exact and whose sum is rounded once.  A
    positive definite matrix has positive pivots, so a nonpositive one means
    the matrix (named by ``what``) is wrong or the precision too low, and
    raises InternalConsistencyError."""
    low: List[List[mpf]] = []
    inv_diag: List[mpf] = []
    out: List[mpf] = []
    for i, row in enumerate(mat):
        li: List[mpf] = []
        for j in range(i):
            # li holds j entries, so fdot pairs them with low[j][:j]
            li.append((row[j] - mp.fdot(li, low[j])) * inv_diag[j])
        d = row[i] - mp.fdot(li, li)
        if d <= 0:
            raise InternalConsistencyError(
                f"nonpositive Cholesky pivot in {what} at index {i}")
        root = mp.sqrt(d)
        li.append(root)
        low.append(li)
        inv_diag.append(1 / root)
        out.append(mp.log(d))
    return out
