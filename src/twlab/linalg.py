"""Log-determinants by two integer factorisations: the Cholesky of a
symmetric positive definite matrix, shared by the Fredholm (Nystrom) and
Toeplitz (moment matrix) routes, and a pivoted LU of a general matrix, a
second Toeplitz route.  Both check the Toeplitz ladders, which come from
Levinson-Durbin, independently.

Both run in fixed point on Python integers (twlab.fixedpoint supplies the
exact dot products and the conversion back).  The input is the matrix M on
the grid 2^-F: rows[i][j] = M_ij 2^F, rounded to an integer.  The Cholesky
reads the lower triangle only (j <= i; entries past the diagonal are not
read).  Its factor L (M = L L^T) is kept on the same grid, so every dot
product of two rows of L is exact in units of 2^-2F, and each entry of L
costs one integer division by the diagonal of L; each pivot costs one
math.isqrt.  The LU keeps L and U on the same grid as well, so each entry of
U is one exact dot product and one shift back to the grid, and each entry
of L one floor division by the pivot.

F is the precision the caller already works at: the Nystrom matrix is
assembled at ctx.precision_bits + 32 bits, a Toeplitz moment matrix at its
pass precision.  A 2^-F grid is as accurate as F-bit floating point when
the diagonal of M is at least about 1 (the bounds below against Higham's
multiple of the unit roundoff times sqrt(m_ii m_jj)).  The Nystrom diagonal
lies in (0, 1], at least 0.82 at x = -8, m = 80.  The Toeplitz diagonal is
I_0(2t) >= 1.

Each factorisation comes with its backward error on the grid, entry by
entry (the fixed-point form of Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., Thms 9.3 and 10.3).  With the exact pivots p_i that
the Cholesky takes logs of, L L^T = M + E, where L has the computed
off-diagonal entries and diagonal sqrt(p_i).  E is zero on the diagonal,
and off it an entry of L times the isqrt's shortfall (< 2^-F) plus the
division's floor (< 2^-F) times L_jj; both entries are at most
sqrt(max_i M_ii), so |E_ij| < 2^(1-F) sqrt(max_i M_ii)
(cholesky_entry_error).  The LU gives L U = P M + E with |L_ij| <= 1: an
entry of U is one floor, an entry of L one floor times its pivot, so
|E_ij| < 2^-F (1 + max_k |u_kk|) (lu_entry_error).  log_det_error turns an
entry bound into the change of log det.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from mpmath import mp, mpf

from .errors import InternalConsistencyError
from .fixedpoint import dot, from_grid


def cholesky_log_pivots(rows: Sequence[Sequence[int]], frac_bits: int,
                        what: str) -> List[mpf]:
    """log d_k, k = 0..n-1, for the Cholesky pivots d_k = D_{k+1}/D_k of the
    symmetric positive definite matrix M with rows[i][j] = M_ij 2^frac_bits,
    j <= i (D_k its k-th leading principal minor, D_0 = 1), so log det M is
    the sum of the result.  The logs are taken at the caller's mp.prec.

    Left-looking: row i of L is formed from the rows above it.  Entry j is
    (M_ij 2^2F - sum_k L_ik L_jk) // L_jj with the sum exact, and the pivot
    d_i = M_ii 2^2F - sum_k L_ik^2 gives L_ii = isqrt(d_i).  A positive
    definite matrix has positive pivots, so a nonpositive one means the
    matrix (named by ``what``) is wrong or the grid too coarse, and raises
    InternalConsistencyError."""
    low: List[List[int]] = []
    out: List[mpf] = []
    for i, row in enumerate(rows):
        li: List[int] = []
        for j in range(i):
            lj = low[j]
            # li holds j entries, so map pairs them with lj[:j]
            li.append(((row[j] << frac_bits) - dot(li, lj)) // lj[j])
        d = (row[i] << frac_bits) - dot(li, li)
        if d <= 0:
            raise InternalConsistencyError(
                f"nonpositive Cholesky pivot in {what} at index {i}")
        li.append(math.isqrt(d))
        low.append(li)
        out.append(mp.log(from_grid(d, 2 * frac_bits)))
    return out


def lu_log_abs_pivots(rows: Sequence[Sequence[int]], frac_bits: int,
                      what: str) -> List[mpf]:
    """log |u_kk|, k = 0..n-1, for the pivots of the LU factorisation with
    partial pivoting, P M = L U, of the n x n matrix M with rows[i][j] =
    M_ij 2^frac_bits, so log |det M| is the sum of the result.  The logs
    are taken at the caller's mp.prec; ``rows`` is not modified.

    Left-looking (Doolittle): column k is formed from the k columns of L
    already done.  Entry i of it is (M_ik 2^F - sum_j L_ij U_jk) >> F with
    the sum exact, for i < k an entry of U and for i >= k a pivot candidate;
    the candidate largest in size is swapped into row k (the finished part
    of L moves with its row) and the ones below it become column k of L,
    (c_i 2^F) // u_kk.  A zero pivot means the matrix (named by ``what``) is
    singular on the grid and raises InternalConsistencyError."""
    a = [list(row) for row in rows]
    n = len(a)
    out: List[mpf] = []
    for k in range(n):
        # a[i][:min(i, k)] holds row i of L; dot pairs it with u, which
        # holds the entries of column k of U formed so far
        u: List[int] = []
        for i in range(k):
            u.append(((a[i][k] << frac_bits) - dot(a[i], u)) >> frac_bits)
        for i in range(k, n):
            a[i][k] = ((a[i][k] << frac_bits) - dot(a[i], u)) >> frac_bits
        p = max(range(k, n), key=lambda r: abs(a[r][k]))
        pivot = a[p][k]
        if pivot == 0:
            raise InternalConsistencyError(f"singular {what} at index {k}")
        if p != k:
            a[p], a[k] = a[k], a[p]
        out.append(mp.log(abs(from_grid(pivot, frac_bits))))
        for i in range(k + 1, n):
            a[i][k] = (a[i][k] << frac_bits) // pivot
    return out


def cholesky_entry_error(rows: Sequence[Sequence[int]], frac_bits: int) -> mpf:
    """The bound on |E_ij| of the module docstring for
    cholesky_log_pivots(rows, frac_bits, ...): 2^(1-F) sqrt(max_i M_ii)."""
    top = max(row[i] for i, row in enumerate(rows))
    return 2 * mp.sqrt(from_grid(top, frac_bits)) / mpf(2) ** frac_bits


def lu_entry_error(log_pivots: Sequence[mpf], frac_bits: int) -> mpf:
    """The bound on |E_ij| of the module docstring for the result
    ``log_pivots`` of lu_log_abs_pivots: 2^-F (1 + max_k |u_kk|)."""
    return (1 + mp.exp(max(log_pivots))) / mpf(2) ** frac_bits


def log_det_error(n: int, entry_error: mpf, inv_norm: mpf) -> mpf:
    """A bound on |log det(M + E) - log det M| for n x n matrices with
    |E_ij| <= entry_error and ||M^-1||_2 <= inv_norm: 2 inv_norm n^(3/2)
    entry_error, or inf unless n inv_norm entry_error <= 1/4.  It bounds the
    same change for every leading principal submatrix whose inverse has norm
    at most inv_norm (every one, for M positive definite).

    log det(M + E) - log det M = sum_i log(1 + mu_i), mu_i the eigenvalues
    of M^-1 E.  Each |mu_i| <= ||M^-1 E||_2 <= inv_norm n entry_error <=
    1/4, so |log(1 + mu_i)| <= (4/3) |mu_i|, and sum_i |mu_i| is at most the
    nuclear norm of M^-1 E (Weyl), at most inv_norm sqrt(n) ||E||_F.  The
    factor 2 in place of 4/3 also covers the rounding of this estimate."""
    if not n * inv_norm * entry_error <= mpf(1) / 4:
        return mp.inf
    return 2 * inv_norm * n * mp.sqrt(n) * entry_error
