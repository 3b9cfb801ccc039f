"""Log-determinants by two integer factorisations: the generalized Schur
algorithm for a symmetric Cauchy-like matrix given by its generators (the
Fredholm oracle's Nystrom matrix) and the Cholesky of a symmetric positive
definite matrix (the route that checks the Toeplitz ladders, which come
from Levinson-Durbin, independently).

Both run in fixed point on Python integers (twlab.fixedpoint supplies
the exact dot products and the conversion back), on the grid 2^-F: a value
v is held as the integer v 2^F, rounded.  F is the precision the caller
already works at: ctx.precision_bits + 32 for the Nystrom matrix, the pass
precision for a Toeplitz moment matrix.  A 2^-F grid is as accurate as
F-bit floating point when the diagonal of M is at least about 1.  The
Nystrom diagonal lies in (0, 1], at least 0.82 at x = -8, m = 80; the
Toeplitz diagonal is I_0(2t) >= 1.

Schur.  The matrix M is given by generators a_i, b_i, distinct nodes u_i
and its diagonal d_i:

    M_ij = (b_i a_j - a_i b_j) / (u_i - u_j),  i != j,   M_ii = d_i,

so (u_i - u_j) M_ij = b_i a_j - a_i b_j has displacement rank 2.  The
Schur complement of a pivot keeps that form: eliminating pivot k with
multipliers l_i = M_ik / d_k takes g_i = (a_i, b_i) to g_i - l_i g_k and
d_i to d_i - l_i M_ik (Gohberg, Kailath and Olshevsky, Math. Comp. 64
(1995)).  So cauchy_schur_pivots forms no entry but the column it
eliminates, and the m pivots of the LDL^T factorisation cost O(m^2)
integer operations: per i > k, s = (b_i a_k - a_i b_k) // (u_i - u_k) (an
exact numerator, one floor), l_i = (s 2^F) // d_k, and the three updates
a_i -= (l_i a_k) >> F, b_i -= (l_i b_k) >> F, d_i -= (l_i s) >> F.  det M
is the product of the pivots.

The floor l_i is formed from one reciprocal per pivot, R = 2^K // d_k,
as (s (R + 1)) >> (K - F) for s > 0 and (s R) >> (K - F) otherwise, which
is exactly (s 2^F) // d_k whenever |s 2^F| d_k < 2^K.  (With N = s 2^F and
N/d_k = q + r/d_k, 0 <= r < d_k: 2^K/d_k - 1 < R <= 2^K/d_k, so for N > 0
the product N (R + 1)/2^K lies in (N/d_k, N/d_k + N/2^K], and for N <= 0
N R/2^K lies in [N/d_k, N/d_k + |N|/2^K); the excess is below 1/d_k and
the fractional part r/d_k at most 1 - 1/d_k, so the floor is q.)  With T
the pass's largest entry so far (at least every |a_i| and |b_i| it
holds) and g the least node gap, both on the grid,
|s| <= 2 T^2 / g + 1, so K = F + bitlen(2 T^2 // g) + 1 + bitlen(d_k) + 1
meets the condition at every step: the multipliers, so the pivots and the
largest entry held, are bit for bit those of the division.

Cholesky.  The input is the lower triangle of the matrix on the grid:
rows[i][j] = M_ij 2^F, j <= i (entries past the diagonal are not read).
The factor L (M = L L^T) is kept on the same grid, so every dot product of
two rows of L is exact in units of 2^-2F, and each entry of L costs one
integer division by the diagonal of L; each pivot costs one math.isqrt.

Each factorisation comes with its backward error on the grid, entry by
entry (for the Cholesky the fixed-point form of Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., Thm 10.3); the pivots are
exact for M + E.

- Schur: the pivots p_k are the exact LDL^T pivots of M + E, M the matrix
  of the input generators taken exactly.  Let T be the largest of 1, the
  diagonal and every generator entry and multiplier the pass held (the
  pass returns it), W the span and g the smallest gap of the nodes.  Step
  k changes entry (i, k) by -(M_ik - p_k l_i), which two floors hold below
  2^-F (1 + T), and entry (i, i) by less than 2^-F (T^2 + 1).  Entry
  (i, j) of the next Schur complement is read from the floored
  generators: their floors (< 2^-F each, against generators of size at
  most T) and the multipliers' errors (l_j (u_i - u_k) e_i, |e_i| < 2^-F
  (1 + T)) reach it divided by u_i - u_j, so it changes by less than
  2^-F (4 T^2 W + 4 T + 1) / g.  Each entry is changed by at most m steps,
  so |E_ij| < 2^-F m (T + 1)^2 (4 (W + 1) / g + 1)
  (cauchy_schur_entry_error).  The division by node gaps makes this looser
  than a Cholesky's: 2^(22-F) to 2^(28-F) on the Nystrom matrices at
  m = 80.
- Cholesky: with the exact pivots p_i that it takes logs of, L L^T = M + E,
  where L has the computed off-diagonal entries and diagonal sqrt(p_i).
  E is zero on the diagonal, and off it an entry of L times the isqrt's
  shortfall (< 2^-F) plus the division's floor (< 2^-F) times L_jj; both
  entries are at most sqrt(max_i M_ii), so |E_ij| < 2^(1-F) sqrt(max_i
  M_ii) (cholesky_entry_error).

log_det_error turns an entry bound into the change of log det.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from mpmath import libmp, mp, mpf

from .errors import InternalConsistencyError
from .fixedpoint import dot, from_grid


def cauchy_schur_pivots(a: Sequence[int], b: Sequence[int], u: Sequence[int],
                        d: Sequence[int], frac_bits: int,
                        what: str) -> Tuple[List[int], int]:
    """The LDL^T pivots p_k = D_{k+1}/D_k, k = 0..m-1, of the symmetric
    Cauchy-like matrix M with M_ij = (b_i a_j - a_i b_j) / (u_i - u_j) off
    the diagonal and M_ii = d_i (D_k its k-th leading principal minor), on
    the grid 2^-frac_bits like the inputs, so det M is their product; and
    the largest of 2^frac_bits and every |generator entry|, multiplier and
    diagonal the pass held, the T 2^frac_bits of cauchy_schur_entry_error.
    The nodes u must be distinct; no input list is modified.

    The generalized Schur pass of the module docstring, in the nodes' order.
    Each multiplier (s 2^F) // d_k is formed from the pivot's one exact
    reciprocal 2^K // d_k by a product and a shift, with K sized from the
    largest entry held so far, the least node gap and d_k so that
    |s 2^F| d_k < 2^K: under that condition the product gives the floor
    exactly (module docstring), so the pivots are those of the division.
    A positive definite matrix has positive pivots, so a nonpositive one
    means the matrix (named by ``what``) is wrong or the grid too coarse,
    and raises InternalConsistencyError."""
    a, b, d = list(a), list(b), list(d)
    largest = max(1 << frac_bits, max(map(abs, a)), max(map(abs, b)), max(d))
    n = len(d)
    nodes = sorted(u)
    gap = min((hi - lo for lo, hi in zip(nodes, nodes[1:])), default=1)
    pivots: List[int] = []
    for k in range(n):
        ak, bk, uk, dk = a[k], b[k], u[k], d[k]
        if dk <= 0:
            raise InternalConsistencyError(
                f"nonpositive Schur pivot in {what} at index {k}")
        pivots.append(dk)
        # |s| <= 2 T^2 / g + 1 <= 2^bound, T = largest
        bound = (2 * largest * largest // gap).bit_length()
        shift = bound + 1 + dk.bit_length() + 1
        recip = (1 << (frac_bits + shift)) // dk
        recip_up = recip + 1
        for i in range(k + 1, n):
            ai, bi = a[i], b[i]
            s = (bi * ak - ai * bk) // (u[i] - uk)
            l = (s * (recip_up if s > 0 else recip)) >> shift
            a[i] = ai = ai - ((l * ak) >> frac_bits)
            b[i] = bi = bi - ((l * bk) >> frac_bits)
            d[i] -= (l * s) >> frac_bits
            # the running largest; the next pivot's shift reads it
            if abs(l) > largest:
                largest = abs(l)
            if abs(ai) > largest:
                largest = abs(ai)
            if abs(bi) > largest:
                largest = abs(bi)
    return pivots, largest


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
        out.append(mp.make_mpf(libmp.mpf_log(libmp.from_man_exp(d, -2 * frac_bits),
                                             mp.prec, libmp.round_nearest)))
    return out


def cholesky_entry_error(rows: Sequence[Sequence[int]], frac_bits: int) -> mpf:
    """The bound on |E_ij| of the module docstring for
    cholesky_log_pivots(rows, frac_bits, ...): 2^(1-F) sqrt(max_i M_ii)."""
    top = max(row[i] for i, row in enumerate(rows))
    return 2 * mp.sqrt(from_grid(top, frac_bits)) / mpf(2) ** frac_bits


def cauchy_schur_entry_error(u: Sequence[int], largest: int,
                             frac_bits: int) -> mpf:
    """The bound on |E_ij| of the module docstring for the pivots of
    cauchy_schur_pivots(a, b, u, d, frac_bits, ...) returning ``largest``:
    2^-F m (T + 1)^2 (4 (W + 1) / g + 1) with T = largest 2^-F, and W and g
    the span and the smallest gap of the nodes u."""
    nodes = sorted(u)
    cross = 0
    if len(nodes) > 1:
        span = from_grid(nodes[-1] - nodes[0], frac_bits)
        gap = from_grid(min(hi - lo for lo, hi in zip(nodes, nodes[1:])), frac_bits)
        cross = 4 * (span + 1) / gap
    t = from_grid(largest, frac_bits)
    return len(nodes) * (t + 1) ** 2 * (cross + 1) / mpf(2) ** frac_bits


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
