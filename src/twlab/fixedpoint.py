"""Fixed-point arithmetic on Python integers for the high-precision loops.

A value v is put on the grid 2^-F once, as the integer v 2^F truncated
toward zero (to_grid).  The loop then runs on Python ints: a product of two
grid values is exact in units of 2^-2F and costs one integer
multiplication instead of an mpf operation, a dot product is exact up to
the one conversion back (dot), and a shift by F returns to the grid at the
cost of one floor, one unit 2^-F.  The result is converted back once
(from_grid), exactly or rounded to nearest at a chosen precision.  The
accumulated error is a few units per floor, bounded as for floating point
with the unit roundoff replaced by the grid step (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., ch. 10).

The grid is absolute, so its error is relative only to the largest entry it
was sized for.  Rows of values that differ widely in size therefore get one
grid each (row_to_grid, or regrid for a row already on a grid): F = bits -
mag(largest entry), so every row keeps ``bits`` significant bits of its
largest entry, whatever its scale.  The Hastings-McLeod Chebyshev tables
need this.  q falls from about 2.4 at
x = -12 to about 1e-7 at x = 8, so one global grid sized for the largest row
loses about 25 bits of relative accuracy at the right end.  Measured on the
default 256-bit solve, over 1600 points of [-12, 8] against the same sums
at 512 bits: with one grid of 272 fraction bits for every row, q was off by
1.0e-74 relative at x = 7.99, far more than 2^-256 = 8.6e-78; with one grid
per row and 272 bits for each row's largest entry, at the same cost, by
2.2e-81.

Clenshaw's recurrence for sum c_k T_k(t) (Trefethen, Approximation Theory
and Approximation Practice, ch. 3) runs on such a row with t on its own
grid (clenshaw).  Each step floors once, and a floor in b_k reaches the sum
multiplied by at most k + 1 (it propagates like U_k(t)), so a degree-n sum
is off by at most about n^2 / 2 units of the row's grid: 9 bits at n = 24.
"""

from __future__ import annotations

import math
import operator
from typing import List, Sequence, Tuple

from mpmath import libmp, mp, mpf


def to_grid(v, frac_bits: int) -> int:
    """v 2^frac_bits truncated toward zero, the value of
    int(mp.ldexp(v, frac_bits)).  Raises ValueError for inf or nan.

    A float is read exactly from float.as_integer_ratio, whose denominator
    is a power of two, without building an mpf; the result is then a
    mantissa of at most 53 bits, shifted left or truncated.  (The
    Hastings-McLeod refinement reads whole float64 arrays this way by
    np.frexp, painleve2._steps_on_grid.)"""
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError("cannot put inf or nan on a fixed-point grid")
        num, den = v.as_integer_ratio()
        exp = frac_bits - den.bit_length() + 1
        n = abs(num) << exp if exp >= 0 else abs(num) >> -exp
        return -n if num < 0 else n
    sign, man, exp, _ = mp.convert(v)._mpf_
    if not man:
        if exp:
            raise ValueError("cannot put inf or nan on a fixed-point grid")
        return 0
    exp += frac_bits
    n = man << exp if exp >= 0 else man >> -exp
    return -n if sign else n


def from_grid(n: int, frac_bits: int, prec: int = 0) -> mpf:
    """n 2^-frac_bits as an mpf: exact when prec is 0 (as mp.ldexp(n,
    -frac_bits) is), else rounded to nearest at prec bits."""
    return mp.make_mpf(libmp.from_man_exp(n, -frac_bits, prec, libmp.round_nearest))


def dot(xs: Sequence[int], ys: Sequence[int]) -> int:
    """sum x_i y_i, exact; on the grid 2^-(F + G) for grids 2^-F and 2^-G."""
    return sum(map(operator.mul, xs, ys))


def row_to_grid(values: Sequence, bits: int) -> Tuple[int, List[int]]:
    """(F, [to_grid(v, F) for v in values]) with F = bits - mag(largest
    |v|), so the largest entry has ``bits`` bits; F = bits for a zero row.
    Raises ValueError for inf or nan anywhere in the row.

    One pass over each value's raw (sign, man, exp, bc) tuple does both:
    a nonzero mpf is man 2^exp with man of bc bits, so its mag is exp + bc,
    and its entry is man shifted by exp + F and signed, which is what
    to_grid computes.  Values other than mpfs (ints, floats) go through
    mp.convert first, as in to_grid."""
    parts = [v._mpf_ if isinstance(v, mpf) else mp.convert(v)._mpf_ for v in values]
    top = None
    for _, man, exp, bc in parts:
        if man:
            if top is None or exp + bc > top:
                top = exp + bc
        elif exp:
            raise ValueError("cannot put inf or nan on a fixed-point grid")
    frac = bits - top if top is not None else bits
    row = []
    for sign, man, exp, _ in parts:
        exp += frac
        n = man << exp if exp >= 0 else man >> -exp
        row.append(-n if sign else n)
    return frac, row


def rescale(row: Sequence[int], frac: int, to_frac: int) -> List[int]:
    """The values row[i] 2^-frac on the grid 2^-to_frac, truncated toward
    zero: to_grid of each value, in integers (truncation toward zero of an
    exact value commutes with a shift)."""
    shift = to_frac - frac
    if shift >= 0:
        return [n << shift for n in row]
    return [n >> -shift if n >= 0 else -(-n >> -shift) for n in row]


def regrid(row: Sequence[int], frac: int, bits: int) -> Tuple[int, List[int]]:
    """row_to_grid of the values row[i] 2^-frac, in integers: the row is
    shifted so its largest entry has ``bits`` bits, truncating toward zero."""
    top = max(map(abs, row), default=0).bit_length()
    if not top:
        return bits, list(row)
    return frac + bits - top, rescale(row, frac, frac + bits - top)


def clenshaw(coeffs: Sequence[int], t: int, t_bits: int) -> int:
    """sum coeffs[k] T_k(t) on the grid of coeffs, for t = t 2^-t_bits in
    [-1, 1]."""
    b1 = b2 = 0
    for c in coeffs[:0:-1]:
        b1, b2 = ((t * b1) >> (t_bits - 1)) - b2 + c, b1
    return ((t * b1) >> t_bits) - b2 + coeffs[0]
