"""High-accuracy scalar special functions: Airy Ai/Ai' and the tail
integral of Ai, modified Bessel I_j, and the constant zeta'(-1).

Everything here is a pure function of its arguments.  Each kernel takes the
precision it returns as ``bits``, lifts the working precision internally by
guard bits and rounds the result back to ``bits``; none sees a tolerance.
An argument is read at that working precision, never at the ambient mp.prec,
so a value with more bits than the caller's context loses none of them.
Ai, Ai' and int_0^x Ai come from one kernel at every finite x
(_airy_maclaurin): the two Maclaurin solutions of w'' = x w summed on
Python integers on the grid 2^-prec, prec = _maclaurin_bits(|x|, bits),
one floor per term and one per term of each divided sum, stopped once the
terms fall below one unit past their peak, and combined with Ai(0) and
Ai'(0), put on the grid once, in one exact integer sum.  Its error is a
count of units, polynomial in |x| and the number of terms, times the
largest term, about e^((2/3)|x|^(3/2)); for x > 0 the values are about the
reciprocal of that.  The guard's (4/3)|x|^(3/2) log2 e bits cover the two
exponentials and its 64 further bits the count, so the Airy values are
exact to ``bits`` bits.  Ai and Ai' at many sorted
points (the Nystrom nodes) come from airy_ai_walk_grid: one airy_ai start
at the largest point (memoised per point and precision), then Taylor steps
down whose coefficients follow from Ai'' = u Ai (DLMF 9.2.1), on Python
integers: the points on one grid, on which every step is exact, Ai and Ai'
on a grid per step, and each Taylor sum stopped by its own terms, one floor
per term.  Downward is stable because Ai is recessive as u grows: the Bi
part of a rounding error shrinks relative to Ai on the way down.

zeta'(-1) is an Euler-Maclaurin sum cut at N = _bernoulli_start(prec), the
argument from which the least term of its Bernoulli tail, about
e^(-2 pi N), lies below 2^-prec; the tail is summed by
precision.sum_to_least_term from one head term.
The Bessel row I_0(2t) .. I_J(2t) comes from Miller's backward recurrence
on integers, normalised by e^(2t) = I_0 + 2 sum I_j (every term is
positive); its values reach e^(2t) while their consumers work at O(1)
scale, so it carries ceil(2t log2 e) extra guard bits.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from itertools import accumulate, chain, count, repeat
from typing import List, Sequence, Tuple

from mpmath import libmp, mp, mpf

from .errors import DomainError, index, real
from .fixedpoint import from_grid, row_to_grid, to_grid
from .precision import round_to, sum_to_least_term

_LOG2_E = 1.4426950408889634
_ROUND = libmp.round_nearest

_zeta_cache: dict = {}

# "pair" -> (bits, Ai(0), Ai'(0))
_airy_const_cache: dict = {}

# (top point, working bits) -> the airy_ai start of airy_ai_walk_grid there
_walk_start_cache: dict = {}


def _argument(x, prec: int) -> mpf:
    """x as an mpf rounded to ``prec`` bits, whatever the ambient mp.prec,
    so an argument with more bits than the caller's context keeps them up
    to the kernel's working precision."""
    with mp.workprec(prec):
        return mpf(x)


# ---------------------------------------------------------------------------
# zeta'(-1)
# ---------------------------------------------------------------------------

def _bernoulli_start(prec: int) -> float:
    """The argument w from which the least term of a Bernoulli asymptotic
    series, about e^(-2 pi w), lies below 2^-prec: (prec ln 2 + 40) / (2 pi)
    + 2, with e^-40 to spare for the powers of w that multiply it."""
    return (prec * math.log(2) + 40) / (2 * math.pi) + 2


def _zeta_prime_minus_one_raw(prec: int) -> mpf:
    """Euler-Maclaurin evaluation of the zeta-series derivative continued to
    s = -1, cut at N = ceil(_bernoulli_start(prec)).  Differentiating the
    standard tail expansion termwise at s = -1:

      zeta'(-1) = -sum_{n<N} n ln n + (N^2/2) ln N - N^2/4 - (N/2) ln N
                  + (1 + ln N)/12
                  - sum_{k>=2} B_{2k} (2k-3)! / (2k)! * N^(2-2k)
    """
    with mp.workprec(prec + 30):
        nn = int(math.ceil(_bernoulli_start(prec)))
        lognn = mp.log(nn)
        n2 = mpf(nn) * nn
        head = (-mp.fsum(n * mp.log(n) for n in range(2, nn))
                + n2 / 2 * lognn - n2 / 4 - mpf(nn) / 2 * lognn + (1 + lognn) / 12)
        s, _ = sum_to_least_term(chain([head], (
            -mp.bernoulli(2 * k) / ((2 * k) * (2 * k - 1) * (2 * k - 2) * p)
            for k, p in zip(count(2), accumulate(repeat(n2), operator.mul,
                                                 initial=n2)))))
        return s


def zeta_prime_minus_one(bits: int) -> mpf:
    """zeta'(-1) to ``bits`` bits, computed (not embedded) via
    Euler-Maclaurin summation."""
    index(bits, "bits", 1)
    hit = _zeta_cache.get(bits)
    if hit is None:
        hit = _zeta_cache[bits] = round_to(_zeta_prime_minus_one_raw(bits + 16), bits)
    return hit


# ---------------------------------------------------------------------------
# Airy Ai and Ai'
# ---------------------------------------------------------------------------

def _gamma_one_third(prec: int) -> mpf:
    """Gamma(1/3) at ``prec`` bits from the elliptic closed form

      Gamma(1/3)^3 = 2^(7/3) 3^(-1/4) pi K(sin 15 deg),
      K(k) = pi / (2 AGM(1, sqrt(1 - k^2))),  cos 15 deg = sqrt(2 + sqrt 3) / 2

    (Borwein and Zucker, IMA J. Numer. Anal. 12, 1992): one AGM, about
    log2(prec) square roots, and a cube root."""
    with mp.workprec(prec):
        agm = mp.agm(1, mp.sqrt(2 + mp.sqrt(3)) / 2)
        return mp.cbrt(mp.cbrt(16) * mp.pi ** 2 / (mp.root(3, 4) * agm))


def _airy_constants(prec: int) -> Tuple[mpf, mpf]:
    """Ai(0) = 3^(-2/3)/Gamma(2/3) and Ai'(0) = -3^(-1/3)/Gamma(1/3), rounded
    to ``prec`` bits from the pair computed at the highest precision asked
    for so far (every Maclaurin evaluation needs them).  Both come from one
    Gamma(1/3) (_gamma_one_third) at prec + 16 bits: the reflection formula
    gives Gamma(2/3) = 2 pi / (sqrt 3 Gamma(1/3)), and Ai'(0) =
    -3^(1/6) Gamma(2/3)/(2 pi)."""
    hit = _airy_const_cache.get("pair")
    if hit is None or hit[0] < prec:
        with mp.workprec(prec + 16):
            gamma = 2 * mp.pi / (mp.sqrt(3) * _gamma_one_third(prec + 16))
            ai0 = mp.power(3, mpf(-2) / 3) / gamma
            aip0 = -mp.power(3, mpf(1) / 6) * gamma / (2 * mp.pi)
        hit = _airy_const_cache["pair"] = (prec, ai0, aip0)
    return round_to(hit[1:], prec)


def _airy_maclaurin(x, prec: int) -> Tuple[int, int, int]:
    """(Ai(x), Ai'(x), int_0^x Ai) on the grid 2^-(2 prec), from the two
    Maclaurin solutions of w'' = x w summed on Python integers.

    With t = x^3, f (f(0) = 1, f'(0) = 0) and g (g(0) = 0, g'(0) = 1) are

        f = sum a_k,                a_k = a_(k-1) t / ((3k - 1) 3k),
        g = x sum b_k,              b_k = b_(k-1) t / (3k (3k + 1)),

    a_0 = b_0 = 1, and term by term

        f' = x^2 sum a_k / (3k + 2),    int_0^x f = x sum a_k / (3k + 1),
        g' = sum (3k + 1) b_k,          int_0^x g = x^2 sum b_k / (3k + 2).

    x (read at prec bits: exact on the grid for |x| >= 1, else truncated by
    less than a unit), t and every term live on the grid 2^-prec.  A term
    costs one product and one floor: floor(floor(a t 2^-prec) / d) =
    floor(a t 2^-prec / d) for a positive integer d.  Each divided sum adds
    one more floor per term.  The sums stop at the first k past the peak,
    where the terms halve ((3k + 2)(3k + 3) > 2 |t|), at which a_k and b_k
    lie within one unit;
    the omitted tails are then below two units in f and g and below
    2 (3k + 4) units in g'.  Ai = Ai(0) f + Ai'(0) g (and likewise Ai' and
    the integral) is one exact integer sum on 2^-(2 prec), with Ai(0) and
    Ai'(0) put on 2^-prec once.

    The error, in units 2^-prec, with N terms summed and M >= 1 the largest
    of them: a floor is carried into the later terms in proportion to them,
    so into a sum by at most N M units, and into g' by (3N + 1) N M; the
    products by x and x^2 scale that by 1 + x^2; Ai(0) and Ai'(0) are off
    by one unit each, times |f|, |g| <= N M.  So each value is off by less
    than 3 N^3 (1 + x^2) M units.  M is about e^((2/3)|x|^(3/2)), and for
    x > 0 the value is at least about e^(-(2/3) x^(3/2)) / (2 sqrt(pi)
    x^(1/4)), so the guard's (4/3)|x|^(3/2) log2 e bits cover M over the
    value and its further 64 bits the count: 2^47 of them at x = 66 (N =
    1012 at bits = 1056), where Ai, Ai' and the tail integral measured
    against the sums on the doubled grid are off by 2^-1120 relative.  For x < 0 the values are of size
    |x|^(-1/4) between the zeros of Ai, and the guard is twice what M needs.
    """
    one = 1 << prec
    xg = to_grid(_argument(x, prec), prec)
    x2 = xg * xg >> prec
    t = x2 * xg >> prec
    lim = 2 * abs(t) >> prec
    a = b = one
    f, fp, fi = one, one // 2, one
    g, gp, gi = one, one, one // 2
    k3 = 0
    while True:
        k3 += 3
        a = (a * t >> prec) // ((k3 - 1) * k3)
        b = (b * t >> prec) // (k3 * (k3 + 1))
        f += a
        fp += a // (k3 + 2)
        fi += a // (k3 + 1)
        g += b
        gp += (k3 + 1) * b
        gi += b // (k3 + 2)
        if -1 <= a <= 1 and -1 <= b <= 1 and (k3 + 2) * (k3 + 3) > lim:
            break
    c1, c2 = (to_grid(c, prec) for c in _airy_constants(prec))
    return (c1 * f + c2 * (xg * g >> prec),
            c1 * (x2 * fp >> prec) + c2 * gp,
            c1 * (xg * fi >> prec) + c2 * (x2 * gi >> prec))


def _maclaurin_bits(ax: float, bits: int) -> int:
    """Working bits for the Maclaurin sums at |x| = ax: the caller's
    ``bits`` plus the ~(4/3)|x|^(3/2) nats they lose to cancellation."""
    return bits + int(2.0 * (2.0 / 3.0) * ax ** 1.5 * _LOG2_E) + 64


def airy_ai(x, bits: int) -> Tuple[mpf, mpf]:
    """(Ai(x), Ai'(x)) to ``bits`` bits for every finite x: the integer
    Maclaurin kernel at prec = _maclaurin_bits(|x|, bits), rounded once to
    nearest; the guard holds the kernel's error (_airy_maclaurin) far below
    that rounding."""
    ax = abs(real(x, "x"))
    index(bits, "bits", 1)
    prec = _maclaurin_bits(ax, bits)
    ai, aip, _ = _airy_maclaurin(x, prec)
    return from_grid(ai, 2 * prec, bits), from_grid(aip, 2 * prec, bits)


def _shift(n: int, k: int) -> int:
    """n 2^k for integers n and k, floored when k < 0."""
    return n << k if k >= 0 else n >> -k


def airy_ai_walk_grid(points: Sequence[int], point_frac: int,
                      bits: int) -> List[Tuple[int, int, int]]:
    """(A, D, F) at each of the strictly ascending points p 2^-point_frac,
    with Ai = A 2^-F and Ai' = D 2^-F, by one Taylor walk down from the
    largest point on Python integers, each point on the grid of the step
    that reached it.

    Each step h = u_next - u < 0 sums the Taylor series of Ai about u,
    whose scaled terms d_k = Ai^(k)(u) h^k / k! follow from Ai'' = u Ai
    (DLMF 9.2.1):

        d_(k+1) = (u h^2 d_(k-1) + h^3 d_(k-2)) / (k (k+1)),
        Ai(u + h) = sum d_k,   h Ai'(u + h) = sum k d_k,

    with d_0 = Ai(u), d_1 = h Ai'(u), d_(-1) = 0.  Downward is the stable
    direction: Ai is the recessive solution as u grows, so the Bi
    component a rounding error introduces shrinks relative to Ai on the way
    down, and the relative error of the start is carried, not amplified.
    Upward, Bi would swamp Ai.

    The start is airy_ai at the top point at w = bits + 32 bits,
    memoised per (top point, w), put on the grid 2^-F with F = w + 8 -
    mag(max(|Ai|, |Ai'|)).  A step h is an exact difference of the points.
    It picks e = w + 8 + max(0, -mag(h)) and moves Ai and Ai' onto F = e -
    mag(max(|Ai|, |Ai'|)), so both keep e bits; the extra bits of a short
    step pay for the division by h that gives Ai'.  u h^2 and h^3 are
    integer products shifted onto 2^-e, and each term d_k, on 2^-F, costs
    one floor:

        d_(k+1) = floor((u h^2 d_(k-1) + h^3 d_(k-2)) / (k (k+1))).

    The sum stops once k (k+1) > 2 (|u h^2| + |h^3|) and the last three
    terms lie within one unit.  From there on each term is below half the
    larger of the two it comes from, so the omitted tail of Ai is below
    three units and that of h Ai' below 3 (k + 6) units, k the last index
    summed.  Ai' = (h Ai') / h is one floor division.  So a step's error
    is one unit of its grid per term, shift and division, plus that tail.
    """
    index(bits, "bits", 1)
    if not points:
        raise DomainError("airy_ai_walk_grid requires at least one point")
    if any(not lo < hi for lo, hi in zip(points, points[1:])):
        raise DomainError("airy_ai_walk_grid requires strictly ascending points")
    w = bits + 32
    key = (from_grid(points[-1], point_frac), w)
    if key not in _walk_start_cache:
        # airy_ai reads its argument at the ambient precision: keep it exact
        with mp.workprec(max(w, abs(points[-1]).bit_length())):
            _walk_start_cache[key] = airy_ai(key[0], w)
    f, (ai, aip) = row_to_grid(_walk_start_cache[key], w + 8)
    out = [(ai, aip, f)]
    cube = 3 * point_frac
    for u, u_next in zip(reversed(points[1:]), reversed(points[:-1])):
        h = u_next - u
        e = w + 8 + max(0, point_frac - (-h).bit_length())
        s = e - max(abs(ai).bit_length(), abs(aip).bit_length())
        f += s
        a = _shift(u * h * h, e - cube)
        b = _shift(h * h * h, e - cube)
        lim = 2 * (abs(a) + abs(b)) >> e
        d_2, d_1, d_0 = 0, _shift(ai, s), _shift(h * aip, s - point_frac)
        val = d_1 + d_0
        der = d_0
        k = 1
        while True:
            d_2, d_1, d_0 = d_1, d_0, ((a * d_1 + b * d_2) >> e) // (k * (k + 1))
            k += 1
            val += d_0
            der += k * d_0
            if -1 <= d_0 <= 1 and -1 <= d_1 <= 1 and -1 <= d_2 <= 1 \
                    and k * (k + 1) > lim:
                break
        ai, aip = val, (der << point_frac) // h
        out.append((ai, aip, f))
    out.reverse()
    return out


def airy_ai_tail_integral(x, bits: int) -> mpf:
    """int_x^inf Ai(s) ds = 1/3 - int_0^x Ai(s) ds.

    The last integral is the Maclaurin series of Ai integrated term by term,
    from the same integer kernel and with the same guard bits as airy_ai:
    its sums are the terms of f and g divided by 3k + 1 and 3k + 2, each
    one more floor per term, and 1/3 is floored once on the finer grid of
    the result.  The cancellation, now against 1/3, is the same size (the
    value is about Ai(x) / sqrt(x) for large x > 0), so it too is exact to
    ``bits`` bits."""
    ax = abs(real(x, "x"))
    index(bits, "bits", 1)
    prec = _maclaurin_bits(ax, bits)
    _, _, integral = _airy_maclaurin(x, prec)
    return from_grid((1 << 2 * prec) // 3 - integral, 2 * prec, bits)


# ---------------------------------------------------------------------------
# Modified Bessel row I_0(2t), ..., I_maxj(2t)
# ---------------------------------------------------------------------------

def _log_bessel_i_debye(n: int, z: float) -> float:
    """log I_n(z) from the leading Debye term (DLMF 10.41.3),
    e^(s - n asinh(n/z)) / sqrt(2 pi s) with s = sqrt(n^2 + z^2); its
    relative error is O(1/s), far below what sizing a start index needs."""
    s = math.hypot(n, z)
    return s - n * math.asinh(n / z) - 0.5 * math.log(2.0 * math.pi * s)


def _miller_start(max_j: int, z: float, bits: int) -> int:
    """The first N > max_j with I_N(z)/I_{max_j}(z) < 2^-(bits + 16).

    The normalisation sum loses the orders above N, and its error is first
    order in I_N/I_{max_j} (the contamination of the ratios f_j/f_0 by the
    recessive solution is only second order), so the ratio itself, not its
    square, is sized against the working precision.  The Debye term is no
    estimate of I_0 at small z, so order 0 is measured against I_1 <= I_0,
    which only raises N.  The Debye estimate decreases in n (its derivative
    is -asinh(n/z) - n/(2 s^2)), so N is bracketed by doubling and then
    bisected."""
    z = max(z, 1e-300)  # a larger z only raises the ratio, so N stays safe
    target = _log_bessel_i_debye(max(max_j, 1), z) - (bits + 16) * math.log(2.0)

    def below(n: int) -> bool:
        return _log_bessel_i_debye(n, z) < target

    hi = max_j + 1
    while not below(hi):
        hi *= 2
    return bisect_left(range(hi + 1), True, max_j + 1, key=below)


def bessel_i_row_error(bits: int) -> mpf:
    """The absolute error of each entry of bessel_i_row(max_j, two_t, bits),
    for every max_j and two_t; its docstring derives it."""
    index(bits, "bits", 1)
    return mpf(2) ** -(bits + 31)


def bessel_i_row(max_j: int, two_t, bits: int) -> List[mpf]:
    """I_0(two_t) .. I_{max_j}(two_t) by Miller's backward recurrence on
    Python integers.

    f_{j-1} = f_{j+1} + (2j/z) f_j (DLMF 10.29.1) runs down from f_{N+1} = 0,
    f_N = 2^prec, N from _miller_start; the minimal solution in that
    direction is I_j, so f_j = c I_j to working precision for j well below
    N.  c comes from e^z = I_0 + 2 sum_{j>=1} I_j (DLMF 10.35.5), whose terms
    are all positive, so the normalising sum does not cancel.  Gil, Segura
    and Temme, Numerical Methods for Special Functions (SIAM 2007), ch. 4,
    treat the method and its error.  I_{-j} = I_j by symmetry.

    The values reach e^(two_t) while consumers work at O(1), so prec = bits
    + guard + 64 with guard = ceil(two_t log2 e).  A step is f_{j-1} =
    f_{j+1} + floor(j W f_j 2^-G) with W = floor(2^(G+1) / z) >= 2^(prec+1).
    Once a value passes 2^(prec+64), it, the f it steps with and the running
    sum are shifted down to prec bits, and later entries carry the shift as
    their exponent.  e^z at prec + 8 bits over the sum is one integer C, and
    each I_j = f_j C 2^exponent is rounded once, to bits + guard + 32 bits.

    Each entry is within bessel_i_row_error(bits) = 2^-(bits + 31) of
    I_j(two_t): I_j <= e^(two_t) <= 2^guard, so the rounding costs at most
    2^-(bits + 32).  Before it, in units 2^-prec relative to the value: each
    f a step multiplies or forms is at least 2^(prec-1) (N exceeds two_t / 2
    and I_j decreases in j), so a step's floor costs 2 units, W's truncation
    half a unit, a shift 4 for the pair and 2 for the sum, and e^z and C
    together 1/64.  Run backward the recurrence is stable for I_j (Gil,
    Segura and Temme, ch. 4): the recessive part an error adds shrinks on
    the way down, so errors add up without growing, 9 units a step in each
    f_j and in the sum, and _miller_start keeps the start's truncation below
    2^-16 of a unit.  So I_j is exact to 18 N units, 18 N 2^-(bits + 64) <=
    2^-(bits + 32) for any N below 2^27.
    """
    index(max_j, "max_j", 0)
    index(bits, "bits", 1)
    guard = int(math.ceil(abs(real(two_t, "two_t")) * _LOG2_E))
    prec = bits + guard + 64
    z = _argument(two_t, prec)
    if z < 0:
        raise DomainError("two_t must be nonnegative")
    if z == 0:
        return [mpf(1)] + [mpf(0)] * max_j
    _, man, exp, bc = z._mpf_
    g = prec + max(exp + bc, 0)
    w = (1 << (g + 1 - exp)) // man
    hi, lo, total, shift = 1 << prec, 0, 0, 0
    kept = [None] * (max_j + 1)
    for j in range(_miller_start(max_j, float(z), prec), 0, -1):
        if j <= max_j:
            kept[j] = (hi, shift)
        total += 2 * hi
        hi, lo = lo + (j * w * hi >> g), hi
        if hi >> (prec + 64):
            s = hi.bit_length() - prec
            hi, lo, total, shift = hi >> s, lo >> s, total >> s, shift + s
    kept[0] = (hi, shift)
    total += hi
    _, e_man, e_exp, e_bc = libmp.mpf_exp(z._mpf_, prec + 8, _ROUND)
    k = prec + 8 + total.bit_length() - e_bc
    c = (e_man << k) // total
    return [mp.make_mpf(libmp.from_man_exp(f * c, e_exp - k + s - shift, prec - 32, _ROUND))
            for f, s in kept]
