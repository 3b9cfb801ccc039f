"""High-accuracy scalar special functions: Airy Ai/Ai' and the tail
integral of Ai, modified Bessel I_j, log Gamma, log Barnes G, and the
constant zeta'(-1).

Everything here is a pure function of its arguments.  Each function lifts the
working precision internally by enough guard bits to absorb cancellation (the
dominant hazard: Airy Maclaurin summation for moderate |x| loses about
2*(2/3)|x|^(3/2) nats to cancellation, Bessel rows reach magnitude e^(2t)
while their consumers work at O(1) scale) and rounds the result back to the
caller's precision.
"""

from __future__ import annotations

import math
import threading
from typing import List, Tuple

from mpmath import mp, mpf

from .errors import DomainError
from .precision import PrecisionContext, round_to

_LOG2_E = 1.4426950408889634

_zeta_cache: dict = {}
_zeta_lock = threading.Lock()


# ---------------------------------------------------------------------------
# log Gamma (Stirling series + upward recurrence)
# ---------------------------------------------------------------------------

def _log_gamma_raw(z: mpf, prec: int) -> mpf:
    """log Gamma(z) for real z > 0 at ``prec`` bits."""
    with mp.workprec(prec + 20):
        z = mpf(z)
        # Stirling's remainder after the minimal term is ~ e^(-2*pi*w); shift
        # until that sits below the target precision.
        w_min = (prec * math.log(2) + 40) / (2 * math.pi) + 2
        m = max(0, int(math.ceil(w_min - z)))
        w = z + m
        s = (w - mpf(1) / 2) * mp.log(w) - w + mp.log(2 * mp.pi) / 2
        w2 = w * w
        pw = w
        k = 1
        while True:
            term = mp.bernoulli(2 * k) / ((2 * k) * (2 * k - 1) * pw)
            s += term
            if abs(term) < mp.eps * abs(s):
                break
            pw *= w2
            k += 1
            if k > 4 * prec:  # unreachable given the shift; safety stop
                break
        for i in range(m):
            s -= mp.log(z + i)
        return s


def log_gamma(z, ctx: PrecisionContext) -> mpf:
    """log Gamma(z) for z > 0."""
    z = mpf(z)
    if not z > 0:
        raise DomainError(f"log_gamma requires z > 0, got {z}")
    val = _log_gamma_raw(z, ctx.precision_bits + 32)
    return round_to(val, ctx.precision_bits)


# ---------------------------------------------------------------------------
# zeta'(-1) by Euler-Maclaurin summation (independent of Barnes G)
# ---------------------------------------------------------------------------

def _zeta_prime_minus_one_raw(prec: int) -> mpf:
    """Euler-Maclaurin evaluation of the zeta-series derivative continued to
    s = -1.  Differentiating the standard tail expansion termwise at s = -1:

      zeta'(-1) = -sum_{n<N} n ln n + (N^2/2) ln N - N^2/4 - (N/2) ln N
                  + (1 + ln N)/12
                  - sum_{k>=2} B_{2k} (2k-3)! / (2k)! * N^(2-2k)
    """
    with mp.workprec(prec + 30):
        nn = 64
        s = mpf(0)
        for n in range(2, nn):
            s -= n * mp.log(n)
        lognn = mp.log(nn)
        n2 = mpf(nn) * nn
        s += n2 / 2 * lognn - n2 / 4 - mpf(nn) / 2 * lognn
        s += (1 + lognn) / 12
        k = 2
        while True:
            term = (mp.bernoulli(2 * k) * mp.factorial(2 * k - 3)
                    / mp.factorial(2 * k)) * mpf(nn) ** (2 - 2 * k)
            s -= term
            if abs(term) < mp.eps * (1 + abs(s)):
                break
            k += 1
            if k > prec:  # min term ~ e^(-2 pi N), far below eps for N=64
                break
        return s


def zeta_prime_minus_one(ctx: PrecisionContext) -> mpf:
    """zeta'(-1), computed (not embedded) via Euler-Maclaurin summation."""
    key = ctx.precision_bits
    with _zeta_lock:
        hit = _zeta_cache.get(key)
    if hit is None:
        hit = round_to(_zeta_prime_minus_one_raw(ctx.precision_bits + 16),
                       ctx.precision_bits)
        with _zeta_lock:
            _zeta_cache[key] = hit
    return hit


# ---------------------------------------------------------------------------
# log Barnes G (asymptotic series at shifted argument + downward recurrence)
# ---------------------------------------------------------------------------

def _log_barnes_g1p_series(y: mpf, prec: int) -> mpf:
    """log G(y+1) for large y > 0 from the asymptotic expansion

      log G(y+1) = (y^2/2) log y - (3/4) y^2 + (y/2) log(2 pi)
                   - (1/12) log y + zeta'(-1)
                   + sum_{k>=1} B_{2k+2} / (4 k (k+1) y^(2k)).
    """
    with mp.workprec(prec + 20):
        zp = _zeta_prime_minus_one_raw(prec + 20)
        logy = mp.log(y)
        s = y * y / 2 * logy - mpf(3) / 4 * y * y + y / 2 * mp.log(2 * mp.pi)
        s += -logy / 12 + zp
        y2 = y * y
        pw = y2
        k = 1
        while True:
            term = mp.bernoulli(2 * k + 2) / (4 * k * (k + 1) * pw)
            s += term
            if abs(term) < mp.eps * abs(s):
                break
            pw *= y2
            k += 1
            if k > 4 * prec:
                break
        return s


def log_barnes_g(z, ctx: PrecisionContext) -> mpf:
    """log G(z) for z > 0, via the large-argument series after shifting with
    the recurrence G(z+1) = Gamma(z) G(z)."""
    z = mpf(z)
    if not z > 0:
        raise DomainError(f"log_barnes_g requires z > 0, got {z}")
    prec = ctx.precision_bits + 48
    with mp.workprec(prec):
        z = mpf(z)
        w_min = max(20.0, (prec * math.log(2) + 40) / (2 * math.pi) + 2)
        m = max(0, int(math.ceil(w_min - z)))
        w = z + m
        val = _log_barnes_g1p_series(w - 1, prec)
        for i in range(m):
            val -= _log_gamma_raw(z + i, prec)
    return round_to(val, ctx.precision_bits)


# ---------------------------------------------------------------------------
# Airy Ai and Ai'
# ---------------------------------------------------------------------------

def _airy_constants(prec: int) -> Tuple[mpf, mpf]:
    """Ai(0) = 3^(-2/3)/Gamma(2/3) and Ai'(0) = -3^(-1/3)/Gamma(1/3)."""
    with mp.workprec(prec):
        ai0 = mp.power(3, mpf(-2) / 3) / mp.exp(_log_gamma_raw(mpf(2) / 3, prec))
        aip0 = -mp.power(3, mpf(-1) / 3) / mp.exp(_log_gamma_raw(mpf(1) / 3, prec))
        return ai0, aip0


def _airy_maclaurin(x: mpf, prec: int) -> Tuple[mpf, mpf]:
    """Ai, Ai' from the two Maclaurin solutions of w'' = x w.

    Convergent for all x; cancellation costs ~ (4/3)|x|^(3/2) nats, which the
    caller covers with guard bits.
    """
    with mp.workprec(prec):
        x = mpf(x)
        x3 = x ** 3
        # f: f(0)=1, f'(0)=0;  g: g(0)=0, g'(0)=1
        f = mpf(1)
        fp = mpf(0)
        g = x
        gp = mpf(1)
        af = mpf(1)   # term of f: af * x^(3k) handled via recurrence in value
        ag = x        # term of g
        k = 0
        eps = mpf(2) ** (-prec - 10)
        while True:
            af = af * x3 / ((3 * k + 2) * (3 * k + 3))
            ag = ag * x3 / ((3 * k + 3) * (3 * k + 4))
            k += 1
            f += af
            g += ag
            fp += af * (3 * k) / x if x != 0 else mpf(0)
            gp += ag * (3 * k + 1) / x if x != 0 else mpf(0)
            if abs(af) + abs(ag) < eps * (1 + abs(f) + abs(g)):
                break
        c1, c2 = _airy_constants(prec)
        return c1 * f + c2 * g, c1 * fp + c2 * gp


def _airy_asymp_coeffs(zeta: mpf, prec: int, kind: str) -> Tuple[mpf, mpf, mpf, mpf]:
    """Partial sums of the asymptotic series: returns (Su_even, Su_odd,
    Sv_even, Sv_odd) where u_k, v_k are the standard Airy expansion
    coefficients (u_1 = 5/72, v_1 = -7/72) and even/odd refer to the k-parity
    splits with the alternating sign (-1)^... folded per ``kind``:
      kind='exp':  S = sum (-1)^k c_k zeta^-k split by parity
      kind='osc':  same partial sums, combined by the caller with sin/cos.
    Truncates at the minimal term.
    """
    with mp.workprec(prec):
        ue = mpf(1)   # sum over even k of (+/-) u_k zeta^-k
        uo = mpf(0)
        ve = mpf(1)
        vo = mpf(0)
        u = mpf(1)
        invz = 1 / zeta
        pw = mpf(1)
        prev = mp.inf
        k = 1
        eps = mpf(2) ** (-prec - 8)
        while True:
            u = u * (6 * k - 1) * (6 * k - 5) / (72 * k)
            v = -u * (6 * k + 1) / mpf(6 * k - 1)
            pw *= invz
            tu = u * pw
            if abs(tu) >= prev or abs(tu) < eps:
                break
            prev = abs(tu)
            # 'exp': (-1)^k;  'osc': (-1)^m with k = 2m or 2m+1
            sgn = -1 if (k if kind == "exp" else k // 2) % 2 else 1
            if k % 2 == 0:
                ue += sgn * tu
                ve += sgn * v * pw
            else:
                uo += sgn * tu
                vo += sgn * v * pw
            k += 1
        return ue, uo, ve, vo


def _airy_asymptotic(x: mpf, prec: int) -> Tuple[mpf, mpf]:
    """Large-|x| expansions; caller must have checked the accuracy floor."""
    with mp.workprec(prec):
        x = mpf(x)
        ax = abs(x)
        zeta = mpf(2) / 3 * ax ** mpf("1.5")
        if x > 0:
            ue, uo, ve, vo = _airy_asymp_coeffs(zeta, prec, "exp")
            su = ue + uo
            sv = ve + vo
            pref = mp.exp(-zeta) / (2 * mp.sqrt(mp.pi))
            ai = pref / x ** mpf("0.25") * su
            aip = -pref * x ** mpf("0.25") * sv
            return ai, aip
        ue, uo, ve, vo = _airy_asymp_coeffs(zeta, prec, "osc")
        phase = zeta + mp.pi / 4
        s, c = mp.sin(phase), mp.cos(phase)
        ai = (s * ue - c * uo) / (mp.sqrt(mp.pi) * ax ** mpf("0.25"))
        # d/dx picks up a sign from x = -s: standard oscillatory form
        aip = -(c * ve + s * vo) * ax ** mpf("0.25") / mp.sqrt(mp.pi)
        return ai, aip


_AIRY_CROSSOVER = 7.0


def _airy_asymptotic_floor_bits(abs_x: float) -> float:
    """Best relative accuracy (in bits) the truncated asymptotic series can
    deliver: the minimal term is ~ e^(-2 zeta)."""
    zeta = (2.0 / 3.0) * abs_x ** 1.5
    return 2.0 * zeta * _LOG2_E - 6.0


def _finite_abs(x, name: str) -> float:
    try:
        xf = float(x)
    except (TypeError, ValueError):
        raise DomainError(f"{name} requires a finite real, got {x!r}")
    if not math.isfinite(xf):
        raise DomainError(f"{name} requires a finite real, got {x!r}")
    return abs(xf)


def _maclaurin_bits(ax: float, ctx: PrecisionContext) -> int:
    """Working bits for the Maclaurin sums at |x| = ax: the caller's need
    plus the ~(4/3)|x|^(3/2) nats they lose to cancellation."""
    need_bits = -math.log2(ctx.tolerance) + 8
    guard = int(2.0 * (2.0 / 3.0) * ax ** 1.5 * _LOG2_E) + 64
    return max(ctx.precision_bits, int(need_bits)) + guard


def airy_ai(x, ctx: PrecisionContext) -> Tuple[mpf, mpf]:
    """(Ai(x), Ai'(x)) to ctx.tolerance.

    Maclaurin series below |x| = 7; asymptotic expansion above, provided its
    truncation floor (~e^(-(4/3)|x|^(3/2))) sits below the requested
    tolerance, else the guarded Maclaurin series is kept.
    """
    ax = _finite_abs(x, "airy_ai")
    x = mpf(x)
    need_bits = -math.log2(ctx.tolerance) + 8
    if ax > _AIRY_CROSSOVER and _airy_asymptotic_floor_bits(ax) > need_bits:
        prec = max(ctx.precision_bits, int(need_bits)) + 64
        ai, aip = _airy_asymptotic(x, prec)
    else:
        ai, aip = _airy_maclaurin(x, _maclaurin_bits(ax, ctx))
    return round_to((ai, aip), ctx.precision_bits)


def airy_ai_tail_integral(x, ctx: PrecisionContext) -> mpf:
    """int_x^inf Ai(s) ds = 1/3 - int_0^x Ai(s) ds.

    The last integral is the Maclaurin series of Ai integrated term by term,
    convergent for every x and summed with the same guard bits as airy_ai
    (the cancellation, now against 1/3, is the same size)."""
    ax = _finite_abs(x, "airy_ai_tail_integral")
    prec = _maclaurin_bits(ax, ctx)
    with mp.workprec(prec):
        x = mpf(x)
        x3 = x ** 3
        # int_0^x of the k-th Maclaurin terms of f and g (see _airy_maclaurin)
        tf = x
        tg = x * x / 2
        sf, sg = tf, tg
        k = 0
        eps = mpf(2) ** (-prec - 10)
        while abs(tf) + abs(tg) >= eps * (1 + abs(sf) + abs(sg)):
            tf = tf * x3 * (3 * k + 1) / ((3 * k + 2) * (3 * k + 3) * (3 * k + 4))
            tg = tg * x3 * (3 * k + 2) / ((3 * k + 3) * (3 * k + 4) * (3 * k + 5))
            k += 1
            sf += tf
            sg += tg
        c1, c2 = _airy_constants(prec)
        tail = mpf(1) / 3 - (c1 * sf + c2 * sg)
    return round_to(tail, ctx.precision_bits)


# ---------------------------------------------------------------------------
# Modified Bessel row I_0(2t), ..., I_maxj(2t)
# ---------------------------------------------------------------------------

def bessel_i_row(max_j: int, two_t, ctx: PrecisionContext) -> List[mpf]:
    """I_0(two_t) .. I_{max_j}(two_t) by the ascending power series.

    Terms reach magnitude e^(two_t) while consumers (determinant ratios) work
    at O(1), so the series is summed with ceil(two_t*log2 e) + 64 guard bits
    above the requested precision.  I_{-j} = I_j by symmetry.
    """
    if max_j < 0:
        raise DomainError("max_j must be >= 0")
    two_t = mpf(two_t)
    if two_t < 0:
        raise DomainError("two_t must be nonnegative")
    prec = ctx.precision_bits + int(math.ceil(float(two_t) * _LOG2_E)) + 64
    out: List[mpf] = []
    with mp.workprec(prec):
        z = mpf(two_t)
        if z == 0:
            out = [mpf(1)] + [mpf(0)] * max_j
        else:
            h = z / 2
            h2 = h * h
            eps = mpf(2) ** (-prec - 8)
            term0 = mpf(1)
            for j in range(max_j + 1):
                if j > 0:
                    term0 = term0 * h / j
                term = term0
                s = term
                k = 0
                while True:
                    k += 1
                    term = term * h2 / (k * (k + j))
                    s += term
                    if term < eps * s:
                        break
                out.append(s)
    return [round_to(v, ctx.precision_bits + int(math.ceil(float(two_t) * _LOG2_E)) + 32)
            for v in out]
