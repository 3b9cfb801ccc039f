"""Gauss-Legendre rules at arbitrary precision.

Nodes are found by Newton iteration on the Legendre recurrence, seeded from
the float64 Chebyshev estimate; rules are cached per (n, precision) behind a
lock so concurrent callers share read-only tables.
"""

from __future__ import annotations

import math
import threading
from typing import List, Tuple

from mpmath import mp, mpf

_rule_cache: dict = {}
_rule_lock = threading.Lock()


def _legendre_and_derivative(n: int, x: mpf) -> Tuple[mpf, mpf]:
    p0, p1 = mpf(1), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    dp = n * (x * p1 - p0) / (x * x - 1)
    return p1, dp


def gauss_legendre(n: int, prec: int) -> Tuple[List[mpf], List[mpf]]:
    """Nodes and weights of the n-point rule on [-1, 1] at ``prec`` bits."""
    if n < 1:
        raise ValueError("rule size must be >= 1")
    key = (n, prec)
    with _rule_lock:
        hit = _rule_cache.get(key)
    if hit is not None:
        return hit
    with mp.workprec(prec + 24):
        nodes: List[mpf] = []
        weights: List[mpf] = []
        m = (n + 1) // 2
        for i in range(m):
            x = mpf(math.cos(math.pi * (i + 0.75) / (n + 0.5)))
            for _ in range(prec):
                p, dp = _legendre_and_derivative(n, x)
                dx = p / dp
                x -= dx
                if abs(dx) < mpf(2) ** (-prec - 8):
                    break
            _, dp = _legendre_and_derivative(n, x)
            w = 2 / ((1 - x * x) * dp * dp)
            nodes.append(x)
            weights.append(w)
        xs = [-v for v in nodes]
        ws = list(weights)
        if n % 2 == 1:
            xs = xs[:-1] + [mpf(0)] + [v for v in reversed(nodes[:-1])]
            ws = ws[:-1] + [weights[-1]] + list(reversed(weights[:-1]))
        else:
            xs = xs + list(reversed(nodes))
            ws = ws + list(reversed(weights))
        xs = [+v for v in xs]
        ws = [+v for v in ws]
    result = (xs, ws)
    with _rule_lock:
        _rule_cache[key] = result
    return result
