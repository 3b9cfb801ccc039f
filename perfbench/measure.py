"""Operation accounting, machine-speed scaling, latency summaries and
accuracy digits."""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from mpmath import mp, mpf
from mpmath.libmp import from_int, mpf_add, mpf_div, mpf_mul, round_nearest

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def deviation(value, ref: str) -> float:
    """|value - ref| with ref given as a decimal string, at 1024 bits."""
    with mp.workprec(1024):
        return float(abs(mpf(value) - mpf(ref)))


class Ledger:
    """Counts attempted and failed operations and times each one.

    An operation fails if it raises one of ``errors`` (the library's own
    failure types) or if any output misses its reference by more than the
    tolerance its check names.  Either way the run goes on.  Any other
    exception is a defect in the program and propagates.
    """

    def __init__(self, errors: Tuple[type, ...],
                 clock: Callable[[], float] = time.perf_counter):
        self.errors = errors
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.times: List[Tuple[float, float]] = []
        self.worst: Dict[str, float] = {}
        self.failures: List[str] = []

    def op(self, name: str, call: Callable, check: Callable) -> Optional[object]:
        """Run ``call()``, record its (start, end), then score
        ``check(result)``, an iterable of (error key, deviation, tolerance).
        Returns None on failure."""
        self.attempted += 1
        start = self.clock()
        try:
            result = call()
        except self.errors as exc:
            self.times.append((start, self.clock()))
            self._fail(f"{name}: {type(exc).__name__}: {exc}")
            return None
        self.times.append((start, self.clock()))
        missed = []
        for key, dev, tol in check(result):
            self.worst[key] = max(self.worst.get(key, 0.0), dev)
            if not dev <= tol:
                missed.append(f"{key}={dev:.3g} > {tol:g}")
        if missed:
            self._fail(f"{name}: " + ", ".join(missed))
            return None
        return result

    def skip(self, count: int, why: str) -> None:
        """Operations that cannot run because one they depend on failed."""
        self.attempted += count
        self.failed += count
        self.failures.append(f"{count} operations skipped: {why}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)


def percentile(values: Iterable[float], pct: int) -> float:
    """The pct-th percentile, interpolated inside the samples
    (statistics.quantiles, inclusive method)."""
    vals = list(values)
    if len(vals) == 1:
        return vals[0]
    return statistics.quantiles(vals, n=100, method="inclusive")[pct - 1]


def beyond(values: Iterable[float], pct: int) -> int:
    """How many samples lie above the pct-th percentile."""
    vals = list(values)
    cut = percentile(vals, pct)
    return sum(v > cut for v in vals)


def highest_percentile(count: int, choices=(50, 90, 99, 99.9)) -> Optional[float]:
    """The highest of ``choices`` with at least MIN_BEYOND samples beyond it
    out of ``count``, or None when even the median has fewer."""
    best = None
    for pct in choices:
        if math.floor(count * (1 - pct / 100)) >= MIN_BEYOND:
            best = pct
    return best


def accuracy_digits(err: float, ref_digits: int) -> float:
    """-log10 of the largest deviation, capped at the reference's digits
    (a deviation below the reference's own resolution reads as that)."""
    if err <= 0:
        return float(ref_digits)
    return min(-math.log10(err), float(ref_digits))



def speed_kernel() -> tuple:
    """A fixed piece of mpmath arithmetic at the precisions the workloads
    use (256 to 4096 bits), through libmp so no global state is touched."""
    three, seven = from_int(3), from_int(7)
    x = three
    for prec in (256, 1024, 4096):
        y = mpf_div(three, seven, prec, round_nearest)
        for _ in range(12):
            x = mpf_add(mpf_mul(x, y, prec, round_nearest), y, prec, round_nearest)
            x = mpf_div(x, seven, prec, round_nearest)
    return x


def kernel_seconds(repeats: int) -> float:
    """Mean time of ``speed_kernel`` over back-to-back repeats."""
    start = time.perf_counter()
    for _ in range(repeats):
        speed_kernel()
    return (time.perf_counter() - start) / repeats


class SpeedProbe:
    """Rescales measured times to a reference machine speed.

    On a shared virtual machine the CPU speed drifts by up to a factor of
    two over a few seconds (other tenants share the host), which swamps the
    differences a benchmark must resolve.  While the probe runs, a timer signal every
    PERIOD seconds times ``speed_kernel`` in this process.  A time measured
    over [start, end] is reported as ``duration * REF_KERNEL_S / k``, where
    k is the mean kernel time sampled in that interval (widened to at
    least MIN_SAMPLES samples): seconds on a machine where the kernel takes
    REF_KERNEL_S.  ``clock`` leaves out the time the samples take, so the
    probe does not inflate the durations it scales.
    """

    PERIOD = 0.02
    REF_KERNEL_S = 5e-4
    MIN_SAMPLES = 8

    def __init__(self):
        self.at: List[float] = []
        self.kernel_s: List[float] = []
        self.stolen = 0.0
        self._previous = None

    def clock(self) -> float:
        return time.perf_counter() - self.stolen

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        speed_kernel()
        took = time.perf_counter() - start
        self.at.append(start - self.stolen)
        self.kernel_s.append(took)
        self.stolen += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float) -> float:
        """The duration end - start (probe clock) at the reference speed."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        while hi - lo < self.MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        if hi == lo:
            raise RuntimeError("no speed samples were taken")
        mean = math.fsum(self.kernel_s[lo:hi]) / (hi - lo)
        return (end - start) * self.REF_KERNEL_S / mean
