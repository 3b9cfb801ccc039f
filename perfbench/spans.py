"""In-memory span tracer and the wrappers that feed it.

The traced run replaces the library's public functions, from the
benchmark's side, with wrappers that open a span around each call.  A span
records its name, start, end and parent; spans stay in memory and are
written out once, when the run ends.  Nothing under src/ changes.

A function bound into other modules by ``from ... import`` is replaced in
every module that holds it, since callers look the name up in their own
globals.  Methods and classmethods are replaced on their class.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple


class Tracer:
    """Spans as parallel lists; span i's parent is an index or -1."""

    def __init__(self, now: Callable[[], float] = time.perf_counter):
        self.now = now
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.attrs: Dict[int, dict] = {}
        self.seen_keys: set = set()
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.now())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = self.now()
        self._stack.pop()

    def attr(self, idx: int) -> dict:
        return self.attrs.setdefault(idx, {})

    def new_pass(self) -> None:
        """Forget which argument keys were seen; called with the cache reset."""
        self.seen_keys.clear()

    def record(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Add a finished span directly (synthetic spans in the self-tests)."""
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return idx

    def self_times(self) -> List[float]:
        """Duration of each span minus the part of it its children cover."""
        children: Dict[int, List[int]] = {}
        for i, p in enumerate(self.parents):
            if p >= 0:
                children.setdefault(p, []).append(i)
        out = []
        for i in range(len(self.names)):
            lo, hi = self.starts[i], self.ends[i]
            covered = 0.0
            reach = lo
            for c in sorted(children.get(i, ()), key=lambda c: self.starts[c]):
                a, b = max(self.starts[c], reach), min(self.ends[c], hi)
                if b > a:
                    covered += b - a
                    reach = b
            out.append((hi - lo) - covered)
        return out

    def nearest_ancestor(self, idx: int, name: str) -> int:
        p = self.parents[idx]
        while p >= 0 and self.names[p] != name:
            p = self.parents[p]
        return p

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                row = {"name": name, "start": self.starts[i],
                       "end": self.ends[i], "parent": self.parents[i]}
                if i in self.attrs:
                    row["attrs"] = self.attrs[i]
                fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# Probes: how a wrapper calls the original and what it records
# ---------------------------------------------------------------------------

def plain(tracer, idx, call, args, kwargs):
    return call(*args, **kwargs)


def first_key(tracer, idx, call, args, kwargs):
    """Marks a miss on the first call for each argument tuple in a pass."""
    key = (args, tuple(sorted(kwargs.items())))
    if key not in tracer.seen_keys:
        tracer.seen_keys.add(key)
        tracer.attr(idx)["miss"] = 1
    return call(*args, **kwargs)


def counted_passes(tracer, idx, call, args, kwargs):
    """Counts the calls ``stabilize`` makes to its compute argument.  Each
    runs in a span named after the function that built the callable (the
    LU body of toeplitz_log_det_lu, say), so its work is charged there."""
    info = tracer.attr(idx)
    info["passes"] = 0
    compute = args[0] if args else kwargs.pop("compute")
    owner = (compute.__module__.rpartition(".")[2] + "."
             + compute.__qualname__.split(".<locals>")[0])

    def counting(bits):
        info["passes"] += 1
        span = tracer.begin(owner)
        try:
            return compute(bits)
        finally:
            tracer.end(span)

    return call(counting, *args[1:], **kwargs)


def result_attr(key: str, read: Callable):
    def probe(tracer, idx, call, args, kwargs):
        result = call(*args, **kwargs)
        tracer.attr(idx)[key] = read(result)
        return result
    return probe


# (module, dotted attribute, probe).  The first group are the names the
# per-layer metrics read; the second are the public entry points the
# workloads call, wrapped so their time is attributed to their module.
TARGETS: Tuple[Tuple[str, str, Callable], ...] = (
    ("painleve2", "solve_hastings_mcleod",
     result_attr("residual", lambda sol: float(sol.residual_norm))),
    ("painleve2", "HMSolution.to_json", result_attr("bytes", len)),
    ("painleve2", "HMSolution.from_json", plain),
    ("painleve2", "HMSolution.q_at", plain),
    ("painleve2", "HMSolution.q_prime_at", plain),
    ("painleve2", "integrate_kind", plain),
    ("painleve2", "r_of", plain),
    ("painleve2", "left_tail_q_regularized", plain),
    ("painleve2", "left_tail_r_regularized", plain),
    ("twdist", "tw_point", plain),
    ("twdist", "cdf_left", plain),
    ("twdist", "cdf_right", plain),
    ("twdist", "airy_tail_q_integral", plain),
    ("twdist", "airy_tail_r_integral", plain),
    ("twdist", "TailConstants.compute", plain),
    ("specialfn", "airy_ai", plain),
    ("specialfn", "bessel_i_row", plain),
    ("specialfn", "zeta_prime_minus_one", plain),
    ("quadrature", "gauss_legendre", first_key),
    ("precision", "stabilize", counted_passes),
    ("fredholm_oracle", "build_rule", plain),
    ("fredholm_oracle", "nystrom_matrix", plain),
    ("fredholm_oracle", "f2_fredholm", plain),
    ("toeplitz_lab", "get_ladder",
     result_attr("bits", lambda ladder: ladder.precision_bits_used)),
    ("toeplitz_lab", "toeplitz_log_det_lu", plain),
    ("toeplitz_lab", "toeplitz_scan", plain),
    # entry points
    ("twdist", "tw_cdf", plain),
    ("toeplitz_lab", "d_pm_log", plain),
    ("toeplitz_lab", "toeplitz_log_det", plain),
)


def _wrap(tracer: Tracer, name: str, fn: Callable, probe: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            return probe(tracer, idx, fn, args, kwargs)
        finally:
            tracer.end(idx)
    return wrapper


class Installed:
    """Wrappers in place; ``remove`` puts every original back."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()


def install(tracer: Tracer, package: str = "twlab",
            targets: Sequence[tuple] = TARGETS) -> Installed:
    """Wrap every target wherever the package's modules look it up."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    done = Installed()
    for mod_name, dotted, probe in targets:
        module = sys.modules[f"{package}.{mod_name}"]
        span = f"{mod_name}.{dotted}"
        owner_name, _, attr = dotted.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                done.set(owner, attr, classmethod(_wrap(tracer, span, raw.__func__, probe)))
            else:
                done.set(owner, attr, _wrap(tracer, span, raw, probe))
            continue
        original = getattr(module, attr)
        wrapper = _wrap(tracer, span, original, probe)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    done.set(m, key, wrapper)
    return done


# ---------------------------------------------------------------------------
# Per-layer statistics
# ---------------------------------------------------------------------------

LADDER = "toeplitz_lab.get_ladder"
ROW = "specialfn.bessel_i_row"


def layer_stats(tracer: Tracer, modules: Sequence[str]) -> Dict[str, float]:
    """Sums spans into ``<span>.calls``, ``.s`` (inclusive), ``.self_s`` and
    the module totals ``<module>.self_s``, plus the counters the probes
    recorded.  ``get_ladder`` passes are the ``bessel_i_row`` spans under
    it (one per precision pass); a ``get_ladder`` span with none is a hit."""
    self_t = tracer.self_times()
    out: Dict[str, float] = {f"{m}.self_s": 0.0 for m in modules}
    for mod, dotted, _ in TARGETS:
        for stat in ("calls", "s", "self_s"):
            out[f"{mod}.{dotted}.{stat}"] = 0.0
    for key in ("quadrature.gauss_legendre.misses", "precision.stabilize.passes",
                "painleve2.solve.residual_norm",
                "painleve2.HMSolution.to_json.bytes",
                f"{LADDER}.hits", f"{LADDER}.passes", f"{LADDER}.bits_used"):
        out[key] = 0

    rows_under: Dict[int, int] = {}
    for i, name in enumerate(tracer.names):
        if name == ROW:
            anc = tracer.nearest_ancestor(i, LADDER)
            if anc >= 0:
                rows_under[anc] = rows_under.get(anc, 0) + 1

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for i, name in enumerate(tracer.names):
        add(f"{name}.calls", 1)
        add(f"{name}.s", tracer.ends[i] - tracer.starts[i])
        add(f"{name}.self_s", self_t[i])
        add(f"{name.split('.')[0]}.self_s", self_t[i])
        info = tracer.attrs.get(i, {})
        add("quadrature.gauss_legendre.misses", info.get("miss", 0))
        add("precision.stabilize.passes", info.get("passes", 0))
        add("painleve2.HMSolution.to_json.bytes", info.get("bytes", 0))
        if "residual" in info:
            out["painleve2.solve.residual_norm"] = max(
                out["painleve2.solve.residual_norm"], info["residual"])
        if name == LADDER:
            passes = rows_under.get(i, 0)
            add(f"{LADDER}.passes", passes)
            add(f"{LADDER}.hits", int(passes == 0))
            out[f"{LADDER}.bits_used"] = max(out[f"{LADDER}.bits_used"],
                                             info.get("bits", 0))
    return out
