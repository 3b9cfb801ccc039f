"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py

They check the harness's own arithmetic and bookkeeping, not the library:
self time on synthetic nested spans, the percentile sample-count rule,
failure counting, and wrapping of a name bound by ``from ... import``.
"""

import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import measure  # noqa: E402
import spans  # noqa: E402
from twlab.errors import DomainError, PrecisionError  # noqa: E402


def test_self_time_subtracts_union_of_children():
    t = spans.Tracer()
    root = t.record("root", 0.0, 10.0)
    a = t.record("a", 1.0, 4.0, root)
    t.record("b", 3.0, 6.0, root)        # overlaps a: union is [1, 6]
    t.record("a.inner", 2.0, 3.0, a)
    t.record("late", 9.0, 12.0, root)    # only [9, 10] lies inside root
    self_t = t.self_times()
    assert self_t == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_self_time_of_live_spans_nests_by_stack():
    ticks = iter(range(100))
    t = spans.Tracer(now=lambda: float(next(ticks)))
    outer = t.begin("outer")            # start 0
    inner = t.begin("inner")            # start 1
    t.end(inner)                        # end 2
    t.end(outer)                        # end 3
    assert t.parents == [-1, outer]
    assert t.self_times() == [2.0, 1.0]


def test_layer_stats_ladder_passes_hits_and_modules():
    t = spans.Tracer()
    cold = t.record("toeplitz_lab.get_ladder", 0.0, 4.0)
    t.record("specialfn.bessel_i_row", 0.0, 1.0, cold)
    t.record("specialfn.bessel_i_row", 1.0, 3.0, cold)
    t.attr(cold)["bits"] = 5834
    t.record("toeplitz_lab.get_ladder", 5.0, 5.5)
    stats = spans.layer_stats(t, ["toeplitz_lab", "specialfn"])
    assert stats["toeplitz_lab.get_ladder.calls"] == 2
    assert stats["toeplitz_lab.get_ladder.passes"] == 2
    assert stats["toeplitz_lab.get_ladder.hits"] == 1
    assert stats["toeplitz_lab.get_ladder.bits_used"] == 5834
    assert stats["toeplitz_lab.self_s"] == pytest.approx(1.0 + 0.5)
    assert stats["specialfn.self_s"] == pytest.approx(3.0)
    assert stats["fredholm_oracle.f2_fredholm.self_s"] == 0


def test_percentile_sample_count_rule():
    samples = [float(v) for v in range(1, 121)]
    assert measure.beyond(samples, 90) == 12
    assert measure.percentile(samples, 50) == pytest.approx(60.5)
    assert measure.highest_percentile(120) == 90
    assert measure.highest_percentile(1000) == 99
    assert measure.highest_percentile(99) == 50
    assert measure.highest_percentile(19) is None


def _ledger():
    return measure.Ledger((PrecisionError, DomainError))


def test_failure_counting_on_injected_exception():
    ledger = _ledger()

    def boom():
        raise PrecisionError("did not stabilize")

    assert ledger.op("raises", boom, lambda r: ()) is None
    assert ledger.op("fine", lambda: 1.0, lambda r: [("err", 0.0, 1e-12)]) == 1.0
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert len(ledger.times) == 2
    assert "PrecisionError" in ledger.failures[0]


def test_failure_counting_on_injected_wrong_value():
    ledger = _ledger()
    ref = "0.5"
    ledger.op("close", lambda: 0.5 + 1e-14,
              lambda v: [("err", measure.deviation(v, ref), 1e-12)])
    ledger.op("wrong", lambda: 0.5 + 1e-9,
              lambda v: [("err", measure.deviation(v, ref), 1e-12)])
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.worst["err"] == pytest.approx(1e-9, rel=1e-6)
    ledger.skip(3, "dependency failed")
    assert (ledger.attempted, ledger.failed) == (5, 4)


def test_other_exceptions_propagate():
    with pytest.raises(ZeroDivisionError):
        _ledger().op("bug", lambda: 1 / 0, lambda r: ())


def test_accuracy_digits():
    assert measure.accuracy_digits(1e-15, 30) == pytest.approx(15)
    assert measure.accuracy_digits(0.0, 30) == 30


@pytest.fixture()
def fake_package():
    """fakepkg.core defines f and a class; fakepkg.user binds f by from-import."""
    names = ["fakepkg", "fakepkg.core", "fakepkg.user"]
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    exec("def f(x):\n    return x + 1\n"
         "class Box:\n"
         "    def get(self):\n        return 7\n"
         "    @classmethod\n    def make(cls):\n        return cls()\n",
         core.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.__dict__["f"] = core.f
    exec("def g(x):\n    return f(x) * 2\n", user.__dict__)
    for name, mod in zip(names, (pkg, core, user)):
        sys.modules[name] = mod
    yield core, user
    for name in names:
        sys.modules.pop(name, None)


def test_wrapping_reaches_from_imported_name(fake_package):
    core, user = fake_package
    original = core.f
    tracer = spans.Tracer()
    targets = [("core", "f", spans.plain), ("core", "Box.get", spans.plain),
               ("core", "Box.make", spans.plain)]
    installed = spans.install(tracer, package="fakepkg", targets=targets)
    try:
        assert user.g(1) == 4             # the call site in user is traced
        assert core.Box.make().get() == 7
    finally:
        installed.remove()
    assert tracer.names == ["core.f", "core.Box.make", "core.Box.get"]
    assert core.f is original and user.f is original
    assert isinstance(core.Box.__dict__["make"], classmethod)
    user.g(1)
    assert len(tracer.names) == 3         # removed wrappers record nothing


def test_gauss_misses_count_first_key_per_pass():
    tracer = spans.Tracer()
    calls = []
    for n in (80, 80, 36, 80):
        idx = tracer.begin("quadrature.gauss_legendre")
        spans.first_key(tracer, idx, lambda *a: calls.append(a), (n, 288), {})
        tracer.end(idx)
    tracer.new_pass()
    idx = tracer.begin("quadrature.gauss_legendre")
    spans.first_key(tracer, idx, lambda *a: None, (80, 288), {})
    tracer.end(idx)
    stats = spans.layer_stats(tracer, ["quadrature"])
    assert stats["quadrature.gauss_legendre.calls"] == 5
    assert stats["quadrature.gauss_legendre.misses"] == 3


def _log_det_body():
    def one(bits):
        return bits
    return one


def test_stabilize_passes_are_charged_to_the_caller():
    tracer = spans.Tracer()

    def stabilize(compute, start_bits):
        return [compute(start_bits), compute(2 * start_bits)]

    idx = tracer.begin("precision.stabilize")
    out = spans.counted_passes(tracer, idx, stabilize, (_log_det_body(), 64), {})
    tracer.end(idx)
    assert out == [64, 128]
    stats = spans.layer_stats(tracer, ["precision"])
    assert stats["precision.stabilize.passes"] == 2
    owner = __name__.rpartition(".")[2] + "._log_det_body"
    assert tracer.names == ["precision.stabilize", owner, owner]
    assert stats[f"{owner}.calls"] == 2
