"""Run one workload of the twlab benchmark and print its metrics.

    python3 perfbench/run.py --workload tw_table --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric of BENCHMARK.json; with ``--trace 1`` it carries
every per-layer metric, from a traced pass that follows the untraced ones.
Lines before it list the same metrics, and the error maxima behind
``accuracy_digits``, by name with their units.  Scratch files go to
``.bench_build/perfbench`` inside the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import measure
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

# Set-up (import plus fixture load) is repeated this many times per run and
# its median reported.
SETUP_REPS = 5
# Imports twlab in a fresh interpreter, then samples the speed kernel right
# after, so the import time can be scaled like every other time.
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
                "t = time.perf_counter(); import twlab.cli; "
                "took = time.perf_counter() - t; import measure; "
                "print(took * measure.SpeedProbe.REF_KERNEL_S "
                "/ measure.kernel_seconds(20))")
MODULES = ("painleve2", "twdist", "specialfn", "quadrature", "precision",
           "fredholm_oracle", "toeplitz_lab")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds() -> float:
    """Import time of the twlab package in a fresh interpreter, at the
    reference speed."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC, HERE], cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


class Runner:
    """Runs passes of one workload.  It keeps each interval it times on the
    probe's clock and scales them to the reference speed once the run is
    over, when speed samples lie on both sides of every interval (see
    measure.SpeedProbe)."""

    def __init__(self, workload, inputs, env, errors, clear_caches):
        self.w = workload
        self.inputs = inputs
        self.env = env
        self.errors = errors
        self.clear_caches = clear_caches
        self.probe = measure.SpeedProbe()
        self.fixture_iv = []
        self.wall_iv = []
        self.cold_iv = []
        self.point_iv = []
        self.attempted = 0
        self.failed = 0
        self.worst = {}
        self.failures = []

    def setup(self):
        self.clear_caches()
        start = self.probe.clock()
        fixture = self.w.setup(self.env)
        self.fixture_iv.append((start, self.probe.clock()))
        return fixture

    def one_pass(self) -> tuple:
        """Set up from cold caches, run the workload once, fold in its
        ledger; returns the pass's interval (first call to last check)."""
        fixture = self.setup()
        ledger = measure.Ledger(self.errors, self.probe.clock)
        try:
            start = self.probe.clock()
            self.w.run(fixture, self.inputs, ledger)
            wall = (start, self.probe.clock())
        finally:
            self.w.teardown(fixture)
        self.attempted += ledger.attempted
        self.failed += ledger.failed
        self.failures += ledger.failures
        for key, dev in ledger.worst.items():
            self.worst[key] = max(self.worst.get(key, 0.0), dev)
        self.cold_iv += ledger.times[:1]
        self.point_iv += ledger.times[1:]
        return wall

    def measure(self, seconds: float) -> None:
        """Untraced passes until ``seconds`` have gone by (at least one),
        then set-up alone until it has SETUP_REPS samples."""
        start = time.perf_counter()
        while True:
            self.wall_iv.append(self.one_pass())
            if time.perf_counter() - start >= seconds:
                break
        while len(self.fixture_iv) < SETUP_REPS:
            self.w.teardown(self.setup())

    def scaled(self, intervals) -> list:
        return [self.probe.scaled(a, b) for a, b in intervals]


def end_to_end(runner: Runner) -> dict:
    w = runner.w
    imports = [import_seconds() for _ in range(SETUP_REPS)]
    worst = max(runner.worst.get(k, 0.0) for k in w.accuracy_keys)
    colds = runner.scaled(runner.cold_iv)
    pts = runner.scaled(runner.point_iv) or colds
    fixture_s = runner.scaled(runner.fixture_iv[:SETUP_REPS])
    return {
        "setup_s": statistics.median(imports) + statistics.median(fixture_s),
        "wall_s": statistics.median(runner.scaled(runner.wall_iv)),
        "cold_point_s": statistics.median(colds),
        "point_ms_p50": 1e3 * statistics.median(pts),
        "point_ms_p90": 1e3 * measure.percentile(pts, 90),
        "accuracy_digits": measure.accuracy_digits(worst, w.ref_digits),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(runner: Runner, seed: int) -> dict:
    tracer = spans.Tracer(now=runner.probe.clock)
    installed = spans.install(tracer)
    try:
        tracer.new_pass()
        with runner.probe:
            traced = runner.one_pass()
    finally:
        installed.remove()
    stats = spans.layer_stats(tracer, MODULES)
    # span times are on the probe's clock; bring them to the reference
    # speed with the mean speed over the traced set-up and pass
    start, end = runner.fixture_iv[-1][0], traced[1]
    factor = runner.probe.scaled(start, end) / (end - start)
    for key in stats:
        if key.endswith((".s", ".self_s")):
            stats[key] *= factor
    untraced = statistics.median(runner.scaled(runner.wall_iv))
    stats["trace.overhead_ratio"] = runner.scaled([traced])[0] / untraced
    tracer.dump(os.path.join(WORK, f"trace_{runner.w.name}_{seed}.jsonl"))
    return stats


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "twlab", "__init__.py")):
        print(f"perfbench: no twlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    env = workloads.Env(ROOT, WORK)
    inputs = w.inputs(args.seed, workloads.load_reference())
    w.prepare(env)
    runner = Runner(w, inputs, env, workloads.LIB_ERRORS, workloads.clear_caches)
    with runner.probe:
        runner.measure(args.seconds)
    points = runner.scaled(runner.point_iv)
    header = (f"workload {w.name}  seed {args.seed}  untraced passes "
              f"{len(runner.wall_iv)}  raw wall_s "
              f"{statistics.median(b - a for a, b in runner.wall_iv):.6g} s\n"
              f"points after the first {len(points)}")
    if len(points) > 1:
        header += (f", {measure.beyond(points, 90)} beyond p90; highest "
                   f"percentile with {measure.MIN_BEYOND} beyond: "
                   f"{measure.highest_percentile(len(points))}")

    if args.trace:
        values = per_layer(runner, args.seed)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(runner)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    print(header)
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    for key in sorted(runner.worst):
        print(f"  {key:48s} {runner.worst[key]:.3g} abs")
    print(f"  {'failed_ops_ratio':48s} {runner.failed / runner.attempted:.6g} "
          f"({runner.failed}/{runner.attempted})")
    for line in runner.failures:
        print(f"  FAILED {line}")
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
