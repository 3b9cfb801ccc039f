"""The four workloads: inputs from the seed, set-up, and one timed pass.

Each pass makes the calls the matching ``twlab`` command makes, through the
library's public functions, and checks every output against
reference.json (see make_reference.py).  Why each workload exists and which
layers it should move is written down in LAYERS.md.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import sys
from typing import List

from mpmath import mp, mpf

import grids
from measure import Ledger, deviation
from twlab import fredholm_oracle, painleve2, toeplitz_lab, twdist
from twlab.errors import (DomainError, InternalConsistencyError,
                          PrecisionError, SolverError)
from twlab.precision import PrecisionContext

HERE = os.path.dirname(os.path.abspath(__file__))
LIB_ERRORS = (PrecisionError, SolverError, InternalConsistencyError, DomainError)

# The library's own tolerances: an output further than this from its
# reference makes the operation fail.
TOL_TW = 1e-12         # q, q' and the TW values
TOL_FREDHOLM = 1e-10   # Fredholm F2 at m = 80 (acceptance criterion 1)
TOL_LADDER = 1e-20     # Toeplitz ladder values

SOLVE_ARGS = (-12, 8, 1100)                 # the twlab default window
CTX = PrecisionContext(256, 1e-12)          # solve and TW evaluations
FCTX = PrecisionContext(256, 1e-10)         # twlab oracle-compare, Fredholm side
TCTX = PrecisionContext(256, 1e-20)         # twlab toeplitz-scan
FREDHOLM_M = 80
T, Q_MAX, ELL, LU_N = 30, 70, 28, 56        # twlab toeplitz-scan --t 30


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def clear_caches() -> None:
    """Empty every module-level cache of the library (names ending in
    ``_cache``), so each pass pays its cold costs as a new process would."""
    for name, module in list(sys.modules.items()):
        if name.startswith("twlab.") and module is not None:
            for attr, value in list(vars(module).items()):
                if attr.endswith("_cache") and hasattr(value, "clear"):
                    value.clear()


class Env:
    """Where the benchmark may write: a directory inside the checkout."""

    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work
        os.makedirs(work, exist_ok=True)

    @functools.cached_property
    def solution_path(self) -> str:
        """The default-window solution tw_table and oracle_compare load.

        It is solved by the code under test the first time a checkout needs
        it and kept for later runs, keyed by a hash of the library sources,
        so it can never be stale and is never checked in."""
        src = os.path.join(self.root, "src", "twlab")
        digest = hashlib.sha256(repr((SOLVE_ARGS, CTX)).encode())
        for fname in sorted(os.listdir(src)):
            if fname.endswith(".py"):
                with open(os.path.join(src, fname), "rb") as fh:
                    digest.update(fname.encode() + fh.read())
        path = os.path.join(self.work, f"hm_{digest.hexdigest()[:16]}.json")
        if not os.path.exists(path):
            print("perfbench: solving the default window once for this "
                  "checkout", file=sys.stderr, flush=True)
            sol = painleve2.solve_hastings_mcleod(*SOLVE_ARGS, CTX)
            tmp = f"{path}.tmp{os.getpid()}"
            with open(tmp, "w") as fh:
                fh.write(sol.to_json())
            os.replace(tmp, path)
        return path


class Workload:
    """A workload's parts, with the defaults of one that needs no fixture."""

    def prepare(self, env: Env) -> None:
        """Work done once per run, before anything is timed."""

    def setup(self, env: Env):
        """The timed per-pass set-up; returns the pass's fixture."""
        return None

    def teardown(self, fixture) -> None:
        pass


class HmSolve(Workload):
    """Cold solve, save into an empty cache dir and read back, then q and
    q' on the check grid from the solved and from the read-back solution."""

    name = "hm_solve"
    accuracy_keys = ("err_q_max",)
    ref_digits = 30

    def inputs(self, seed: int, ref: dict) -> list:
        q = ref["painleve"]["q"]
        out = []
        for x in grids.base_points(grids.Q_BASE, grids.offset_index(seed)):
            i = grids.fine_index(grids.Q_FINE, x)
            out.append((float(x), q["q"][i], q["q_prime"][i]))
        return out

    def setup(self, env: Env) -> str:
        cache = os.path.join(env.work, f"hm_solve_cache_{os.getpid()}")
        shutil.rmtree(cache, ignore_errors=True)
        os.makedirs(cache)
        return cache

    def teardown(self, cache: str) -> None:
        shutil.rmtree(cache, ignore_errors=True)

    def run(self, cache: str, points: list, ledger: Ledger) -> None:
        sol = ledger.op("solve_hastings_mcleod",
                        lambda: painleve2.solve_hastings_mcleod(*SOLVE_ARGS, CTX),
                        lambda s: ())
        if sol is None:
            ledger.skip(3, "the solve failed")
            return
        path = os.path.join(cache, "hm_default.json")

        def save():
            with open(path, "w") as fh:
                fh.write(sol.to_json())
            with open(path) as fh:
                return painleve2.HMSolution.from_json(fh.read())

        def q_check(values):
            for (q, qp), (_, rq, rqp) in zip(values, points):
                yield "err_q_max", deviation(q, rq), TOL_TW
                yield "err_q_max", deviation(qp, rqp), TOL_TW

        back = ledger.op("to_json and read back", save, lambda b: ())
        # the whole grid is one operation of about a second: a single q_at
        # takes about a millisecond, too short to time steadily
        for name, solution in (("solved", sol), ("read-back", back)):
            if solution is None:
                ledger.skip(1, "the read-back failed")
                continue
            ledger.op(f"q on the {name} solution",
                      lambda: [(solution.q_at(x), solution.q_prime_at(x))
                               for x, _, _ in points],
                      q_check)


class _LoadsSolution(Workload):
    """Set-up shared by the workloads that read the cached solution."""

    def prepare(self, env: Env) -> None:
        """Solve once per checkout, before anything is timed."""
        env.solution_path

    def setup(self, env: Env):
        with open(env.solution_path) as fh:
            sol = painleve2.HMSolution.from_json(fh.read())
        return sol, twdist.TailConstants.compute(CTX)


class TwTable(_LoadsSolution):
    """tw_point(x, check=True) on 121 points, as twlab table does."""

    name = "tw_table"
    accuracy_keys = ("err_F_max", "err_E_max")
    ref_digits = 30

    def inputs(self, seed: int, ref: dict) -> list:
        tw = ref["painleve"]["tw"]
        out = []
        for x in grids.base_points(grids.TW_BASE, grids.offset_index(seed)):
            i = grids.fine_index(grids.TW_FINE, x)
            out.append((float(x), tw["F"][i], tw["E"][i]))
        return out

    def run(self, fixture, points: list, ledger: Ledger) -> None:
        sol, consts = fixture
        for x, rf, re in points:
            ledger.op(f"tw_point({x})",
                      lambda: twdist.tw_point(x, sol, consts, CTX, check=True),
                      lambda p: [("err_F_max", deviation(p.F, rf), TOL_TW),
                                 ("err_E_max", deviation(p.E, re), TOL_TW)])


class OracleCompare(_LoadsSolution):
    """F2 by the Fredholm determinant (m = 80) next to F2 by Painleve II,
    as twlab oracle-compare does."""

    name = "oracle_compare"
    accuracy_keys = ("err_F2_fredholm_max",)
    ref_digits = 40

    def inputs(self, seed: int, ref: dict) -> list:
        pain = ref["painleve"]
        fred = dict(zip(pain["f2_fredholm"]["x"], pain["f2_fredholm"]["F2"]))
        out = []
        for x in grids.base_points(grids.ORACLE_BASE, grids.offset_index(seed)):
            i = grids.fine_index(grids.TW_FINE, x)
            with mp.workprec(1024):
                f2_ref = mpf(pain["tw"]["F"][i]) ** 2
            out.append((float(x), fred[str(x)], f2_ref))
        return out

    def run(self, fixture, points: list, ledger: Ledger) -> None:
        sol, consts = fixture

        def both(x):
            f2f = fredholm_oracle.f2_fredholm(x, FREDHOLM_M, FCTX,
                                              verify_convergence=False)
            return f2f, twdist.tw_cdf(x, 2, sol, consts, CTX, check=True)

        for x, ref_fred, ref_f2 in points:
            ledger.op(f"oracle({x})", lambda: both(x), lambda r: [
                ("err_F2_fredholm_max", deviation(r[0], ref_fred), TOL_FREDHOLM),
                ("err_F2_painleve_max", deviation(r[1], ref_f2), TOL_TW),
                ("err_oracle_gap_max", deviation(r[0], r[1]), TOL_FREDHOLM)])


class ToeplitzScan(Workload):
    """The t = 30 ladder scan of twlab toeplitz-scan, the D++ / D-+
    determinants at ell = 28, and the LU route for D_56.  The lab takes no
    random input, so every seed runs the same calls."""

    name = "toeplitz_scan"
    accuracy_keys = ("err_ladder_max",)
    ref_digits = 100

    def inputs(self, seed: int, ref: dict) -> dict:
        return ref["toeplitz"]

    def run(self, fixture, ref: dict, ledger: Ledger) -> None:
        def scan_check(scan) -> List[tuple]:
            out = []
            for rec, lk, p0 in zip(scan.records, ref["log_kappa_sq"], ref["pi0"]):
                out.append(("err_ladder_max", deviation(rec.log_kappa_sq, lk), TOL_LADDER))
                out.append(("err_ladder_max", deviation(rec.pi0, p0), TOL_LADDER))
            if len(scan.records) != Q_MAX:
                out.append(("err_ladder_max", float("inf"), TOL_LADDER))
            return out

        def against(key: str):
            return lambda v: [("err_ladder_max", deviation(v, ref[key]), TOL_LADDER)]

        spec = toeplitz_lab.MomentMatrixSpec(T, LU_N)
        ledger.op("toeplitz_scan",
                  lambda: toeplitz_lab.toeplitz_scan(T, range(1, Q_MAX + 1), TCTX,
                                                     with_pi=True),
                  scan_check)
        ladder_d = ledger.op("toeplitz_log_det",
                             lambda: toeplitz_lab.toeplitz_log_det(spec, TCTX),
                             against("log_d"))
        ledger.op("d_pm_log(plus_plus)",
                  lambda: toeplitz_lab.d_pm_log("plus_plus", ELL - 1, T, TCTX),
                  against("log_d_plus_plus"))
        ledger.op("d_pm_log(minus_plus)",
                  lambda: toeplitz_lab.d_pm_log("minus_plus", ELL, T, TCTX),
                  against("log_d_minus_plus"))
        ledger.op("toeplitz_log_det_lu",
                  lambda: toeplitz_lab.toeplitz_log_det_lu(spec, TCTX),
                  lambda v: against("log_d")(v) + (
                      [] if ladder_d is None else
                      [("err_lu_vs_ladder_max", deviation(v, ladder_d), TOL_LADDER)]))


WORKLOADS = {w.name: w for w in (HmSolve(), TwTable(), ToeplitzScan(), OracleCompare())}

