"""Regenerate perfbench/reference.json, the values the workloads check against.

    python3 perfbench/make_reference.py

Painleve side: one wide-window solve ([-16, 10], 1800 nodes, 256 bits),
then q, q' and the TW values F, E on the fine grids of grids.py.  F2 on the
oracle points is cross-checked against the Fredholm determinant at a larger
Nystrom size, and that Fredholm value is stored as the oracle's reference.
Toeplitz side: the t = 30 ladder at doubled precision (512 bits) and a
tighter tolerance (1e-40), cross-checked by the Verblunsky identity and by
the LU route.  Every value is stored as a decimal string.  Takes about
fifteen minutes on one core.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from mpmath import mp, mpf  # noqa: E402

import grids  # noqa: E402
from twlab import fredholm_oracle, painleve2, toeplitz_lab, twdist  # noqa: E402
from twlab.precision import PrecisionContext  # noqa: E402

WIDE = {"x_left": -16, "x_right": 10, "nodes": 1800}
FREDHOLM_M = 120
TOEPLITZ = {"t": 30, "q_max": 70, "ell": 28, "lu_n": 56}
# cross-checks the stored values must pass before the file is written
F2_CROSS_TOL = 1e-13
LADDER_CROSS_TOL = 1e-60


def num(v, digits: int) -> str:
    with mp.workprec(4096):
        return mp.nstr(mpf(v), digits, strip_zeros=False)


def log(msg: str) -> None:
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", flush=True)


def painleve_reference() -> dict:
    ctx = PrecisionContext(256, 1e-12)
    t0 = time.perf_counter()
    sol = painleve2.solve_hastings_mcleod(WIDE["x_left"], WIDE["x_right"],
                                          WIDE["nodes"], ctx)
    log(f"wide solve {time.perf_counter() - t0:.1f}s, "
        f"residual {num(sol.residual_norm, 3)}")
    qx = grids.fine_points(grids.Q_FINE)
    q = [num(sol.q_at(float(x)), 30) for x in qx]
    qp = [num(sol.q_prime_at(float(x)), 30) for x in qx]
    log(f"q, q' on {len(qx)} points")

    consts = twdist.TailConstants.compute(ctx)
    f_vals, e_vals = [], []
    for x in grids.fine_points(grids.TW_FINE):
        pt = twdist.tw_point(float(x), sol, consts, ctx, check=True)
        f_vals.append(pt.F)
        e_vals.append(pt.E)
    log(f"F, E on {len(f_vals)} points")

    fctx = PrecisionContext(256, 1e-10)
    ox, f2_fred = [], []
    worst = mpf(0)
    for k in range(grids.OFFSETS):
        for x in grids.base_points(grids.ORACLE_BASE, k):
            i = grids.fine_index(grids.TW_FINE, x)
            val = fredholm_oracle.f2_fredholm(float(x), FREDHOLM_M, fctx,
                                              verify_convergence=False)
            with mp.workprec(512):
                worst = max(worst, abs(val - f_vals[i] ** 2))
            ox.append(str(x))
            f2_fred.append(num(val, 40))
    log(f"Fredholm m={FREDHOLM_M} on {len(ox)} points, "
        f"max |F2_fredholm - F^2| = {num(worst, 3)}")
    if worst > F2_CROSS_TOL:
        raise SystemExit(f"F2 cross-check failed: {num(worst, 3)}")

    return {
        "solve": dict(WIDE, precision_bits=256, tolerance=1e-12,
                      residual_norm=num(sol.residual_norm, 5)),
        "q": {"x0": str(grids.Q_FINE[0]), "count": grids.Q_FINE[1],
              "q": q, "q_prime": qp},
        "tw": {"x0": str(grids.TW_FINE[0]), "count": grids.TW_FINE[1],
               "F": [num(v, 30) for v in f_vals],
               "E": [num(v, 30) for v in e_vals]},
        "f2_fredholm": {"m": FREDHOLM_M, "x": ox, "F2": f2_fred,
                        "max_dev_from_painleve": num(worst, 5)},
    }


def toeplitz_reference() -> dict:
    ctx = PrecisionContext(512, 1e-40)
    t, q_max, ell, n = (TOEPLITZ[k] for k in ("t", "q_max", "ell", "lu_n"))
    t0 = time.perf_counter()
    scan = toeplitz_lab.toeplitz_scan(t, range(1, q_max + 1), ctx)
    pp = toeplitz_lab.d_pm_log("plus_plus", ell - 1, t, ctx)
    mpl = toeplitz_lab.d_pm_log("minus_plus", ell, t, ctx)
    spec = toeplitz_lab.MomentMatrixSpec(t, n)
    log_d = toeplitz_lab.toeplitz_log_det(spec, ctx)
    lu = toeplitz_lab.toeplitz_log_det_lu(spec, ctx)
    log(f"ladder at 512 bits {time.perf_counter() - t0:.1f}s, "
        f"bits used {scan.precision_bits_used}")
    recs = scan.records
    with mp.workprec(2048):
        verblunsky = max(
            abs(1 - b.pi0 ** 2 - mp.exp(a.log_kappa_sq - b.log_kappa_sq))
            for a, b in zip(recs, recs[1:]))
        lu_dev = abs(lu - log_d)
    log(f"Verblunsky max {num(verblunsky, 3)}, |LU - ladder| {num(lu_dev, 3)}")
    if max(verblunsky, lu_dev) > LADDER_CROSS_TOL:
        raise SystemExit("ladder cross-check failed")
    return dict(TOEPLITZ, precision_bits=512, tolerance=1e-40,
                bits_used=scan.precision_bits_used,
                log_kappa_sq=[num(r.log_kappa_sq, 150) for r in recs],
                pi0=[num(r.pi0, 150) for r in recs],
                log_d_plus_plus=num(pp, 150),
                log_d_minus_plus=num(mpl, 150),
                log_d=num(log_d, 150),
                verblunsky_max=num(verblunsky, 5),
                lu_dev=num(lu_dev, 5))


def main() -> None:
    doc = {"generated_by": "python3 perfbench/make_reference.py",
           "offset_step": str(grids.OFFSET_STEP)}
    doc["painleve"] = painleve_reference()
    doc["toeplitz"] = toeplitz_reference()
    path = os.path.join(HERE, "reference.json")
    with open(path + ".tmp", "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    os.replace(path + ".tmp", path)
    log(f"wrote {path}")


if __name__ == "__main__":
    main()
