"""Command-line front end.

Commands
--------
  eval            one distribution point (x, F, E, F1, F2, F4)
  table           points over an x range
  constants       tail constants with symbolic formulas and numeric values
  verify          identity suites; exit 1 when any item fails its tolerance
  oracle-compare  max |F2(Painleve) - F2(Fredholm)| over a grid
  toeplitz-scan   per-q kappa/pi ladder at fixed t with Airy predictions
  toeplitz-limits product-split reports (F2 side, or E side with --e-side)

High-precision values are emitted as decimal strings (25 significant digits
by default) so output is byte-identical across runs at fixed precision.
The expensive boundary-value solve is cached on disk, one file per
(solution schema version, window, nodes, precision); a file that does not
decode is solved again and replaced.  Delete the cache directory to force a
re-solve.
Exit codes: 0 success, 1 verification/precision failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence

from mpmath import mp, mpf

from . import fredholm_oracle, painleve2, specialfn, toeplitz_lab, twdist
from .errors import DomainError, PrecisionError, SolverError
from .precision import PrecisionContext

SCHEMA_VERSION = 1
_DIGITS = 25

ENV_PRECISION = "TW_PRECISION_BITS"
ENV_CACHE = "TW_CACHE_DIR"


@dataclass
class RunConfig:
    command: str
    x: Optional[float] = None
    t: Optional[float] = None
    beta: Optional[int] = None
    L: Optional[int] = None
    M: Optional[int] = None
    precision_bits: int = 256
    tolerance: float = 1e-10
    m_quad: int = 80
    format: str = "json"
    output_path: Optional[str] = None
    cache_dir: str = ".twlab_cache"
    x_left: float = -12.0
    x_right: float = 8.0
    nodes: int = 1100
    x_min: Optional[float] = None
    x_max: Optional[float] = None
    step: float = 1.0
    q_min: int = 1
    q_max: Optional[int] = None
    with_pi: bool = True
    e_side: bool = False
    check: bool = True


def _num(v) -> str:
    # conversion must not re-round existing high-precision values at the
    # ambient (53-bit) working precision
    with mp.workprec(4096):
        return mp.nstr(mpf(v), _DIGITS, strip_zeros=False)


def _emit(doc: dict, rows: Optional[List[dict]], columns: Optional[List[str]],
          config: RunConfig) -> None:
    """Write the result document as JSON, or the row table as CSV."""
    if config.format == "csv":
        if rows is None:
            raise DomainError(f"command {config.command} has no CSV form")
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        if rows is not None:
            doc = dict(doc)
            doc["rows"] = rows
        text = json.dumps(doc, indent=2) + "\n"
    if config.output_path:
        with open(config.output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _context(config: RunConfig, tolerance: Optional[float] = None) -> PrecisionContext:
    return PrecisionContext(config.precision_bits,
                            tolerance if tolerance is not None else config.tolerance)


def _cache_path(config: RunConfig, ctx: PrecisionContext) -> str:
    key = (f"hm_v{painleve2.SCHEMA_VERSION}_{config.x_left!r}_{config.x_right!r}"
           f"_{config.nodes}_{ctx.precision_bits}.json").replace("-", "m")
    return os.path.join(config.cache_dir, key)


def _solution(config: RunConfig, ctx: PrecisionContext) -> painleve2.HMSolution:
    """Disk-cached Hastings-McLeod solve keyed by (solution schema, window,
    nodes, bits).  A cache file that does not decode is solved again and
    replaced."""
    path = _cache_path(config, ctx)
    if os.path.exists(path):
        with open(path) as fh:
            text = fh.read()
        try:
            return painleve2.HMSolution.from_json(text)
        except (ValueError, KeyError):
            pass  # truncated, foreign or old-schema file: a cache miss
    sol = painleve2.solve_hastings_mcleod(config.x_left, config.x_right,
                                          config.nodes, ctx)
    os.makedirs(config.cache_dir, exist_ok=True)
    tmp = path + f".tmp{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(sol.to_json())
    os.replace(tmp, path)
    return sol


def _point_row(pt: twdist.TWPoint) -> dict:
    return {
        "x": _num(pt.x),
        "F": _num(pt.F),
        "E": _num(pt.E),
        "F1": _num(pt.F1),
        "F2": _num(pt.F2),
        "F4": _num(pt.F4),
        "representation": pt.representation,
    }


_POINT_COLUMNS = ["x", "F", "E", "F1", "F2", "F4", "representation"]


def _cmd_eval(config: RunConfig) -> int:
    ctx = _context(config)
    sol = _solution(config, ctx)
    consts = twdist.TailConstants.compute(ctx)
    pt = twdist.tw_point(config.x, sol, consts, ctx, check=config.check)
    doc = {"schema_version": SCHEMA_VERSION, "command": "eval",
           "precision_bits": config.precision_bits}
    if config.beta is not None:
        doc["beta"] = config.beta
        doc["value"] = _num({1: pt.F1, 2: pt.F2, 4: pt.F4}[config.beta])
    _emit(doc, [_point_row(pt)], _POINT_COLUMNS, config)
    return 0


def _x_grid(config: RunConfig) -> List[mpf]:
    if config.x_min is None or config.x_max is None:
        raise DomainError("--xmin and --xmax are required")
    if not config.step > 0:
        raise DomainError("--step must be positive")
    out = []
    x = mpf(config.x_min)
    while x <= mpf(config.x_max) + mpf(config.step) / 1000:
        out.append(+x)
        x += mpf(config.step)
    return out


def _cmd_table(config: RunConfig) -> int:
    ctx = _context(config)
    sol = _solution(config, ctx)
    consts = twdist.TailConstants.compute(ctx)
    rows = [_point_row(twdist.tw_point(x, sol, consts, ctx, check=config.check))
            for x in _x_grid(config)]
    doc = {"schema_version": SCHEMA_VERSION, "command": "table",
           "precision_bits": config.precision_bits}
    _emit(doc, rows, _POINT_COLUMNS, config)
    return 0


def _cmd_constants(config: RunConfig) -> int:
    ctx = _context(config)
    consts = twdist.TailConstants.compute(ctx)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "constants",
        "precision_bits": config.precision_bits,
        "zeta_prime_minus_one": _num(consts.zeta_prime_minus_one),
        "tau1": {"formula": "2^(-11/48) * exp(zeta'(-1)/2)",
                 "value": _num(consts.tau1)},
        "tau2": {"formula": "2^(1/24) * exp(zeta'(-1))",
                 "value": _num(consts.tau2)},
        "tau4": {"formula": "2^(-35/48) * exp(zeta'(-1)/2)",
                 "value": _num(consts.tau4)},
        "f_prefactor": {"formula": "2^(1/48) * exp(zeta'(-1)/2)",
                        "value": _num(consts.f_prefactor)},
        "e_prefactor": {"formula": "2^(-1/4)",
                        "value": _num(consts.e_prefactor)},
    }
    rows = [{"name": k, "formula": doc[k]["formula"], "value": doc[k]["value"]}
            for k in ("tau1", "tau2", "tau4", "f_prefactor", "e_prefactor")]
    _emit(doc, rows, ["name", "formula", "value"], config)
    return 0


def _cmd_verify(config: RunConfig) -> int:
    ctx = _context(config, 1e-12)
    sol = _solution(config, ctx)
    consts = twdist.TailConstants.compute(ctx)
    items = []

    def item(name: str, measured, tolerance: float) -> None:
        ok = bool(measured <= mpf(tolerance))
        items.append({"item": name, "measured": _num(measured),
                      "tolerance": _num(tolerance),
                      "status": "pass" if ok else "fail"})

    # tau identities
    with mp.workprec(ctx.precision_bits):
        d1 = abs(consts.tau1 * consts.tau4 - consts.tau2 / 2)
        d2 = abs(consts.tau1 / consts.tau4 - mp.sqrt(2))
    item("tau1*tau4 == tau2/2", d1, 1e-30)
    item("tau1/tau4 == sqrt(2)", d2, 1e-30)

    # Theorem-1 equivalence on the half-integer grid
    mx_f = mpf(0)
    mx_e = mpf(0)
    x = mpf(-9)
    while x <= -1:
        fl, el = twdist.cdf_left(x, sol, consts, ctx)
        fr, er = twdist.cdf_right(x, sol, ctx)
        mx_f = max(mx_f, abs(fl - fr))
        mx_e = max(mx_e, abs(el - er))
        x += mpf(1) / 2
    item("left/right representation max |dF| on [-9,-1]", mx_f, 1e-8)
    item("left/right representation max |dE| on [-9,-1]", mx_e, 1e-8)

    # total integrals
    for c in (-2, -4, -6):
        lhs_r, rhs_r, lhs_q, rhs_q = twdist.total_integral_check(c, sol, consts, ctx)
        item(f"total integral (R side) at c={c}", abs(lhs_r - rhs_r), 1e-6)
        item(f"total integral (q side) at c={c}", abs(lhs_q - rhs_q), 1e-6)

    # Verblunsky identity at t=3
    tctx = _context(config, 1e-22)
    with mp.workprec(tctx.precision_bits):
        mx = mpf(0)
        for q in range(2, 21):
            lhs = 1 - toeplitz_lab.pi_zero(q, 3.0, tctx) ** 2
            rhs = mp.exp(toeplitz_lab.kappa_sq(q - 1, 3.0, tctx)
                         - toeplitz_lab.kappa_sq(q, 3.0, tctx))
            mx = max(mx, abs(lhs - rhs))
    item("Verblunsky identity t=3, q<=20", mx, 1e-20)

    # telescoping at t=20
    for L in (4, 8):
        rep = toeplitz_lab.sum_parts_report(20.0, -1.0, L, 4, sol, tctx)
        item(f"telescoping t=20 L={L}", abs(rep.total - rep.total_direct), 1e-20)

    ok = all(r["status"] == "pass" for r in items)
    doc = {"schema_version": SCHEMA_VERSION, "command": "verify",
           "precision_bits": config.precision_bits,
           "status": "pass" if ok else "fail"}
    _emit(doc, items, ["item", "measured", "tolerance", "status"], config)
    return 0 if ok else 1


def _cmd_oracle_compare(config: RunConfig) -> int:
    ctx = _context(config)
    sol = _solution(config, ctx)
    consts = twdist.TailConstants.compute(ctx)
    fctx = _context(config, max(config.tolerance, 1e-11))
    rows = []
    mx = mpf(0)
    for x in _x_grid(config):
        f2p = twdist.tw_cdf(x, 2, sol, consts, ctx, check=config.check)
        f2f = fredholm_oracle.f2_fredholm(x, config.m_quad, fctx,
                                          verify_convergence=False)
        dev = abs(f2p - f2f)
        mx = max(mx, dev)
        rows.append({"x": _num(x), "f2_painleve": _num(f2p),
                     "f2_fredholm": _num(f2f), "abs_diff": _num(dev)})
    doc = {"schema_version": SCHEMA_VERSION, "command": "oracle-compare",
           "precision_bits": config.precision_bits, "m_quad": config.m_quad,
           "max_abs_diff": _num(mx)}
    _emit(doc, rows, ["x", "f2_painleve", "f2_fredholm", "abs_diff"], config)
    return 0


def _cmd_toeplitz_scan(config: RunConfig) -> int:
    if config.t is None:
        raise DomainError("--t is required")
    ctx = _context(config, min(config.tolerance, 1e-20))
    q_max = config.q_max or int(2 * config.t) + 10
    scan = toeplitz_lab.toeplitz_scan(config.t, range(config.q_min, q_max + 1),
                                      ctx, with_pi=config.with_pi)
    rows = []
    for r in scan.records:
        rows.append({
            "t": _num(scan.t),
            "q": r.q,
            "gamma": _num(r.gamma),
            "log_kappa_sq": _num(r.log_kappa_sq),
            "pi0": _num(r.pi0) if r.pi0 is not None else "",
            "log_kappa_sq_airy_pred": (_num(r.log_kappa_sq_airy_pred)
                                       if r.log_kappa_sq_airy_pred is not None else ""),
            "pi0_airy_pred": (_num(r.pi0_airy_pred)
                              if r.pi0_airy_pred is not None else ""),
            "precision_bits_used": scan.precision_bits_used,
        })
    doc = {"schema_version": SCHEMA_VERSION, "command": "toeplitz-scan",
           "t": _num(scan.t), "precision_bits_used": scan.precision_bits_used}
    _emit(doc, rows, ["t", "q", "gamma", "log_kappa_sq", "pi0",
                      "log_kappa_sq_airy_pred", "pi0_airy_pred",
                      "precision_bits_used"], config)
    return 0


def _cmd_toeplitz_limits(config: RunConfig) -> int:
    if config.t is None or config.x is None:
        raise DomainError("--t and --x are required")
    if config.L is None or config.M is None:
        raise DomainError("--L and --M are required")
    ctx = _context(config, min(config.tolerance, 1e-20))
    sctx = _context(config, 1e-12)
    sol = _solution(config, sctx)
    if config.e_side:
        rep = toeplitz_lab.e_double_scaling_check(config.t, config.x, config.L,
                                                  config.M, sol, ctx)
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "toeplitz-limits",
            "mode": "e_side",
            "t": _num(rep.t), "x": _num(rep.x), "L": rep.L, "M": rep.M,
            "ell": rep.ell,
            "fe_reference": _num(rep.fe_reference),
            "d_pp_value": _num(rep.d_pp_value),
            "d_mp_value": _num(rep.d_mp_value),
            "parts": {
                "exact": {"value": _num(rep.exact_part),
                          "limit": _num(rep.exact_part_limit)},
                "airy": {"value": _num(rep.airy_part),
                         "limit": _num(rep.airy_part_limit)},
                "painleve": {"value": _num(rep.painleve_part),
                             "limit": _num(rep.painleve_part_limit)},
            },
            "total_two_log_e": _num(rep.total_two_log_e),
            "identity_gap": _num(rep.identity_gap),
            "two_log_e_reference": _num(rep.two_log_e_reference),
        }
    else:
        rep = toeplitz_lab.sum_parts_report(config.t, config.x, config.L,
                                            config.M, sol, ctx)
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "toeplitz-limits",
            "mode": "sum_parts",
            "t": _num(rep.t), "x": _num(rep.x), "L": rep.L, "M": rep.M,
            "n": rep.n,
            "parts": {
                "exact": {"value": _num(rep.exact_part),
                          "limit": _num(rep.exact_part_limit)},
                "airy": {"value": _num(rep.airy_part),
                         "limit": _num(rep.airy_part_limit)},
                "painleve": {"value": _num(rep.painleve_part),
                             "limit": _num(rep.painleve_part_limit)},
            },
            "total": _num(rep.total),
            "total_direct": _num(rep.total_direct),
            "f2_reference": _num(rep.f2_reference),
        }
    _emit(doc, None, None, config)
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "table": _cmd_table,
    "constants": _cmd_constants,
    "verify": _cmd_verify,
    "oracle-compare": _cmd_oracle_compare,
    "toeplitz-scan": _cmd_toeplitz_scan,
    "toeplitz-limits": _cmd_toeplitz_limits,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twlab",
        description="Tracy-Widom distributions via Painleve II, with "
                    "Fredholm and Toeplitz cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--precision-bits", type=int,
                       default=int(os.environ.get(ENV_PRECISION, "256")))
        p.add_argument("--tolerance", type=float, default=1e-10)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", dest="output_path", default=None)
        p.add_argument("--cache-dir",
                       default=os.environ.get(ENV_CACHE, ".twlab_cache"))
        p.add_argument("--window", nargs=2, type=float, metavar=("XL", "XR"),
                       default=(-12.0, 8.0))
        p.add_argument("--nodes", type=int, default=1100)
        p.add_argument("--no-check", dest="check", action="store_false",
                       help="skip the left/right cross-representation assertion")

    p = sub.add_parser("eval", help="evaluate one distribution point")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--beta", type=int, choices=(1, 2, 4))
    common(p)

    p = sub.add_parser("table", help="tabulate points over an x range")
    p.add_argument("--xmin", dest="x_min", type=float, required=True)
    p.add_argument("--xmax", dest="x_max", type=float, required=True)
    p.add_argument("--step", type=float, default=0.5)
    common(p)

    p = sub.add_parser("constants", help="tail constants")
    common(p)

    p = sub.add_parser("verify", help="run the identity suites")
    common(p)

    p = sub.add_parser("oracle-compare",
                       help="compare F2 against the Fredholm determinant")
    p.add_argument("--xmin", dest="x_min", type=float, required=True)
    p.add_argument("--xmax", dest="x_max", type=float, required=True)
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--m-quad", dest="m_quad", type=int, default=80)
    common(p)

    p = sub.add_parser("toeplitz-scan", help="kappa/pi ladder at fixed t")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--qmin", dest="q_min", type=int, default=1)
    p.add_argument("--qmax", dest="q_max", type=int, default=None)
    p.add_argument("--no-pi", dest="with_pi", action="store_false")
    common(p)

    p = sub.add_parser("toeplitz-limits", help="product-split reports")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--e-side", dest="e_side", action="store_true")
    common(p)

    return parser


def run(config: RunConfig) -> int:
    try:
        return _COMMANDS[config.command](config)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PrecisionError, SolverError) as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    fields = {f for f in RunConfig.__dataclass_fields__}
    kwargs = {k: v for k, v in vars(ns).items() if k in fields}
    window = getattr(ns, "window", (-12.0, 8.0))
    kwargs["x_left"], kwargs["x_right"] = window
    config = RunConfig(**kwargs)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
