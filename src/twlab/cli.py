"""Command-line front end.

Commands
--------
  eval            one distribution point (x, F, E, F1, F2, F4)
  table           points over an x range
  constants       tail constants with symbolic formulas and numeric values
  verify          the paper's checklist: one row per result of twlab.checks;
                  exit 1 when any result misses its bound
  oracle-compare  max |F2(Painleve) - F2(Fredholm)| over a grid
  toeplitz-scan   per-q kappa/pi ladder at fixed t with Airy predictions
  toeplitz-limits product-split reports (F2 side, or E side with --e-side)

High-precision values are emitted as decimal strings (25 significant digits
by default) so output is byte-identical across runs at fixed precision;
verify prints each bound as twlab.checks writes it.
The expensive boundary-value solve is cached on disk, one file per
(solution schema version, solver version, window, nodes, precision); a file
that does not decode is solved again and replaced.  Delete the cache
directory to force a re-solve.
Exit codes: 0 success, 1 verification/precision failure, 2 invalid input.

main(argv) is the entry point: run(build_parser().parse_args(argv)).  run
and every command read the argparse namespace itself, so each option is
declared, defaulted and documented once, in build_parser.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
from typing import List, Optional, Sequence

from mpmath import mp, mpf

from . import checks, fredholm_oracle, painleve2, toeplitz_lab, twdist
from .errors import DomainError, PrecisionError, SolverError
from .precision import PrecisionContext

SCHEMA_VERSION = 1
_DIGITS = 25

ENV_PRECISION = "TW_PRECISION_BITS"
ENV_CACHE = "TW_CACHE_DIR"


def _num(v) -> str:
    # conversion must not re-round existing high-precision values at the
    # ambient (53-bit) working precision
    with mp.workprec(4096):
        return mp.nstr(mpf(v), _DIGITS, strip_zeros=False)


def _bounded(v, bound) -> str:
    """v printed only to the digits whose unit is at least ``bound``, its
    proven absolute error bound (at most _DIGITS of them), and as 0 when it
    has no such digit, as whenever |v| <= bound, where the bound does not
    certify even its sign."""
    with mp.workprec(64):
        if abs(v) <= bound:
            return "0"
        digits = int(mp.floor(mp.log10(abs(v)))) - int(mp.ceil(mp.log10(bound))) + 1
    if digits < 1:
        return "0"
    with mp.workprec(4096):
        # one digit prints as "2.e-93"; drop the bare point
        return mp.nstr(v, min(_DIGITS, digits), strip_zeros=False).replace(".e", "e")


def _emit(doc: dict, rows: Optional[List[dict]], columns: Optional[List[str]],
          args: argparse.Namespace) -> None:
    """Write the result document as JSON, or the row table as CSV."""
    if args.format == "csv":
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
    if args.output_path:
        with open(args.output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _context(args: argparse.Namespace) -> PrecisionContext:
    return PrecisionContext(args.precision_bits, args.tolerance)


def _cache_path(args: argparse.Namespace, ctx: PrecisionContext) -> str:
    x_left, x_right = args.window
    key = (f"hm_v{painleve2.SCHEMA_VERSION}_s{painleve2.SOLVER_VERSION}"
           f"_{x_left!r}_{x_right!r}"
           f"_{args.nodes}_{ctx.precision_bits}.json").replace("-", "m")
    return os.path.join(args.cache_dir, key)


def _solution(args: argparse.Namespace, ctx: PrecisionContext) -> painleve2.HMSolution:
    """Disk-cached Hastings-McLeod solve keyed by (solution schema, solver
    version, window, nodes, bits).  A cache file that does not decode is
    solved again and replaced."""
    path = _cache_path(args, ctx)
    if os.path.exists(path):
        with open(path) as fh:
            text = fh.read()
        try:
            return painleve2.HMSolution.from_json(text)
        except (ValueError, KeyError):
            pass  # truncated, foreign or old-schema file: a cache miss
    sol = painleve2.solve_hastings_mcleod(*args.window, args.nodes, ctx)
    os.makedirs(args.cache_dir, exist_ok=True)
    tmp = path + f".tmp{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(sol.to_json())
    os.replace(tmp, path)
    return sol


def _solved(args: argparse.Namespace):
    """(ctx, solution, tail constants) of the commands that read F."""
    ctx = _context(args)
    return ctx, _solution(args, ctx), twdist.TailConstants.compute(ctx)


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


def _cmd_eval(args: argparse.Namespace) -> int:
    ctx, sol, consts = _solved(args)
    pt = twdist.tw_point(args.x, sol, consts, ctx, check=args.check)
    doc = {"schema_version": SCHEMA_VERSION, "command": "eval",
           "precision_bits": args.precision_bits}
    if args.beta is not None:
        doc["beta"] = args.beta
        doc["value"] = _num({1: pt.F1, 2: pt.F2, 4: pt.F4}[args.beta])
    _emit(doc, [_point_row(pt)], _POINT_COLUMNS, args)
    return 0


def _x_grid(args: argparse.Namespace) -> List[mpf]:
    if not (mp.isfinite(args.x_min) and mp.isfinite(args.x_max)):
        raise DomainError("--xmin and --xmax must be finite")
    if not args.step > 0:
        raise DomainError("--step must be positive")
    if args.x_min > args.x_max:
        raise DomainError("--xmin must not exceed --xmax")
    # x_min + k step from an integer k, so rounding does not accumulate
    xs = (args.x_min + k * args.step
          for k in range(int((args.x_max - args.x_min) / args.step) + 2))
    return [mpf(x) for x in xs if x <= args.x_max]


def _cmd_table(args: argparse.Namespace) -> int:
    xs = _x_grid(args)
    ctx, sol, consts = _solved(args)
    rows = [_point_row(twdist.tw_point(x, sol, consts, ctx, check=args.check))
            for x in xs]
    doc = {"schema_version": SCHEMA_VERSION, "command": "table",
           "precision_bits": args.precision_bits}
    _emit(doc, rows, _POINT_COLUMNS, args)
    return 0


def _cmd_constants(args: argparse.Namespace) -> int:
    ctx = _context(args)
    consts = twdist.TailConstants.compute(ctx)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "constants",
        "precision_bits": args.precision_bits,
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
    _emit(doc, rows, ["name", "formula", "value"], args)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    ctx, sol, consts = _solved(args)
    rows = [{"item": r.name, "measured": _num(r.measured),
             "tolerance": r.bound, "status": "pass" if r.ok else "fail"}
            for check in checks.CHECKS for r in check(sol, consts, ctx)]
    ok = all(row["status"] == "pass" for row in rows)
    doc = {"schema_version": SCHEMA_VERSION, "command": "verify",
           "precision_bits": args.precision_bits,
           "status": "pass" if ok else "fail"}
    _emit(doc, rows, ["item", "measured", "tolerance", "status"], args)
    return 0 if ok else 1


def _cmd_oracle_compare(args: argparse.Namespace) -> int:
    xs = _x_grid(args)
    ctx, sol, consts = _solved(args)
    rows = []
    mx = mpf(0)
    for x in xs:
        f2p = twdist.tw_cdf(x, 2, sol, consts, ctx, check=args.check)
        f2f = fredholm_oracle.f2_fredholm(x, args.m_quad, ctx,
                                          verify_convergence=False)
        dev = abs(f2p - f2f)
        mx = max(mx, dev)
        rows.append({"x": _num(x), "f2_painleve": _num(f2p),
                     "f2_fredholm": _num(f2f), "abs_diff": _num(dev)})
    doc = {"schema_version": SCHEMA_VERSION, "command": "oracle-compare",
           "precision_bits": args.precision_bits, "m_quad": args.m_quad,
           "max_abs_diff": _num(mx)}
    _emit(doc, rows, ["x", "f2_painleve", "f2_fredholm", "abs_diff"], args)
    return 0


def _cmd_toeplitz_scan(args: argparse.Namespace) -> int:
    if not mp.isfinite(args.t):
        raise DomainError("--t must be finite")
    ctx = _context(args)
    q_max = int(2 * args.t) + 10 if args.q_max is None else args.q_max
    scan = toeplitz_lab.toeplitz_scan(args.t, range(args.q_min, q_max + 1),
                                      ctx, with_pi=args.with_pi)
    rows = []
    for r in scan.records:
        rows.append({
            "t": _num(scan.t),
            "q": r.q,
            "gamma": _num(r.gamma),
            "log_kappa_sq": _bounded(r.log_kappa_sq, scan.error_bound),
            "pi0": _bounded(r.pi0, scan.error_bound) if r.pi0 is not None else "",
            "log_kappa_sq_airy_pred": (_num(r.log_kappa_sq_airy_pred)
                                       if r.log_kappa_sq_airy_pred is not None else ""),
            "pi0_airy_pred": (_num(r.pi0_airy_pred)
                              if r.pi0_airy_pred is not None else ""),
            "precision_bits_used": scan.precision_bits_used,
        })
    doc = {"schema_version": SCHEMA_VERSION, "command": "toeplitz-scan",
           "t": _num(scan.t), "precision_bits_used": scan.precision_bits_used,
           "abs_error_bound": _num(scan.error_bound)}
    _emit(doc, rows, ["t", "q", "gamma", "log_kappa_sq", "pi0",
                      "log_kappa_sq_airy_pred", "pi0_airy_pred",
                      "precision_bits_used"], args)
    return 0


def _report_fields(rep) -> dict:
    """A product-split report's fields in their order, integers as they are
    and the rest through _num; the six part fields fold into "parts", each
    part next to its large-t limit, where the first of them stands."""
    doc = {}
    for field in dataclasses.fields(rep):
        value = getattr(rep, field.name)
        if field.name.endswith(("_part", "_part_limit")):
            if "parts" not in doc:
                doc["parts"] = {name: {"value": _num(getattr(rep, f"{name}_part")),
                                       "limit": _num(getattr(rep, f"{name}_part_limit"))}
                                for name in ("exact", "airy", "painleve")}
        else:
            doc[field.name] = value if isinstance(value, int) else _num(value)
    return doc


def _cmd_toeplitz_limits(args: argparse.Namespace) -> int:
    if args.format == "csv":
        raise DomainError(f"command {args.command} has no CSV form")
    if not (mp.isfinite(args.t) and mp.isfinite(args.x)):
        raise DomainError("--t and --x must be finite")
    ctx = _context(args)
    sol = _solution(args, ctx)
    mode, report = (("e_side", toeplitz_lab.e_double_scaling_check) if args.e_side
                    else ("sum_parts", toeplitz_lab.sum_parts_report))
    rep = report(args.t, args.x, args.L, args.M, sol, ctx)
    doc = {"schema_version": SCHEMA_VERSION, "command": "toeplitz-limits",
           "mode": mode, **_report_fields(rep)}
    _emit(doc, None, None, args)
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
        # a string default goes through type=int, so argparse rejects a
        # malformed environment value with exit code 2
        p.add_argument("--precision-bits", type=int,
                       default=os.environ.get(ENV_PRECISION, "256"))
        p.add_argument("--tolerance", type=float,
                       default=PrecisionContext.tolerance,
                       help="largest left-tail series error accepted where F "
                            "and E are read below x=-1: eval, table, verify, "
                            "oracle-compare and toeplitz-limits; constants and "
                            "toeplitz-scan compute nothing it bounds")
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

    p = sub.add_parser("verify", help="print the paper's checklist")
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


def run(args: argparse.Namespace) -> int:
    try:
        return _COMMANDS[args.command](args)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PrecisionError, SolverError) as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
