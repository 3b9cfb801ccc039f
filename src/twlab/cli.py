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

Every command returns (doc, rows, columns) of raw values (mpf, float, int
or str); run adds schema_version and command, and _emit prints the result
in one pass: each mpf and float as a decimal string (25 significant digits
by default) so output is byte-identical across runs at fixed precision.
verify prints each bound as twlab.checks writes it, and toeplitz-scan its
ladder values only to their proven bound (_bounded).
The expensive boundary-value solve is cached on disk, one file per
(solution schema version, solver version, window, nodes, precision).  A
file is read only if it decodes and holds the solve its name promises: the
same window and precision, and the element count that
painleve2.element_count gives for --nodes.  Any other file is solved again
and replaced.  Delete the cache directory to force a re-solve.
Exit codes: 0 success, 1 verification/precision failure, 2 invalid input
or a file that cannot be opened or made (--output, whose directory is
checked before any work, a cache file, or the --cache-dir, made before any
solve).  Each command imports the twlab modules it runs, so import
twlab.cli loads only errors and precision.

main(argv) is the entry point: run(build_parser().parse_args(argv)).  The
commands read the argparse namespace itself, so each option is declared,
defaulted and documented once, in build_parser, and offered only where it
is read (an option a command does not read exits 2):
  --precision-bits, --format, --output       every command
  --tolerance, --cache-dir, --window, --nodes
                                             the commands that solve: eval,
                                             table, verify, oracle-compare
                                             and toeplitz-limits
  --no-check                                 eval, table, oracle-compare
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence

from mpmath import mp, mpf

from .errors import DomainError, PrecisionError, SolverError, real
from .precision import PrecisionContext

if TYPE_CHECKING:
    from .painleve2 import HMSolution

SCHEMA_VERSION = 1
_DIGITS = 25

ENV_PRECISION = "TW_PRECISION_BITS"
ENV_CACHE = "TW_CACHE_DIR"


def _num(v) -> str:
    # conversion must not re-round existing high-precision values at the
    # ambient (53-bit) working precision
    with mp.workprec(4096):
        v = mpf(v)
        if not v:  # nstr prints "0.0", short of _DIGITS digits
            return "0." + "0" * (_DIGITS - 1)
        return mp.nstr(v, _DIGITS, strip_zeros=False)


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
    """Write the result document, its rows under "rows", as JSON, or the
    rows alone as CSV.  The one pass of text() prints every mpf and float
    of either through _num, and None as the empty cell."""
    def text(v):
        if isinstance(v, dict):
            return {k: text(w) for k, w in v.items()}
        if isinstance(v, list):
            return [text(w) for w in v]
        if v is None:
            return ""
        return _num(v) if isinstance(v, (mpf, float)) else v

    doc = text(doc if rows is None else dict(doc, rows=rows))
    with (open(args.output_path, "w") if args.output_path
          else contextlib.nullcontext(sys.stdout)) as fh:
        if args.format == "csv":
            import csv
            writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
            writer.writeheader()
            writer.writerows(doc["rows"])
        else:
            fh.write(json.dumps(doc, indent=2) + "\n")


def _context(args: argparse.Namespace) -> PrecisionContext:
    return PrecisionContext(args.precision_bits, args.tolerance)


def _cache_path(args: argparse.Namespace, ctx: PrecisionContext) -> str:
    from . import painleve2
    x_left, x_right = args.window
    key = (f"hm_v{painleve2.SCHEMA_VERSION}_s{painleve2.SOLVER_VERSION}"
           f"_{x_left!r}_{x_right!r}"
           f"_{args.nodes}_{ctx.precision_bits}.json").replace("-", "m")
    return os.path.join(args.cache_dir, key)


def _solution(args: argparse.Namespace, ctx: PrecisionContext) -> HMSolution:
    """Disk-cached Hastings-McLeod solve keyed by (solution schema, solver
    version, window, nodes, bits).  A cache file that does not decode, or
    holds a solve of another window, precision or element count, is solved
    again and replaced."""
    from . import painleve2
    os.makedirs(args.cache_dir, exist_ok=True)
    path = _cache_path(args, ctx)
    if os.path.exists(path):
        try:
            with open(path) as fh:
                sol = painleve2.HMSolution.from_json(fh.read())
        except ValueError:
            pass  # truncated, foreign, old-schema or non-UTF-8 file: a cache miss
        else:
            if (sol.x_left, sol.x_right, sol.precision_bits, sol.elements) == (
                    *args.window, ctx.precision_bits,
                    painleve2.element_count(args.nodes)):
                return sol
    sol = painleve2.solve_hastings_mcleod(*args.window, args.nodes, ctx)
    tmp = path + f".tmp{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(sol.to_json())
    os.replace(tmp, path)
    return sol


def _solved(args: argparse.Namespace):
    """(ctx, solution, tail constants) of the commands that read F."""
    from . import twdist
    ctx = _context(args)
    return ctx, _solution(args, ctx), twdist.TailConstants.compute(ctx)


_POINT_COLUMNS = ["x", "F", "E", "F1", "F2", "F4", "representation"]


def _point_rows(args: argparse.Namespace, xs: Sequence) -> List[dict]:
    """The _POINT_COLUMNS of twdist.tw_point at each x of xs."""
    from . import twdist
    ctx, sol, consts = _solved(args)
    points = (twdist.tw_point(x, sol, consts, ctx, check=args.check) for x in xs)
    return [{column: getattr(pt, column) for column in _POINT_COLUMNS}
            for pt in points]


def _cmd_eval(args: argparse.Namespace):
    row, = _point_rows(args, [args.x])
    doc = {"precision_bits": args.precision_bits}
    if args.beta is not None:
        doc.update(beta=args.beta, value=row[f"F{args.beta}"])
    return doc, [row], _POINT_COLUMNS


# the most points an x grid may hold; a larger one is refused before a solve
_MAX_GRID_POINTS = 100_000


def _x_grid(args: argparse.Namespace) -> List[mpf]:
    real(args.x_min, "--xmin")
    real(args.x_max, "--xmax")
    if not real(args.step, "--step") > 0:
        raise DomainError("--step must be positive")
    if args.x_min > args.x_max:
        raise DomainError("--xmin must not exceed --xmax")
    # a float quotient, which may be inf, so no int of it is formed first
    steps = (args.x_max - args.x_min) / args.step
    if steps >= _MAX_GRID_POINTS:
        raise DomainError(f"the x grid would hold more than {_MAX_GRID_POINTS} "
                          "points; raise --step or narrow the range")
    # x_min + k step from an integer k, so rounding does not accumulate
    xs = (args.x_min + k * args.step for k in range(int(steps) + 2))
    return [mpf(x) for x in xs if x <= args.x_max]


def _cmd_table(args: argparse.Namespace):
    rows = _point_rows(args, _x_grid(args))
    return {"precision_bits": args.precision_bits}, rows, _POINT_COLUMNS


_FORMULAS = {
    "tau1": "2^(-11/48) * exp(zeta'(-1)/2)",
    "tau2": "2^(1/24) * exp(zeta'(-1))",
    "tau4": "2^(-35/48) * exp(zeta'(-1)/2)",
    "f_prefactor": "2^(1/48) * exp(zeta'(-1)/2)",
    "e_prefactor": "2^(-1/4)",
}


def _cmd_constants(args: argparse.Namespace):
    from . import twdist
    consts = twdist.TailConstants.compute(PrecisionContext(args.precision_bits))
    rows = [{"name": name, "formula": formula, "value": getattr(consts, name)}
            for name, formula in _FORMULAS.items()]
    doc = {"precision_bits": args.precision_bits,
           "zeta_prime_minus_one": consts.zeta_prime_minus_one,
           **{row["name"]: {"formula": row["formula"], "value": row["value"]}
              for row in rows}}
    return doc, rows, ["name", "formula", "value"]


def _cmd_verify(args: argparse.Namespace):
    from . import checks
    ctx, sol, consts = _solved(args)
    rows = [{"item": r.name, "measured": r.measured,
             "tolerance": r.bound, "status": "pass" if r.ok else "fail"}
            for check in checks.CHECKS for r in check(sol, consts, ctx)]
    ok = all(row["status"] == "pass" for row in rows)
    doc = {"precision_bits": args.precision_bits,
           "status": "pass" if ok else "fail"}
    return doc, rows, ["item", "measured", "tolerance", "status"]


def _cmd_oracle_compare(args: argparse.Namespace):
    from . import fredholm_oracle, twdist
    xs = _x_grid(args)
    ctx, sol, consts = _solved(args)
    rows = []
    for x in xs:
        f2p = twdist.tw_cdf(x, 2, sol, consts, ctx, check=args.check)
        f2f = fredholm_oracle.f2_fredholm(x, args.m_quad, ctx,
                                          verify_convergence=False)
        with ctx.workprec():
            diff = abs(f2p - f2f)
        rows.append({"x": x, "f2_painleve": f2p, "f2_fredholm": f2f,
                     "abs_diff": diff})
    doc = {"precision_bits": args.precision_bits, "m_quad": args.m_quad,
           "max_abs_diff": max(row["abs_diff"] for row in rows)}
    return doc, rows, ["x", "f2_painleve", "f2_fredholm", "abs_diff"]


def _cmd_toeplitz_scan(args: argparse.Namespace):
    from . import toeplitz_lab
    toeplitz_lab._check_t(args.t, "--t")
    q_max = int(2 * args.t) + 10 if args.q_max is None else args.q_max
    if q_max and q_max < args.q_min:  # --qmax 0 asks for no q: only the header
        raise DomainError("--qmin must not exceed --qmax")
    scan = toeplitz_lab.toeplitz_scan(args.t, range(args.q_min, q_max + 1),
                                      PrecisionContext(args.precision_bits),
                                      with_pi=args.with_pi)
    rows = [{"t": scan.t, "q": r.q, "gamma": r.gamma,
             "log_kappa_sq": _bounded(r.log_kappa_sq, scan.error_bound),
             "pi0": None if r.pi0 is None else _bounded(r.pi0, scan.error_bound),
             "log_kappa_sq_airy_pred": r.log_kappa_sq_airy_pred,
             "pi0_airy_pred": r.pi0_airy_pred,
             "precision_bits_used": scan.precision_bits_used}
            for r in scan.records]
    doc = {"t": scan.t, "precision_bits_used": scan.precision_bits_used,
           "abs_error_bound": scan.error_bound}
    return doc, rows, ["t", "q", "gamma", "log_kappa_sq", "pi0",
                       "log_kappa_sq_airy_pred", "pi0_airy_pred",
                       "precision_bits_used"]


def _cmd_toeplitz_limits(args: argparse.Namespace):
    from . import checks, toeplitz_lab
    if args.format == "csv":
        raise DomainError(f"command {args.command} has no CSV form")
    toeplitz_lab._check_t(args.t, "--t")
    real(args.x, "--x")
    ctx, sol, consts = _solved(args)
    mode, report = (("e_side", checks.e_double_scaling_check) if args.e_side
                    else ("sum_parts", checks.sum_parts_report))
    rep = report(args.t, args.x, args.L, args.M, sol, consts, ctx)
    # the report's fields in their order, "parts" keeping its place
    parts = {name: {"value": value, "limit": limit}
             for name, (value, limit) in rep.parts.items()}
    return {"mode": mode, **vars(rep), "parts": parts}, None, None


def build_parser() -> argparse.ArgumentParser:
    # three nested parents: each command takes only the options it reads
    output = argparse.ArgumentParser(add_help=False)
    # a string default goes through type=int, so argparse rejects a
    # malformed environment value with exit code 2
    output.add_argument("--precision-bits", type=int,
                        default=os.environ.get(ENV_PRECISION, "256"))
    output.add_argument("--format", choices=("json", "csv"), default="json")
    output.add_argument("--output", dest="output_path", default=None)

    solution = argparse.ArgumentParser(add_help=False, parents=[output])
    solution.add_argument("--tolerance", type=float,
                          default=PrecisionContext.tolerance,
                          help="largest left-tail series error accepted where "
                               "F and E are read below x=-1")
    solution.add_argument("--cache-dir",
                          default=os.environ.get(ENV_CACHE, ".twlab_cache"))
    solution.add_argument("--window", nargs=2, type=float, metavar=("XL", "XR"),
                          default=(-12.0, 8.0))
    solution.add_argument("--nodes", type=int, default=1100)

    checked = argparse.ArgumentParser(add_help=False, parents=[solution])
    checked.add_argument("--no-check", dest="check", action="store_false",
                         help="skip the left/right cross-representation assertion")

    parser = argparse.ArgumentParser(
        prog="twlab",
        description="Tracy-Widom distributions via Painleve II, with "
                    "Fredholm and Toeplitz cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, cmd, parent, help):
        p = sub.add_parser(name, parents=[parent], help=help)
        p.set_defaults(cmd=cmd)
        return p

    p = command("eval", _cmd_eval, checked, "evaluate one distribution point")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--beta", type=int, choices=(1, 2, 4))

    p = command("table", _cmd_table, checked, "tabulate points over an x range")
    p.add_argument("--xmin", dest="x_min", type=float, required=True)
    p.add_argument("--xmax", dest="x_max", type=float, required=True)
    p.add_argument("--step", type=float, default=0.5)

    command("constants", _cmd_constants, output, "tail constants")
    command("verify", _cmd_verify, solution, "print the paper's checklist")

    p = command("oracle-compare", _cmd_oracle_compare, checked,
                "compare F2 against the Fredholm determinant")
    p.add_argument("--xmin", dest="x_min", type=float, required=True)
    p.add_argument("--xmax", dest="x_max", type=float, required=True)
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--m-quad", dest="m_quad", type=int, default=80)

    p = command("toeplitz-scan", _cmd_toeplitz_scan, output,
                "kappa/pi ladder at fixed t")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--qmin", dest="q_min", type=int, default=1)
    p.add_argument("--qmax", dest="q_max", type=int, default=None)
    p.add_argument("--no-pi", dest="with_pi", action="store_false")

    p = command("toeplitz-limits", _cmd_toeplitz_limits, solution,
                "product-split reports")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--e-side", dest="e_side", action="store_true")

    return parser


def run(args: argparse.Namespace) -> int:
    try:
        # the file is opened only after the work: a failed command keeps it
        out = args.output_path
        if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
            raise OSError(f"--output {out}: not a file in an existing directory")
        doc, rows, columns = args.cmd(args)
        _emit({"schema_version": SCHEMA_VERSION, "command": args.command, **doc},
              rows, columns, args)
    except (DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PrecisionError, SolverError) as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return 1
    return 1 if doc.get("status") == "fail" else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
