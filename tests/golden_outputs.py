"""Golden command outputs: the documents that tests/golden/ holds byte for
byte, how each is formed, and the writer that refreshes them.

    PYTHONPATH=src python3 tests/golden_outputs.py

rewrites every file; its git diff is the review of a change of printed
bytes.  `verify` is pinned whole at FAST, as json.dumps(doc,
sort_keys=True).  The Toeplitz documents are pinned less the fields that
report the pass's bits and bound (without_pass_bits): the values do not
depend on the guard, which the bits and bounds tests hold on their own.

gauss_legendre.json pins the Gauss-Legendre rules of RULE_PINS bit for
bit: one line per node or weight, [n, prec, kind, index] and the value's
raw mpf tuple (sign, mantissa in hex, exponent, bit count), so the diff of
a change to the rule shows each value that moved."""

import json
import os
import pathlib
import sys
import tempfile
from collections import OrderedDict
from unittest import mock

from twlab import cli, quadrature, toeplitz_lab

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# fast solver settings shared by the commands that need the BVP solution
PRECISION = ["--precision-bits", "192"]
FAST = ["--nodes", "500"] + PRECISION

# the commands that read a Hastings-McLeod solution, the only ones that
# take --cache-dir
SOLVING = ("eval", "table", "verify", "oracle-compare", "toeplitz-limits")

# file stem -> (command line, whether the pass's bits and bound are dropped)
DOCUMENTS = {
    "verify": (["verify"] + FAST, False),
    "scan_t30": (["toeplitz-scan", "--t", "30", "--qmax", "70"], True),
    "scan_t3": (["toeplitz-scan", "--t", "3", "--qmax", "8"], True),
    "limits": (["toeplitz-limits", "--t", "10", "--x", "-1", "--L", "3",
                "--M", "3"] + FAST, True),
    "limits_e_side": (["toeplitz-limits", "--t", "10", "--x", "-1", "--L", "2",
                       "--M", "3", "--e-side"] + FAST, True),
}

# (n, prec) of the pinned Gauss-Legendre rules: NODE_PINS for their nodes,
# RULE_PINS for nodes and weights, odd n (0 in the middle) and even n
NODE_PINS = [(20, 128), (36, 280), (80, 288), (96, 288)]
RULE_PINS = [(1, 64), (20, 128), (21, 128), (61, 272)]
RULES_FILE = GOLDEN / "gauss_legendre.json"


def pinned_kinds(n: int, prec: int) -> tuple:
    """What gauss_legendre.json pins of the rule (n, prec)."""
    return ("nodes", "weights") if (n, prec) in RULE_PINS else ("nodes",)


def rule_rows(n: int, prec: int) -> list:
    """The pinned form of quadrature.gauss_legendre(n, prec): one row
    [n, prec, kind, index, sign, hex mantissa, exponent, bit count] per
    node, then per weight if the weights are pinned."""
    xs, ws = quadrature.gauss_legendre(n, prec)
    return [[n, prec, kind, i, v._mpf_[0], hex(int(v._mpf_[1])), v._mpf_[2], v._mpf_[3]]
            for kind, values in (("nodes", xs), ("weights", ws))
            if kind in pinned_kinds(n, prec)
            for i, v in enumerate(values)]


def pinned_rule_rows(n: int, prec: int) -> list:
    """The rows of gauss_legendre.json for the rule (n, prec)."""
    rows = json.loads(RULES_FILE.read_text())
    return [row for row in rows if row[:2] == [n, prec]]


def first_rule_difference(got: list, want: list):
    """The (n, prec, kind, index) of the first row where two lists of rule
    rows differ, with both values; None where they are equal."""
    for a, b in zip(got, want):
        if a != b:
            return f"n={b[0]}, prec={b[1]}, {b[2]}[{b[3]}]: {a[4:]} != {b[4:]}"
    if len(got) != len(want):
        return f"{len(got)} rows != {len(want)}"
    return None


def render_rules() -> str:
    """The text of gauss_legendre.json, each rule built afresh."""
    rows = []
    for n, prec in sorted(set(NODE_PINS + RULE_PINS)):
        with mock.patch.object(quadrature, "_rule_cache", {}):
            rows += rule_rows(n, prec)
    return "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n"


def without_pass_bits(doc):
    """A command's document less the fields that report the bits and the
    bound of the pass that formed it."""
    if isinstance(doc, dict):
        return {k: without_pass_bits(v) for k, v in doc.items()
                if k not in ("precision_bits_used", "abs_error_bound")}
    if isinstance(doc, list):
        return [without_pass_bits(v) for v in doc]
    return doc


def run_cli(args, workdir, name):
    """(exit code, output text) of a command run in-process with --output
    workdir/name and, for a SOLVING command, the solution cache under
    ``workdir``."""
    out = os.path.join(workdir, name)
    cache = (["--cache-dir", os.path.join(workdir, "cache")]
             if args[0] in SOLVING else [])
    code = cli.main(args + cache + ["--output", out])
    text = open(out).read() if os.path.exists(out) else ""
    return code, text


def render(name: str, workdir) -> str:
    """The pinned form of document ``name``, run by run_cli with an empty
    ladder cache (the pass a fresh process runs, not a larger one cached
    before)."""
    args, drop = DOCUMENTS[name]
    with mock.patch.object(toeplitz_lab, "_ladder_cache", OrderedDict()):
        code, text = run_cli(args, workdir, f"golden_{name}.json")
    if code != 0:
        raise RuntimeError(f"{name}: {' '.join(args)} exited {code}")
    doc = json.loads(text)
    return json.dumps(without_pass_bits(doc) if drop else doc, sort_keys=True)


def first_difference(got, want, path: str = "$"):
    """Where two JSON documents first differ, keys in sorted order: the
    field's path and both values, or None where they are equal."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(got.keys() | want.keys()):
            if key not in got or key not in want:
                return f"{path}.{key}: present on one side only"
            found = first_difference(got[key], want[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(got, list) and isinstance(want, list):
        for i, (a, b) in enumerate(zip(got, want)):
            found = first_difference(a, b, f"{path}[{i}]")
            if found:
                return found
        if len(got) != len(want):
            return f"{path}: {len(got)} entries != {len(want)}"
        return None
    return None if got == want else f"{path}: {got!r} != {want!r}"


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        for name in DOCUMENTS:
            (GOLDEN / f"{name}.json").write_text(render(name, workdir))
            print(f"wrote {GOLDEN / name}.json")
    RULES_FILE.write_text(render_rules())
    print(f"wrote {RULES_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
