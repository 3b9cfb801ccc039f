"""What the commands reach: every command runs in-process under a profile
hook, and the src/twlab functions that no run enters must be the ones
named below, each with the reader it waits for.  A function that only the
tests call shows up here, and so does one that a change stops calling."""

import ast
import importlib
import os
import pathlib
import pkgutil
import sys

import twlab
from twlab import cli

PACKAGE = pathlib.Path(twlab.__file__).resolve().parent

# never entered by a command: module.qualname -> what reads it
NEVER_ENTERED = {
    "errors.SolverError.__init__": "a failed solve only",
    "toeplitz_lab.toeplitz_log_det_lu":
        "perfbench toeplitz_scan (the Cholesky route); renamed by ROADMAP item 1",
    "linalg.cauchy_schur_entry_error": "the Fredholm bound of ROADMAP item 5",
    "painleve2.r_left_series_coefficients": "the determinant constants of ROADMAP item 10",
    "painleve2.HMSolution._read": "perfbench hm_solve; verify rows of ROADMAP item 6",
    "painleve2.HMSolution.q_at": "perfbench hm_solve; verify rows of ROADMAP item 6",
    "painleve2.HMSolution.q_prime_at": "perfbench hm_solve; verify rows of ROADMAP item 6",
    "painleve2.r_of": "perfbench hm_solve; verify rows of ROADMAP item 6",
    "painleve2._points": "perfbench hm_solve; verify rows of ROADMAP item 6",
}

FAST = ["--nodes", "500", "--precision-bits", "192"]
RUNS = [
    ["eval", "--x", "-2", "--beta", "2"] + FAST,
    ["eval", "--x", "0.5"] + FAST,  # the cached solution
    ["table", "--xmin", "-3", "--xmax", "1", "--step", "1", "--format", "csv"] + FAST,
    ["constants", "--precision-bits", "192"],
    ["verify"] + FAST,
    ["oracle-compare", "--xmin", "-1", "--xmax", "0", "--m-quad", "40"] + FAST,
    ["toeplitz-scan", "--t", "3", "--qmax", "8"],
    ["toeplitz-limits", "--t", "10", "--x", "-1", "--L", "3", "--M", "3"] + FAST,
    ["toeplitz-limits", "--t", "10", "--x", "-1", "--L", "2", "--M", "3",
     "--e-side"] + FAST,
]


def _functions(path: pathlib.Path) -> dict:
    """{first line: qualname} of every def in the module, nested and
    methods included; the first line is a decorator's, as in co_firstlineno."""
    out = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                out[min([child.lineno] + [d.lineno for d in child.decorator_list])] = name
                walk(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text()), "")
    return out


def test_commands_reach_every_function_but_the_named_ones(tmp_path, monkeypatch):
    # a warm module memo (a Gauss-Legendre rule, a ladder, zeta'(-1)) would
    # hide the builder behind it, so every run starts with them empty
    # (each submodule imported first: run alone, this file imports only cli's)
    for info in pkgutil.iter_modules(twlab.__path__):
        module = importlib.import_module(f"twlab.{info.name}")
        for name, value in list(vars(module).items()):
            if name.endswith("_cache") and isinstance(value, dict):
                monkeypatch.setattr(module, name, type(value)())
    cache = ["--cache-dir", str(tmp_path / "cache")]
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    try:
        for i, args in enumerate(RUNS):
            solving = args[0] in ("eval", "table", "verify", "oracle-compare",
                                  "toeplitz-limits")
            out = ["--output", str(tmp_path / f"out{i}")]
            assert cli.main(args + (cache if solving else []) + out) == 0, args
    finally:
        sys.setprofile(None)
    assert len(os.listdir(tmp_path / "cache")) == 1
    lines = {(pathlib.Path(code.co_filename).resolve(), code.co_firstlineno)
             for code in entered}
    never = {f"{path.stem}.{name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, name in _functions(path).items()
             if (path, line) not in lines}
    assert never == set(NEVER_ENTERED)
