"""The benchmark's cold passes stay cold.  perfbench/workloads.py empties the
library's memos between passes through clear_caches, which finds them by
name: every module-level name ending in ``_cache``.  A memo under another
name, or a functools cache, would survive it and make a cold pass warm."""

import ast
import importlib.util
import pathlib
import re
import sys

from twlab import (fredholm_oracle, painleve2, quadrature, specialfn,
                   toeplitz_lab)
from twlab.precision import PrecisionContext

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load_workloads(monkeypatch):
    # workloads.py imports its neighbours grids and measure by bare name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _memos():
    """(module, name, value) of every module-level *_cache of twlab."""
    return [(module, name, value)
            for mod_name, module in sorted(sys.modules.items())
            if mod_name.startswith("twlab.") and module is not None
            for name, value in vars(module).items() if name.endswith("_cache")]


def test_clear_caches_empties_every_memo(monkeypatch):
    workloads = _load_workloads(monkeypatch)
    for module, name, value in _memos():
        monkeypatch.setattr(module, name, type(value)())
    ctx = PrecisionContext(128)
    toeplitz_lab.get_ladder(2.0, "plain", 5, ctx)
    quadrature.gauss_legendre(20, 128)
    specialfn.zeta_prime_minus_one(128)
    specialfn.airy_ai(1, 128)                        # the Airy constants
    fredholm_oracle.nystrom_matrix(-4, 20, ctx)      # a walk start, the rule
    painleve2._dct_halves(24, 128)                   # the matrix, its halves
    filled = {name for _, name, value in _memos() if value}
    assert filled >= {"_ladder_cache", "_rule_cache", "_zeta_cache",
                      "_airy_const_cache", "_walk_start_cache", "_dct_cache",
                      "_dct_halves_cache", "_reference_rule_cache"}
    workloads.clear_caches()
    assert [name for _, name, value in _memos() if value] == []


def test_no_functools_memo_in_the_library():
    pattern = re.compile(r"lru_cache|functools\.cache\b|@cache\b|"
                         r"from functools import[^\n]*\bcache\b")
    hits = [f"{path.name}:{n}"
            for path in sorted((ROOT / "src" / "twlab").glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
    assert hits == []


def test_one_memo_rule_per_solution():
    # every value kept with a solution goes through HMSolution.cached: its
    # memo dict is named only by the field and by cached, and each caller
    # passes cached a module-level builder, not a closure
    src = ROOT / "src" / "twlab"
    cls = next(node for node in ast.parse((src / "painleve2.py").read_text()).body
               if isinstance(node, ast.ClassDef) and node.name == "HMSolution")
    allowed = {("painleve2.py", n) for node in cls.body
               if getattr(node, "name", None) == "cached"
               or getattr(getattr(node, "target", None), "id", None) == "_cum_cache"
               for n in range(node.lineno, node.end_lineno + 1)}
    hits, builders = set(), []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        hits |= {(path.name, n) for n, line in enumerate(text.splitlines(), 1)
                 if "_cum_cache" in line}
        tree = ast.parse(text)
        top = {node.name for node in tree.body if hasattr(node, "name")}
        builders += [(path.name, isinstance(call.args[1], ast.Name)
                      and call.args[1].id in top)
                     for call in ast.walk(tree) if isinstance(call, ast.Call)
                     and getattr(call.func, "attr", None) == "cached"]
    assert hits and hits <= allowed
    assert builders and all(ok for _, ok in builders), builders
