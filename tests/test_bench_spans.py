"""Library names against their users.  The traced benchmark run wraps
library names listed in perfbench/spans.py; a renamed or deleted name must
fail here, not only in the traced run.  And every public name of src/twlab
is read by the library or the benchmark, not by the tests alone."""

import ast
import importlib
import importlib.util
import os
import pathlib
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_spans():
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    missing = []
    for mod_name, dotted, _ in _load_spans().TARGETS:
        obj = importlib.import_module(f"twlab.{mod_name}")
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{mod_name}.{dotted}")
    assert not missing


# public names kept for a coming reader: the exact R left-series
# coefficients, for the constants from the determinants
_UNREAD_BY_DESIGN = {"r_left_series_coefficients"}


def _names_read(path):
    """Every name a file reads: names, attributes, imports, and the words of
    its strings (spans.TARGETS names its targets in strings)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"\w+", node.value))
    return names


def test_every_public_name_has_a_reader_beyond_the_tests():
    root = pathlib.Path(ROOT)
    library = sorted((root / "src" / "twlab").glob("*.py"))
    read = set().union(*(_names_read(path) for path in
                         library + sorted((root / "perfbench").glob("*.py"))))
    unread = [f"{path.name}:{node.name}" for path in library
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and node.name not in read | _UNREAD_BY_DESIGN]
    assert unread == []
