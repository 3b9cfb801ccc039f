"""The traced benchmark run wraps library names listed in
perfbench/spans.py; a renamed or deleted name must fail here, not only in
the traced run."""

import importlib
import importlib.util
import os

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
