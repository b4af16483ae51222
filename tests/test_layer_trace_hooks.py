"""The benchmark's layer trace wraps package functions that it finds by name.

benchmark/layertrace.py looks every entry of its TRACED table up with
getattr, so renaming one of them would break `run.py --trace 1` without a
test failing.  The table is read with ast so that no benchmark module is
imported here.
"""

import ast
import importlib
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "benchmark" / "layertrace.py"


def _traced_table():
    tree = ast.parse(LAYERTRACE.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {LAYERTRACE.name}")


def test_traced_names_resolve():
    traced = _traced_table()
    assert traced
    for module, name, _ in traced:
        owner = importlib.import_module(f"bendercuts.{module}")
        assert callable(getattr(owner, name, None)), f"bendercuts.{module}.{name}"
    simplex = importlib.import_module("bendercuts.simplex")
    assert callable(getattr(simplex._Tableau, "_pivot", None))
