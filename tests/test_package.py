import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import entangler

MODULES = ["entangler"] + [f"entangler.{m.name}"
                           for m in pkgutil.iter_modules(entangler.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def traced_names():
    """module.function for every entry of LAYERS in bench/tracing.py, read
    from the file's source (the benchmark wraps these by name)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    layers, = [ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]]
    return [(mod, fn) for mod, fns in layers.items() for fn in fns]


@pytest.mark.parametrize("module, function", traced_names())
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"entangler.{module}"), function))
