"""The benchmark's trace points still name callables of this package.

perfbench/tracing.py wraps each (module, attribute) pair of LAYER_POINTS for
the length of a traced run, so renaming or deleting one of those functions in
src breaks every traced benchmark run. This file only reads perfbench.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def layer_points() -> list[tuple[str, str, str]]:
    """LAYER_POINTS as written in perfbench/tracing.py, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYER_POINTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no LAYER_POINTS")


@pytest.mark.parametrize("module, attr, span", layer_points())
def test_trace_point_resolves(module, attr, span):
    mod = importlib.import_module(module)
    assert Path(mod.__file__).resolve().is_relative_to(ROOT / "src"), mod.__file__
    assert callable(getattr(mod, attr, None)), f"{module}.{attr} (span {span}) is gone"
