"""Every name a demo imports from cutflip resolves, without running the demo."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cutflip"
        for alias in node.names
    ]
    assert imports, f"{path.name} imports nothing from cutflip"
    missing = [f"{mod}.{name}" for mod, name in imports
               if not hasattr(importlib.import_module(mod), name)]
    assert not missing, f"{path.name}: unresolved imports {missing}"


def test_demos_found():
    assert DEMOS, "no demos/*.py next to tests/"
