"""The benchmark's trace points still name callables of this package, and
the report fields it counts still exist.

perfbench/tracing.py wraps each (module, attribute) pair of LAYER_POINTS for
the length of a traced run, and its _counts reads fields off what the
wrapped layers return, so renaming or deleting one of those functions or
fields in src breaks every traced benchmark run. This file only reads
perfbench.
"""

from __future__ import annotations

import ast
import dataclasses
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


# the class of the value each traced layer returns, whose fields _counts reads
REPORT_TYPES = {
    "sdp.solve": ("cutflip.sdp", "SdpReport"),
    "localsearch.analyze": ("cutflip.localsearch", "CandidateAnalysis"),
    "oracle.solve": ("cutflip.oracle", "OracleResult"),
}


def counted_fields() -> dict[str, set[str]]:
    """Per span name, the attributes that perfbench/tracing.py's _counts reads
    off that layer's result (`rep.iterations`, `result.candidates`, ...)."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    counts = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_counts")
    out = {}
    for node in ast.walk(counts):
        if isinstance(node, ast.If) and isinstance(node.test, ast.Compare):
            span = node.test.comparators[0].value
            out[span] = {
                a.attr
                for stmt in node.body
                for a in ast.walk(stmt)
                if isinstance(a, ast.Attribute) and isinstance(a.value, ast.Name)
            }
    return out


def test_counted_fields_are_read_from_known_reports():
    fields = counted_fields()
    assert {span for span, attrs in fields.items() if attrs} == set(REPORT_TYPES)
    assert fields["sdp.solve"] >= {"iterations", "objective_history", "n_active", "converged"}


@pytest.mark.parametrize("span", sorted(REPORT_TYPES))
def test_counted_fields_exist(span):
    module, name = REPORT_TYPES[span]
    cls = getattr(importlib.import_module(module), name)
    names = {f.name for f in dataclasses.fields(cls)}
    names |= {k for k, v in vars(cls).items() if isinstance(v, property)}
    missing = counted_fields()[span] - names
    assert not missing, f"{name} lost {sorted(missing)}, which the benchmark reads for {span}"
