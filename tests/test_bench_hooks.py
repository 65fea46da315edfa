"""The benchmark's trace points still name callables of this package, and
the report fields it counts still exist.

perfbench/tracing.py wraps each (module, attribute) pair of LAYER_POINTS for
the length of a traced run, and its _counts reads fields off what the
wrapped layers return, so renaming or deleting one of those functions or
fields in src breaks every traced benchmark run. Likewise checks.py parses
keys out of the solve JSON and the experiment CSV, so dropping one breaks
every benchmark run. And a field of those reports that nothing reads is
dead weight, so each must be read somewhere in the program, the benchmark,
the demos or the acceptance suite. This file reads perfbench's sources
and imports none of them.
"""

from __future__ import annotations

import ast
import csv
import dataclasses
import importlib
import io
import json
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


def loaded_attributes() -> set[str]:
    """Every name read as an attribute (`rep.upper_bound`) in src/cutflip,
    perfbench, demos and tests/test_acceptance.py."""
    files = [*(ROOT / "src" / "cutflip").rglob("*.py"), *(ROOT / "perfbench").glob("*.py"),
             *(ROOT / "demos").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    return {
        node.attr
        for f in files
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("span", sorted(REPORT_TYPES))
def test_every_report_field_has_a_reader(span):
    module, name = REPORT_TYPES[span]
    cls = getattr(importlib.import_module(module), name)
    unread = {f.name for f in dataclasses.fields(cls)} - loaded_attributes()
    assert not unread, f"nothing outside the unit tests reads {name}'s {sorted(unread)}"


def parsed_keys(function: str) -> dict[str, set[str]]:
    """Per variable, the string keys that perfbench/checks.py's function
    reads off it: doc["sdp_value"], r["gain"], doc.get("oracle_opt"), and
    bad[0]["error"] under "bad"."""
    tree = ast.parse((ROOT / "perfbench" / "checks.py").read_text(encoding="utf-8"))
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
    out: dict[str, set[str]] = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Subscript):
            base, key = node.value, node.slice
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and node.args):
            base, key = node.func.value, node.args[0]
        else:
            continue
        while isinstance(base, ast.Subscript):  # trials[0]["sdp_value"] is read off trials
            base = base.value
        if isinstance(base, ast.Name) and isinstance(key, ast.Constant) and isinstance(key.value, str):
            out.setdefault(base.id, set()).add(key.value)
    return out


def test_solve_json_holds_every_key_the_benchmark_parses(tmp_path):
    from cutflip.harness import main

    keys = parsed_keys("parse_solve")
    assert set(keys) == {"doc", "r"}  # the document, and each of its reports
    inst, out = tmp_path / "c5.txt", tmp_path / "out.json"
    inst.write_text("5 5\n0 1 -1 1\n1 2 -1 1\n2 3 -1 1\n3 4 -1 1\n0 4 -1 1\n")
    assert main(["solve", str(inst), "--trials", "3", "--oracle", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert keys["doc"] <= set(doc), sorted(keys["doc"] - set(doc))
    assert len(doc["reports"]) == 3
    for report in doc["reports"]:
        assert keys["r"] <= set(report), sorted(keys["r"] - set(report))


def test_experiment_csv_holds_every_column_the_benchmark_parses(tmp_path):
    from cutflip.harness import main

    keys = parsed_keys("parse_experiment")
    # rows of kind "error" (and their "error" column) are no longer written:
    # an experiment that cannot run exits 3
    assert set(keys) == {"r", "trials", "bad"} and keys["bad"] == {"error"}
    spec, out = tmp_path / "spec.json", tmp_path / "out.csv"
    spec.write_text(json.dumps({"instances": {"generator": {"n": [8], "d": [3]}},
                                "trials": 3, "seed": 1, "csv": str(out)}))
    assert main(["experiment", str(spec)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text().split("\n", 1)[1])))
    trials = [r for r in rows if r["kind"] == "trial"]
    assert len(trials) == 3
    for row in trials:
        wanted = keys["r"] | keys["trials"]
        assert {k for k, v in row.items() if v != ""} >= wanted, sorted(wanted - set(row))
