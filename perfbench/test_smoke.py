"""Smoke test of the benchmark at toy sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is emitted, that per-layer
self times add up to the traced wall time, and that fabricated outputs
violating a check are counted as failures.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import run  # noqa: E402
from checks import Outcome  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from cutflip.harness import main as cli  # noqa: E402
from cutflip.instance import gen_random_regular, write_instance  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# the metric names the benchmark definition promises, by mode
E2E = {"setup_s", "wall_s", "solve_s_p50", "solve_s_tail", "peak_rss_mb", "sdp_obj_per_w",
       "best_per_w", "flipped_per_w", "gain_per_w", "flipped_vs_opt", "converged_frac"}
LAYER = {
    "sdp.solve_s", "sdp.self_s", "sdp.inner_iters", "sdp.outer_rounds", "sdp.s_per_inner_iter",
    "sdp.active_constraints", "sdp.converged_frac", "sdp.max_violation", "sdp.triples",
    "sdp.triples_s", "sdp.scan_s", "rounding.trials", "rounding.sample_us", "rounding.round_us",
    "localsearch.analyze_us", "localsearch.flip_us", "localsearch.evaluate_us",
    "localsearch.candidates", "localsearch.flips", "localsearch.flip_yield",
    "localsearch.report_s", "localsearch.report_calls", "oracle.solve_s",
    "oracle.assignments_per_s", "instance.gen_s", "instance.parse_s", "harness.self_s",
    "trace.overhead_frac",
}


def _run(capsys, workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
            "--smoke"]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_emitted(capsys, workload):
    res = _run(capsys, workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert E2E <= set(res["metrics"])
    for name, m in res["metrics"].items():
        assert m["value"] >= 0, name  # toy instances may show no flip gain
    for name in ("setup_s", "wall_s", "solve_s_p50", "solve_s_tail", "peak_rss_mb"):
        assert res["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", ["nbhd", "desk"])
def test_per_layer_metrics_add_up(capsys, workload):
    res = _run(capsys, workload, 1)
    assert res["correct"]
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert LAYER <= set(metrics)
    trials = metrics["rounding.trials"]
    per_trial = sum(metrics[f"{layer}_us"] for layer in (
        "rounding.sample", "rounding.round", "localsearch.analyze", "localsearch.flip",
        "localsearch.evaluate")) * trials / 1e6
    seconds = sum(metrics[k] for k in (
        "sdp.self_s", "sdp.triples_s", "sdp.scan_s", "localsearch.loop_s",
        "localsearch.report_s", "oracle.solve_s", "instance.parse_s", "harness.self_s",
        "bench.self_s"))
    assert per_trial + seconds == pytest.approx(metrics["trace.wall_s"], rel=1e-9)


@pytest.fixture
def desk_call(tmp_path):
    """A real desk-style solve on a toy instance: (workdir, output bytes)."""
    inst = gen_random_regular(10, 3, 0.8, "unit", seed=5)
    (tmp_path / "x.txt").write_text(write_instance(inst), encoding="utf-8")
    out = tmp_path / "x.json"
    argv = ["solve", str(tmp_path / "x.txt"), "--trials", "5", "--oracle", "--json", str(out)]
    assert cli(argv) == 0
    return tmp_path, out.read_bytes()


def _failed(workdir: Path, outputs: list[bytes]) -> int:
    args = SimpleNamespace(smoke=True)
    outs = [Outcome("x", 0, 0.1, data) for data in outputs]
    attempted, failed, _ = bench.check_all(WORKLOADS["desk"], args, workdir, [],
                                           [bench.Pass(False, 1.0, outs)])
    assert attempted == len(outputs)
    return failed


def _edit(data: bytes, fn) -> bytes:
    doc = json.loads(data)
    fn(doc)
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def test_genuine_output_passes(desk_call):
    workdir, data = desk_call
    assert _failed(workdir, [data, data]) == 0


def _negative_gain(doc):
    r = doc["reports"][0]
    r["gain"] = -1.0
    r["flipped_value"] = r["rounded_value"] - 1.0


def _bad_rescore(doc):
    doc["best_value"] += 1.0
    doc["oracle_opt"] += 1.0
    for r in doc["reports"]:
        if r["flipped_value"] == doc["best_value"] - 1.0:
            r["flipped_value"] += 1.0
            r["gain"] += 1.0


def _above_opt(doc):
    doc["oracle_opt"] = doc["best_value"] - 0.5


def _false_convergence(doc):
    doc["sdp_converged"] = True
    doc["sdp_max_violation"] = 1e-3


def _flip_sum(doc):
    doc["reports"][1]["gain"] += 0.25


@pytest.mark.parametrize("corrupt, message", [
    (_negative_gain, "< 0"),
    (_bad_rescore, "re-scores"),
    (_above_opt, "exceeds OPT"),
    (_false_convergence, "converged but max violation"),
    (_flip_sum, "!= rounded + gain"),
])
def test_fabricated_output_counts_as_failure(capsys, desk_call, corrupt, message):
    workdir, data = desk_call
    assert _failed(workdir, [_edit(data, corrupt)]) == 1
    assert message in capsys.readouterr().err


def test_nondeterministic_bytes_count_as_failure(capsys, desk_call):
    workdir, data = desk_call
    assert _failed(workdir, [data, data.replace(b"\n", b"\n ", 1)]) == 1
    assert "bytes differ" in capsys.readouterr().err


def test_nonzero_exit_counts_as_failure(desk_call):
    workdir, _ = desk_call
    args = SimpleNamespace(smoke=True)
    outs = [Outcome("x", 3, 0.1, None, error="input error")]
    assert bench.check_all(WORKLOADS["desk"], args, workdir, outs, [])[1] == 1
