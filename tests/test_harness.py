from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
import concurrent.futures
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cutflip
import cutflip.harness as harness
import cutflip.instance as instance
import cutflip.numerics as numerics
from cutflip.harness import ExperimentSpec, derive_seed, main, run_experiment
from cutflip.instance import InstanceError, parse_instance
from cutflip.numerics import CheckResult
from cutflip.sdp import SdpConfig, solve_sdp

from conftest import TRIANGLE_TEXT


@pytest.fixture
def triangle_file(tmp_path) -> str:
    p = tmp_path / "triangle.txt"
    p.write_text(TRIANGLE_TEXT + "\n", encoding="utf-8")
    return str(p)


def test_derive_seed_stable():
    assert derive_seed(7, 1, 0) == derive_seed(7, 1, 0)
    assert derive_seed(7, 1, 0) != derive_seed(7, 1, 1)


class TestSolveCommand:
    def test_triangle_with_oracle(self, triangle_file, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = main(["solve", triangle_file, "--trials", "50", "--oracle",
                     "--triangle-mode", "all", "--json", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "best_value=2.0" in text
        assert "ratio_vs_opt=1.0" in text
        payload = json.loads(out.read_text())
        assert payload["best_value"] == 2.0
        assert payload["oracle_opt"] == 2.0
        assert len(payload["reports"]) == 50

    @pytest.mark.parametrize("mode", ["none", "all"])
    def test_ratio_divides_by_the_certified_bound(self, triangle_file, tmp_path, capsys, mode):
        out = tmp_path / "out.json"
        assert main(["solve", triangle_file, "--trials", "5", "--triangle-mode", mode,
                     "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        # K3: SDP optimum 2.25 without triangles, 2 with them
        anchor = 2.25 if mode == "none" else 2.0
        assert payload["sdp_value"] <= anchor + 1e-9 <= payload["sdp_upper_bound"] + 1e-9
        assert payload["ratio_vs_sdp"] == payload["best_value"] / payload["sdp_upper_bound"]
        assert f"sdp_upper_bound={payload['sdp_upper_bound']!r}" in capsys.readouterr().out

    def test_json_byte_identical_across_runs(self, triangle_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["solve", triangle_file, "--trials", "10", "--seed", "3", "--json", str(a)]) == 0
        assert main(["solve", triangle_file, "--trials", "10", "--seed", "3", "--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        # a re-run over the first output leaves the same bytes
        assert main(["solve", triangle_file, "--trials", "10", "--seed", "3", "--json", str(a)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unconverged_ratio_vs_sdp_is_none(self, triangle_file, tmp_path, capsys, monkeypatch):
        # an unconverged iterate's value bounds nothing, so no ratio is printed
        solve = harness.solve_sdp

        def unconverged(inst, cfg):
            emb, rep = solve(inst, cfg)
            return emb, replace(rep, converged=False)

        monkeypatch.setattr(harness, "solve_sdp", unconverged)
        out = tmp_path / "out.json"
        assert main(["solve", triangle_file, "--trials", "5", "--json", str(out)]) == 0
        assert "ratio_vs_sdp=None" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["sdp_converged"] is False
        assert payload["ratio_vs_sdp"] is None
        assert payload["sdp_value"] > 0 and payload["best_value"] > 0

    def test_missing_file_exit_3(self, capsys):
        assert main(["solve", "/nonexistent/path.txt"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_file_not_utf8_names_the_file_exit_3(self, tmp_path, capsys):
        # it exited 3 with only the codec's message, naming no file
        p = tmp_path / "latin1.txt"
        p.write_bytes(b"\xff2 1\n0 1 -1 1.0\n")
        assert main(["solve", str(p)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: ") and "can't decode byte 0xff" in err

    def test_bad_line_names_file_and_line_exit_3(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        p.write_text("3 2\n0 1 -1 1.0\n0 " + "9" * 25 + " 1 1.0\n")
        assert main(["solve", str(p)]) == 3
        assert capsys.readouterr().err == f"error: {p}: line 3: vertex index out of range [0, 3)\n"

    def test_oversized_header_exit_3(self, tmp_path):
        # the header asks for CSR arrays of 745 GiB, which numpy refuses with
        # MemoryError; the address-space limit makes it refuse them also on a
        # host that overcommits memory
        p = tmp_path / "huge.txt"
        p.write_text("100000000000 0\n")
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
            "from cutflip.harness import main\n"
            f"sys.exit(main(['solve', {str(p)!r}]))\n"
        )
        src = str(Path(cutflip.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                   OPENBLAS_NUM_THREADS="1")
        res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert res.returncode == 3
        assert "error:" in res.stderr and "MemoryError" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("flags, field", [(["--tol", "nan"], "objective_tol"),
                                              (["--tol", "inf"], "objective_tol"),
                                              (["--seed", "-1"], "seed")])
    def test_bad_sdp_setting_exit_3(self, triangle_file, capsys, flags, field):
        assert main(["solve", triangle_file, *flags]) == 3
        assert field in capsys.readouterr().err

    def test_all_triples_refused_exit_3(self, tmp_path, capsys):
        p = tmp_path / "empty1000.txt"
        p.write_text("1000 0\n")
        assert main(["solve", str(p), "--triangle-mode", "all"]) == 3
        assert "refused" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, expected", [
        (["--oracle", "--cap", "2"], "brute force refused: n=3"),
        (["--trials", "0"], "trials >= 1"),
        (["--epsilon-C", "0"], "constant must be > 0"),
        (["--epsilon-C", "inf"], "constant must be > 0 and finite"),  # ran with eps = 0
        (["--epsilon-C", "1e-320"], "band half-width inf"),  # wrote "epsilon": Infinity
        # numpy refused the first seed's Philox key after the solve
        (["--seed", str(2**128 - 1), "--trials", "2"], "rounding seed must lie in [0, 2**128)"),
        (["--seed", str(2**128 - 2), "--trials", "3"], f"got {2**128}"),
    ], ids=["oracle_cap", "trials", "epsilon_c", "epsilon_c_inf", "epsilon_c_tiny", "seed",
            "last_seed"])
    def test_unrunnable_solve_refused_before_solving(self, triangle_file, capsys, monkeypatch,
                                                     flags, expected):
        # each was refused only after the SDP solve, and the oracle case
        # after printing best_value= and sdp_value=
        calls = []
        solve = harness.solve_sdp
        monkeypatch.setattr(harness, "solve_sdp", lambda *a: calls.append(a) or solve(*a))
        assert main(["solve", triangle_file, *flags]) == 3
        out, err = capsys.readouterr()
        assert out == "" and expected in err
        assert calls == []

    def test_last_seed_below_the_philox_limit_runs(self, triangle_file, capsys):
        assert main(["solve", triangle_file, "--seed", str(2**128 - 2), "--trials", "2"]) == 0
        assert "best_value=" in capsys.readouterr().out

    @pytest.mark.parametrize("law", ["uniform:1e308,1.7e308", "uniform:1e154,2e154",
                                     "uniform:1e-170,2e-170"])
    def test_unrepresentable_total_weight_exit_3(self, tmp_path, capsys, law):
        # W = inf ended in a TypeError traceback; W near 1e155 or 1e-169
        # returned an unconverged random start or an invalid embedding
        path = tmp_path / "w.txt"
        assert main(["gen", "--n", "14", "--d", "4", "--weights", law, "--out", str(path)]) == 0
        capsys.readouterr()
        with np.errstate(over="ignore"):  # W = inf
            assert main(["solve", str(path), "--oracle"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "total weight W=" in err


class TestOracleCommand:
    def test_five_cycle(self, tmp_path, capsys):
        p = tmp_path / "c5.txt"
        p.write_text("5 5\n0 1 -1 1\n1 2 -1 1\n2 3 -1 1\n3 4 -1 1\n0 4 -1 1\n")
        assert main(["oracle", str(p)]) == 0
        assert "opt=4.0" in capsys.readouterr().out

    def test_cap_refusal_exit_3(self, tmp_path, capsys):
        code = main(["gen", "--n", "30", "--d", "3", "--out", str(tmp_path / "big.txt")])
        assert code == 0
        assert main(["oracle", str(tmp_path / "big.txt")]) == 3
        assert "cap" in capsys.readouterr().err


class TestGenCommand:
    def test_gen_then_solve(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        assert main(["gen", "--n", "10", "--d", "3", "--seed", "4", "--out", str(p)]) == 0
        assert main(["solve", str(p), "--trials", "5", "--oracle"]) == 0

    def test_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["gen", "--n", "10", "--d", "3", "--seed", "4", "--out", str(a)])
        main(["gen", "--n", "10", "--d", "3", "--seed", "4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_gen_uniform_weights(self, tmp_path):
        p = tmp_path / "u.txt"
        assert main(["gen", "--n", "8", "--d", "3", "--weights", "uniform:0.5,2.0",
                     "--out", str(p)]) == 0

    def test_gen_bad_law(self, capsys):
        assert main(["gen", "--n", "8", "--d", "3", "--weights", "exp"]) == 3

    def test_gen_odd_product(self, capsys):
        assert main(["gen", "--n", "5", "--d", "3"]) == 3

    def test_gen_negative_seed_named(self, capsys):
        # numpy's "expected non-negative integer" named no flag
        assert main(["gen", "--n", "10", "--d", "3", "--seed", "-3"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "seed must be >= 0, got -3" in err

    @pytest.mark.parametrize("law, expected", [
        ("uniform:0.3,inf", "finite 0 < lo <= hi"),  # an OverflowError traceback
        ("uniform:0.3,nan", "finite 0 < lo <= hi"),
        ("uniform:0.3", "expected uniform:lo,hi"),  # "not enough values to unpack"
        ("uniform:0.3,2,5", "expected uniform:lo,hi"),
        ("uniform:a,b", "expected uniform:lo,hi"),
    ])
    def test_gen_law_it_cannot_draw_exit_3(self, tmp_path, capsys, law, expected):
        out = tmp_path / "g.txt"
        assert main(["gen", "--n", "8", "--d", "3", "--weights", law, "--out", str(out)]) == 3
        assert expected in capsys.readouterr().err
        assert not out.exists()


class TestOutputFiles:
    """Every output file (solve, oracle and verify --json, experiment --csv,
    gen --out) is written by one helper that unlinks an existing regular file
    first instead of truncating it."""

    @staticmethod
    def run(command: str, out: Path, seed: int, instance: str) -> bytes:
        argv = {
            "gen": ["gen", "--n", "10", "--d", "3", "--seed", str(seed), "--out", str(out)],
            "solve": ["solve", instance, "--trials", "3", "--seed", str(seed), "--json", str(out)],
        }[command]
        assert main(argv) == 0
        return out.read_bytes()

    @pytest.mark.parametrize("command", ["gen", "solve"])
    def test_hard_link_keeps_the_first_output(self, tmp_path, triangle_file, capsys, command):
        out, link = tmp_path / "out", tmp_path / "link"
        first = self.run(command, out, 4, triangle_file)
        os.link(out, link)
        second = self.run(command, out, 5, triangle_file)
        assert second != first
        assert link.read_bytes() == first

    def test_symlink_is_written_through(self, tmp_path, triangle_file, capsys):
        real, link = tmp_path / "real.json", tmp_path / "link.json"
        real.write_text("stale " * 10_000, encoding="utf-8")
        link.symlink_to(real)
        written = self.run("solve", link, 3, triangle_file)
        assert link.is_symlink() and link.resolve() == real.resolve()
        assert real.read_bytes() == written
        assert json.loads(written)["base_seed"] == 3

    @pytest.mark.parametrize("fault", ["directory", "missing_parent"])
    @pytest.mark.parametrize("command, stub", [
        ("solve", "solve_sdp"), ("oracle", "brute_force_opt"), ("verify", "run_verification"),
        ("gen", "gen_random_regular"), ("experiment", "solve_sdp"),
    ])
    def test_unwritable_output_refused_before_any_work(self, tmp_path, triangle_file, capsys,
                                                        monkeypatch, command, stub, fault):
        calls = []
        monkeypatch.setattr(harness, stub, lambda *a, **kw: calls.append(a))
        out = tmp_path / "adir"
        if fault == "directory":
            out.mkdir()
        else:
            out = tmp_path / "missing" / "out"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"instances": {"files": ["triangle.txt"]}, "csv": str(out)}))
        argv = {
            "solve": ["solve", triangle_file, "--json", str(out)],
            "oracle": ["oracle", triangle_file, "--json", str(out)],
            "verify": ["verify", "--json", str(out)],
            "gen": ["gen", "--n", "10", "--d", "3", "--out", str(out)],
            "experiment": ["experiment", str(spec)],
        }[command]
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 3
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert err == f"error: output path {out} is a directory or lies in a missing directory\n"
        assert calls == []
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.skipif(not Path("/dev/stdout").exists(), reason="no /dev/stdout")
    def test_dev_stdout_is_written(self, capsys):
        # through a pipe, so the instance text and the line after it follow
        # each other (a file under fd 1 would be reopened at offset 0)
        argv = ["gen", "--n", "10", "--d", "3"]
        assert main(argv) == 0
        text = capsys.readouterr().out
        src = str(Path(cutflip.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = f"import sys\nfrom cutflip.harness import main\nsys.exit(main({argv + ['--out', '/dev/stdout']!r}))\n"
        res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert res.returncode == 0 and res.stderr == ""
        assert text.startswith("10 15\n") and res.stdout == text + "wrote /dev/stdout\n"


class TestVerifyCommand:
    def test_quick_run_passes(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        code = main(["verify", "--samples", "20000", "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["all_passed"] is True
        names = {c["name"] for c in payload["checks"]}
        assert "arcsin_taylor" in names and "expected_local_gain" in names

    def test_taus_drive_the_tail_check(self, tmp_path):
        out = tmp_path / "v.json"
        assert main(["verify", "--samples", "20000", "--taus", "16,64", "--json", str(out)]) == 0
        taylor = next(c for c in json.loads(out.read_text())["checks"] if c["name"] == "arcsin_taylor")
        assert taylor["details"]["taus"] == taylor["details"]["tail_taus"] == [16, 64]

    @pytest.mark.parametrize("taus", ["16", "100,100"])
    def test_single_tail_tau_exit_3(self, taus, capsys):
        # the x = 1 tail check compares taus; with one it would pass on nothing
        assert main(["verify", "--samples", "2000", "--taus", taus]) == 3
        assert "two distinct taus" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, expected", [
        (["--samples", "0"], "samples must be >= 1000, got 0"),  # a ZeroDivisionError traceback
        (["--samples", "-5"], "samples must be >= 1000, got -5"),  # "math domain error"
        (["--samples", "999"], "samples must be >= 1000, got 999"),  # after two checks ran
        (["--seed", "-1"], "seed must be >= 0, got -1"),  # numpy's message, naming no flag
    ], ids=["samples_0", "samples_negative", "samples_999", "seed_negative"])
    def test_unrunnable_setting_refused_before_any_check(self, monkeypatch, capsys, flags, expected):
        calls = []
        taylor = numerics.check_arcsin_taylor
        monkeypatch.setattr(numerics, "check_arcsin_taylor", lambda **kw: calls.append(kw) or taylor(**kw))
        assert main(["verify", *flags]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {expected}\n"
        assert calls == []

    def test_failure_exit_2(self, monkeypatch, capsys):
        monkeypatch.setattr(
            harness, "run_verification",
            lambda **kw: [CheckResult("stub", False, {})],
        )
        assert main(["verify"]) == 2
        assert "FAIL stub" in capsys.readouterr().out


class TestExperimentCommand:
    def spec_dict(self, csv_path):
        return {
            "instances": {"generator": {"n": [12], "d": [3], "count": 2,
                                         "sign_bias": 1.0, "weight_law": "unit"}},
            "trials": 4,
            "epsilon_c": 2.0,
            "triangle_mode": "neighborhood",
            "seed": 11,
            "sdp": {"max_outer": 3, "max_inner": 60},
            "csv": str(csv_path),
        }

    def test_csv_shape_and_summary(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        csv_path = tmp_path / "out.csv"
        spec_path.write_text(json.dumps(self.spec_dict(csv_path)))
        assert main(["experiment", str(spec_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == f"# cutflip experiment v2 package={cutflip.__version__}"
        assert lines[1] == ("kind,instance_id,source,n,d,trial,rounding_seed,sdp_value,"
                            "sdp_upper_bound,rounded_value,flipped_value,gain,s_size,flip_count,"
                            "rho_window_fraction,converged,mean_rounded_ratio,std_rounded_ratio,"
                            "mean_flipped_ratio,std_flipped_ratio,mean_gain")
        trial_rows = [l for l in lines if l.startswith("trial,")]
        summary_rows = [l for l in lines if l.startswith("summary,")]
        assert len(trial_rows) == 2 * 4
        assert len(summary_rows) == 1

    def test_summary_ratios_divide_by_the_bound_of_converged_solves(self):
        def trial(value, sdp_value, bound, converged):
            return {"kind": "trial", "d": 3, "rounded_value": value, "flipped_value": value + 1.0,
                    "gain": 1.0, "sdp_value": sdp_value, "sdp_upper_bound": bound,
                    "converged": converged}

        # the unconverged solve's iterate sits above its bound
        rows = [trial(8.0, 9.5, 10.0, True), trial(4.0, 16.0, 5.0, True),
                trial(1.0, 16.5, 16.0, False)]
        (summary,) = harness._summaries(rows)
        assert summary["mean_rounded_ratio"] == pytest.approx(0.8)
        assert summary["mean_flipped_ratio"] == pytest.approx(0.95)
        assert summary["mean_gain"] == 1.0

    def test_byte_identical_at_any_worker_count(self, tmp_path):
        outs = []
        for tag, workers in (("a", 1), ("b", 2)):
            spec_path = tmp_path / f"spec_{tag}.json"
            csv_path = tmp_path / f"out_{tag}.csv"
            spec_path.write_text(json.dumps(self.spec_dict(csv_path)))
            assert main(["experiment", str(spec_path), "--workers", str(workers)]) == 0
            outs.append(csv_path.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("mode", ["none", "neighborhood"])
    def test_upper_bound_column_identical_at_workers_1_and_3(self, tmp_path, mode):
        outs = []
        for workers in (1, 3):
            spec = dict(self.spec_dict(tmp_path / f"out_{workers}.csv"), triangle_mode=mode)
            spec["instances"]["generator"].update(n=[12, 30], count=2)
            # converged solves: an infeasible iterate's value may exceed the bound
            del spec["sdp"]
            spec_path = tmp_path / f"spec_{workers}.json"
            spec_path.write_text(json.dumps(spec))
            assert main(["experiment", str(spec_path), "--workers", str(workers)]) == 0
            outs.append((tmp_path / f"out_{workers}.csv").read_bytes())
        assert outs[0] == outs[1]
        rows = list(csv.DictReader(io.StringIO(outs[0].decode().split("\n", 1)[1])))
        trials = [r for r in rows if r["kind"] == "trial"]
        assert len(trials) == 4 * 4
        for r in trials:
            assert r["converged"] == "True"
            assert float(r["sdp_upper_bound"]) >= float(r["sdp_value"])

    def refused_at_workers_1_and_3(self, tmp_path, capsys, spec) -> str:
        """stderr of a spec that must exit 3 before writing its CSV, the same
        at 1 and at 3 workers."""
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(dict(spec, csv=str(tmp_path / "out.csv"))))
        errs = []
        for workers in (1, 3):
            assert main(["experiment", str(p), "--workers", str(workers)]) == 3
            errs.append(capsys.readouterr().err)
            assert not (tmp_path / "out.csv").exists()
        assert errs[0] == errs[1] and errs[0].startswith("error: ") and errs[0].count("\n") == 1
        return errs[0]

    def test_bad_instance_file_exit_3(self, tmp_path, capsys, triangle_file):
        # every file is parsed before any solve, so the good file does not run
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1\n0 1 -1 0.0\n")  # zero weight
        err = self.refused_at_workers_1_and_3(tmp_path, capsys, {
            "instances": {"files": [triangle_file, str(bad)]},
            "trials": 2,
            "seed": 1,
            "sdp": {"max_outer": 2, "max_inner": 40},
        })
        assert f"{bad}: line 2: weight must be finite and > 0" in err

    def test_odd_generated_size_exit_3(self, tmp_path, capsys):
        spec = self.spec_dict(tmp_path / "out.csv")
        spec["instances"]["generator"].update(n=[13], count=1)  # 13 * 3 is odd
        err = self.refused_at_workers_1_and_3(tmp_path, capsys, spec)
        assert "n*d must be even, got n=13, d=3" in err

    @pytest.mark.parametrize("edits, text, expected", [
        ({"sdp": {"rank": 25}}, "20 0\n", "rank must lie in [1, n]=[1, 20], got 25"),
        ({"triangle_mode": "all"}, "300 0\n", "refused"),  # C(300, 3) > cap
        ({}, "3 2\n0 1 -1 1e-170\n1 2 -1 1e-170\n", "total weight W=2e-170"),
    ], ids=["rank", "all_triples", "total_weight"])
    def test_file_instance_size_exit_3(self, tmp_path, capsys, edits, text, expected):
        # a file's n and W are known once it is parsed: checked like a
        # generated graph's
        f = tmp_path / "g.txt"
        f.write_text(text)
        spec = {"instances": {"files": [str(f)]}, "trials": 2, **edits}
        err = self.refused_at_workers_1_and_3(tmp_path, capsys, spec)
        assert f"{f}: " in err and expected in err

    @pytest.mark.parametrize("rank, mode, text", [
        (25, "neighborhood", "20 1\n0 1 -1 1\n"),
        (None, "all", "300 0\n"),  # C(300, 3) > cap
        (None, "neighborhood", "3 2\n0 1 -1 1e-170\n1 2 -1 1e-170\n"),
        (None, "none", "2 1\n0 1 1 1e101\n"),
        (25, "neighborhood", "20 2\n0 1 -1 1e-170\n1 2 -1 1e-170\n"),  # the rank is named first
    ], ids=["rank", "all_triples", "small_weight", "large_weight", "rank_and_weight"])
    def test_spec_refuses_what_the_solver_refuses(self, tmp_path, rank, mode, text):
        # one rule, sdp.check_solvable, decides both, with the same text
        with pytest.raises(ValueError) as solver:
            solve_sdp(parse_instance(text), SdpConfig(rank=rank, triangle_mode=mode))
        f = tmp_path / "g.txt"
        f.write_text(text)
        spec = {"instances": {"files": [str(f)]}, "triangle_mode": mode}
        if rank is not None:
            spec["sdp"] = {"rank": rank}
        with pytest.raises(InstanceError) as refused:
            ExperimentSpec.from_json(json.dumps(spec), tmp_path)
        assert str(refused.value) == f"experiment spec: {f}: {solver.value}"

    def test_failed_solve_exit_3(self, tmp_path, capsys, monkeypatch):
        # a failure only a run can show propagates; no CSV holds part of a sweep
        def failing(inst, cfg):
            raise ValueError("stub solver failure")

        monkeypatch.setattr(harness, "solve_sdp", failing)
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(self.spec_dict(tmp_path / "out.csv")))
        assert main(["experiment", str(p), "--workers", "1"]) == 3
        assert "stub solver failure" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exit_3(self, tmp_path, capsys, workers):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(self.spec_dict(tmp_path / "out.csv")))
        assert main(["experiment", str(p), "--workers", workers]) == 3
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("workers, tasks, cpus, expected", [
        (10**6, 2, 64, 2),  # one process per task
        (10**6, 5, 3, 3),  # one process per CPU
        (4, 5, 64, 4),
        (10**6, 5, None, None),  # an unknown CPU count runs serially
        (10**6, 1, 64, None),  # so does a single task
    ])
    def test_pool_size_is_bounded(self, tmp_path, monkeypatch, workers, tasks, cpus, expected):
        # a fork pool starts max_workers processes up front: never start
        # many real ones here, record what the pool is asked for instead
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        spec = self.spec_dict(tmp_path / "out.csv")
        spec["instances"]["generator"]["count"] = tasks
        text = run_experiment(ExperimentSpec.from_json(json.dumps(spec), tmp_path), workers=workers)
        assert sizes == ([] if expected is None else [expected])
        assert text.count("\ntrial,") == 4 * tasks

    def test_first_failure_cancels_pending_tasks(self, tmp_path, monkeypatch):
        # the forked workers inherit the stub. n=14 fails at once, behind
        # n=12, which sleeps 2 s; each of the seven later instances sleeps
        # 0.2 s. Every task that starts leaves a marker. Waiting on results
        # in task order (Executor.map) sees the failure only after n=12, by
        # when the other worker has started all seven
        markers = tmp_path / "markers"
        markers.mkdir()
        solve = harness.solve_sdp

        def stub(inst, cfg):
            if inst.n == 14:
                raise ValueError("stub solver failure")
            (markers / str(inst.n)).touch()
            time.sleep(2.0 if inst.n == 12 else 0.2)
            return solve(inst, cfg)

        monkeypatch.setattr(harness, "solve_sdp", stub)
        spec = self.spec_dict(tmp_path / "out.csv")
        spec["instances"]["generator"].update(n=list(range(12, 30, 2)), d=[4], count=1)
        with pytest.raises(ValueError, match="stub solver failure"):
            run_experiment(ExperimentSpec.from_json(json.dumps(spec), tmp_path), workers=2)
        assert len(list(markers.iterdir())) < 8
        assert not (tmp_path / "out.csv").exists()

    def test_task_oserror_propagates_without_serial_rerun(self, tmp_path, capsys, monkeypatch):
        # only a pool that cannot start falls back to a serial run; an
        # OSError a task raises is that task's failure. The forked workers
        # inherit the stub, and every task appends a line to its marker
        markers = tmp_path / "markers"
        markers.mkdir()

        def stub(inst, cfg):
            with open(markers / str(cfg.seed), "a") as f:
                f.write("ran\n")
            raise OSError("stub task failure")

        monkeypatch.setattr(harness, "solve_sdp", stub)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a real pool of 2
        spec = ExperimentSpec.from_json(json.dumps(self.spec_dict(tmp_path / "out.csv")), tmp_path)
        with pytest.raises(OSError, match="stub task failure"):
            run_experiment(spec, workers=2)
        assert "worker pool unavailable" not in capsys.readouterr().err
        runs = [m.read_text() for m in markers.iterdir()]
        assert 1 <= len(runs) <= 2 and all(r == "ran\n" for r in runs)
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("files", [[5], "tri.txt", [None], {"a": "tri.txt"}])
    def test_files_must_be_a_list_of_strings_exit_3(self, tmp_path, capsys, files):
        # [5] raised a TypeError traceback, "tri.txt" was read as t, r, i, ...
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"instances": {"files": files}, "csv": str(tmp_path / "out.csv")}))
        assert main(["experiment", str(p)]) == 3
        err = capsys.readouterr().err
        assert "'instances.files' must be a list of path strings" in err and "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()

    def test_readme_spec_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        text = readme.split("### Experiment spec (JSON)", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        spec = ExperimentSpec.from_json(text, base_dir=tmp_path)
        assert len(spec.instances) == 4 and spec.trials == 50

    def test_missing_spec_exit_3(self):
        assert main(["experiment", "/no/such/spec.json"]) == 3

    @pytest.mark.parametrize("raw, expected", [
        (b'{"trials": 2, "\xff": 1}', "can't decode byte 0xff"),
        (b'{"trials": 2, }', "line 1 column 15"),
    ], ids=["not_utf8", "not_json"])
    def test_unreadable_spec_names_the_file_exit_3(self, tmp_path, capsys, raw, expected):
        # both exited 3 with only the decoder's message, naming no file
        p = tmp_path / "spec.json"
        p.write_bytes(raw)
        assert main(["experiment", str(p)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: ") and expected in err and err.count("\n") == 1

    def test_spec_validation(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"trials": 2}))
        with pytest.raises(InstanceError):
            ExperimentSpec.from_json(p.read_text(), base_dir=tmp_path)

    @pytest.mark.parametrize("where", ["top", "instances", "generator"])
    def test_unknown_spec_key_exit_3(self, tmp_path, capsys, where):
        spec = self.spec_dict(tmp_path / "out.csv")
        target = {"top": spec, "instances": spec["instances"],
                  "generator": spec["instances"]["generator"]}[where]
        target["trails"] = 5
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec))
        assert main(["experiment", str(p)]) == 3
        assert "trails" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_bad_sdp_key_exit_3(self, tmp_path, capsys):
        spec = self.spec_dict(tmp_path / "out.csv")
        spec["sdp"] = {"max_outr": 3}
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec))
        assert main(["experiment", str(p)]) == 3
        assert "max_outr" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "bad", ["all_triples", "rank", "epsilon_c", "sign_bias", "weight_law", "degree", "integers",
                "numbers", "paths", "sdp_settings", "total_weight"]
    )
    def test_unrunnable_spec_exit_3(self, tmp_path, capsys, monkeypatch, triangle_file, bad):
        # refused up front, not as one error row per instance
        calls = []
        monkeypatch.setattr(harness, "solve_sdp", lambda *a: calls.append(a))
        spec = self.spec_dict(tmp_path / "out.csv")
        spec["instances"]["generator"]["n"] = [12, 300]
        gen = spec["instances"]["generator"]
        files_only = {"instances": {"files": [triangle_file]}}
        variants = {  # (spec edits, expected stderr text) per variant
            "all_triples": [({"triangle_mode": "all"}, {}, "refused")],  # C(300, 3) > cap
            # above the smallest n
            "rank": [({"sdp": {**spec["sdp"], "rank": 50}}, {}, "[1, n]=[1, 12], got 50")],
            "epsilon_c": [({"epsilon_c": 0.0}, {}, "constant must be > 0"),
                          ({"epsilon_c": -1.0}, {}, "constant must be > 0"),
                          ({"epsilon_c": float("nan")}, {}, "constant must be > 0"),
                          # JSON Infinity ran with eps = 0
                          ({"epsilon_c": math.inf}, {}, "constant must be > 0 and finite"),
                          ({"epsilon_c": 1e-320}, {}, "band half-width inf"),
                          # fine at d = 1, where alone the spec was checked: eps = 0 at d = 3
                          ({"epsilon_c": 7e307}, {}, "gen(n=12,d=3,rep=0): epsilon_C=7e+307 at degree 3")],
            "sign_bias": [({}, {"sign_bias": 1.5}, "sign_bias"),
                          ({}, {"sign_bias": -0.1}, "sign_bias"),
                          # a spec that generates no graph
                          (files_only, {"n": [], "sign_bias": 1.5}, "sign_bias must be in [0, 1]")],
            "weight_law": [({}, {"weight_law": ["uniform", 2, 1]}, "lo <= hi"),
                           (files_only, {"n": [], "weight_law": "bogus"}, "unknown weight law"),
                           ({}, {"weight_law": "bogus"}, "unknown weight law"),
                           ({}, {"weight_law": ["uniform", "a", 1]}, "unknown weight law"),
                           # passed, then an OverflowError traceback; JSON Infinity
                           ({}, {"weight_law": ["uniform", 0.3, math.inf]}, "finite 0 < lo <= hi")],
            "degree": [({}, {"d": [13]}, "1 <= d < n"),  # 13 >= 12 for the smaller n only
                       ({}, {"d": [0]}, "1 <= d < n")],
            "integers": [({"trials": 2.7}, {}, "'trials'"),  # int() would run 2 trials
                         ({}, {"count": 1.5}, "'generator.count'"),
                         ({}, {"n": [12.5]}, "'generator.n'"),
                         ({}, {"n": 12}, "'generator.n'"),
                         ({}, {"d": [True]}, "'generator.d'")],
            "numbers": [({"epsilon_c": True}, {}, "'epsilon_c'"),  # float() would run C = 1.0
                        ({"epsilon_c": "2"}, {}, "'epsilon_c'"),
                        ({}, {"sign_bias": "0.5"}, "'generator.sign_bias'"),
                        ({}, {"sign_bias": False}, "'generator.sign_bias'"),
                        ({"seed": -1}, {}, "'seed' must be >= 0"),
                        ({"trials": 0}, {}, "'trials' must be >= 1"),
                        ({}, {"count": 0}, "'generator.count' must be >= 1")],
            "paths": [({"csv": 5}, {}, "'csv'")],  # the sweep ran, then the write raised TypeError
            "sdp_settings": [({"sdp": {"max_outer": 1.5}}, {}, "max_outer"),  # a TypeError traceback
                             ({"sdp": {"rank": 2.5}}, {}, "rank"),
                             ({"sdp": {"max_inner": 2.5}}, {}, "max_inner"),  # ran silently
                             ({"sdp": {"max_outer": True}}, {}, "max_outer"),
                             ({"sdp": {"objective_tol": math.nan}}, {}, "objective_tol")],
            # each generated graph's own W: at least 450 * 5e97 at n = 300 (at
            # most 18 * 6e97 at n = 12), at most 18 * 2e-102 at n = 12
            "total_weight": [({}, {"weight_law": ["uniform", 5e97, 6e97]},
                              "n=300,d=3,rep=0): total weight W="),
                             ({}, {"weight_law": ["uniform", 1e-102, 2e-102]},
                              "n=12,d=3,rep=0): total weight W=")],
        }[bad]
        for top, generator, expected in variants:
            case = json.loads(json.dumps(spec))
            case.update(top)
            case["instances"]["generator"] = {**gen, **generator}
            p = tmp_path / "spec.json"
            p.write_text(json.dumps(case))
            assert main(["experiment", str(p)]) == 3
            assert expected in capsys.readouterr().err
            assert not (tmp_path / "out.csv").exists() and calls == []

    def test_generated_weight_is_checked_as_drawn(self, tmp_path, monkeypatch):
        # W = 450 * U(1, 3e97) lies near 6.8e99, inside the range, although
        # n * d / 2 * hi = 1.35e100 does not
        monkeypatch.setattr(harness, "solve_sdp", lambda *a: pytest.fail("solved"))
        spec = self.spec_dict(tmp_path / "out.csv")
        spec["instances"]["generator"].update(n=[12, 300], weight_law=["uniform", 1.0, 3e97])
        parsed = ExperimentSpec.from_json(json.dumps(spec), tmp_path)
        assert [g.n for _, g in parsed.instances] == [12, 12, 300, 300]
        assert all(g.total_weight <= 1e100 for _, g in parsed.instances)

    def test_generator_failure_refuses_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                        triangle_file):
        # every instance exists before the first solve, so a graph the
        # generator cannot draw stops the files before it from running too
        calls = []
        monkeypatch.setattr(harness, "solve_sdp", lambda *a: calls.append(a))
        monkeypatch.setattr(instance, "_GEN_ATTEMPTS", 0)
        spec = self.spec_dict(tmp_path / "out.csv")
        spec["instances"]["files"] = [triangle_file, triangle_file]
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec))
        for workers in (1, 2):
            assert main(["experiment", str(p), "--workers", str(workers)]) == 3
            err = capsys.readouterr().err
            assert "gen(n=12,d=3,rep=0): rejection budget exceeded" in err
            assert calls == [] and not (tmp_path / "out.csv").exists()

    def test_mean_gain_nonnegative_in_summary(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        csv_path = tmp_path / "out.csv"
        spec_path.write_text(json.dumps(self.spec_dict(csv_path)))
        main(["experiment", str(spec_path)])
        summary = [l for l in csv_path.read_text().splitlines() if l.startswith("summary,")][0]
        mean_gain = float(summary.split(",")[-1])
        assert mean_gain >= 0.0

    def test_summary_without_ratios_leaves_the_std_empty(self, tmp_path, capsys):
        # an edgeless graph's bound is 0, so no trial has a ratio to average
        (tmp_path / "edgeless.txt").write_text("5 0\n")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"instances": {"files": ["edgeless.txt"]}, "trials": 2}))
        assert main(["experiment", str(spec_path)]) == 0
        text = capsys.readouterr().out
        assert text.splitlines()[-1] == "summary,,,,0,,,,,,,,,,,,,,,,0.0"
        (summary,) = [r for r in csv.DictReader(io.StringIO(text.split("\n", 1)[1]))
                      if r["kind"] == "summary"]
        assert all(summary[f"{s}_{v}_ratio"] == "" for s in ("mean", "std")
                   for v in ("rounded", "flipped"))

    def test_edgeless_graph_has_no_candidates(self, tmp_path, capsys):
        # s_size counted in-band vertices without edges: 2 on the first trial
        (tmp_path / "edgeless.txt").write_text("5 0\n")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"instances": {"files": ["edgeless.txt"]}, "trials": 2}))
        assert main(["experiment", str(spec_path)]) == 0
        text = capsys.readouterr().out
        trials = [r for r in csv.DictReader(io.StringIO(text.split("\n", 1)[1]))
                  if r["kind"] == "trial"]
        assert [(r["s_size"], r["flip_count"]) for r in trials] == [("0", "0")] * 2


class TestSolveRecord:
    """solve --json and the experiment CSV report one solve the same way."""

    @pytest.fixture
    def graph_file(self, tmp_path, capsys) -> Path:
        path = tmp_path / "g.txt"
        assert main(["gen", "--n", "12", "--d", "3", "--sign-bias", "0.5", "--seed", "4",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        return path

    @pytest.mark.parametrize("mode", ["none", "neighborhood"])
    def test_solve_and_experiment_agree(self, tmp_path, graph_file, capsys, mode):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"instances": {"files": [graph_file.name]}, "trials": 3,
                                         "triangle_mode": mode, "seed": 5}))
        assert main(["experiment", str(spec_path)]) == 0
        text = capsys.readouterr().out
        row = next(csv.DictReader(io.StringIO(text.split("\n", 1)[1])))
        out = tmp_path / "solve.json"
        # the experiment's SDP seed for instance 0
        assert main(["solve", str(graph_file), "--triangle-mode", mode,
                     "--seed", str(derive_seed(5, 0, 0)), "--json", str(out)]) == 0
        solve = json.loads(out.read_text())
        assert solve["sdp_converged"] is (row["converged"] == "True")
        assert (solve["n"], solve["max_degree"]) == (int(row["n"]), int(row["d"]))
        for key in ("sdp_value", "sdp_upper_bound", "rho_window_fraction"):
            assert solve[key] == float(row[key]), key

    def test_one_solve_and_one_best_of_per_instance(self, tmp_path, graph_file, capsys,
                                                     monkeypatch):
        calls = {"solve_sdp": 0, "best_of": 0}
        for name in calls:
            def counted(*args, _name=name, _orig=getattr(harness, name), **kwargs):
                calls[_name] += 1
                return _orig(*args, **kwargs)

            monkeypatch.setattr(harness, name, counted)
        assert main(["solve", str(graph_file), "--trials", "3", "--oracle"]) == 0
        assert calls == {"solve_sdp": 1, "best_of": 1}
        calls.update(solve_sdp=0, best_of=0)
        (tmp_path / "k3.txt").write_text(TRIANGLE_TEXT + "\n")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"instances": {"files": [graph_file.name, "k3.txt"]},
                                         "trials": 3}))
        assert main(["experiment", str(spec_path), "--workers", "1"]) == 0
        assert calls == {"solve_sdp": 2, "best_of": 2}


WATCHED = ("scipy", "scipy.optimize", "scipy.sparse", "scipy.sparse.linalg", "scipy.linalg", "scipy.special",
           "concurrent.futures")


@functools.cache
def modules_loaded(then: str = "") -> frozenset[str]:
    """The WATCHED modules a fresh interpreter holds after
    `import cutflip.harness` and the statements then; the bare import
    starts one interpreter for all the tests that read it."""
    src = str(Path(cutflip.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (f"import json, sys, cutflip.harness\n{then}\n"
            f"print(json.dumps([m for m in {WATCHED!r} if m in sys.modules]))")
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return frozenset(json.loads(res.stdout.splitlines()[-1]))


def _solve(n: int, d: int, mode: str, *checks: str) -> str:
    """A solve_sdp call on a random d-regular graph, then its checks."""
    return (
        "from cutflip.instance import gen_random_regular\n"
        "from cutflip.sdp import SdpConfig, solve_sdp\n"
        f"inst = gen_random_regular({n}, {d}, 0.5, 'unit', seed=0)\n"
        f"_, rep = solve_sdp(inst, SdpConfig(triangle_mode={mode!r}))\n"
        f"assert {' and '.join(('rep.converged', 'rep.upper_bound >= rep.objective') + checks)}\n"
    )


def _cli_solve(*flags: str) -> str:
    """A CLI solve with the oracle of a 22-vertex 5-regular graph, written to the file PATH."""
    return (
        "from cutflip.instance import gen_random_regular, write_instance\n"
        "open(PATH, 'w').write(write_instance(gen_random_regular(22, 5, 0.5, 'unit', seed=0)))\n"
        f"assert cutflip.harness.main(['solve', PATH, '--oracle', '--trials', '5', *{flags!r}]) == 0\n"
    )


# scenario: (statements, watched modules it must not load, modules it must load)
IMPORT_GUARDS = {
    # the CLI imports without scipy.optimize (the ALM runs its own L-BFGS)
    # and scipy.sparse (only matrices above _DENSE_LAYER_MAX_N vertices);
    # the tests below the table check the other WATCHED modules
    "import": ("", {"scipy.optimize", "scipy.sparse"}, set()),
    "neighborhood_n12": (_solve(12, 3, "neighborhood", "rep.n_active > 0", "rep.iterations > 0"),
                         {"scipy.optimize"}, set()),
    # the certificate (cutflip.certify) is numpy's Cholesky at every n, of
    # what is left after eliminating the independent sets that pay (S
    # itself at n = 12 and 50, fewer rows from n = 300 on)
    "neighborhood_n12_none_n50": (_solve(12, 3, "neighborhood") + _solve(50, 3, "none"),
                                  {"scipy.sparse.linalg"}, set()),
    "none_n600": (_solve(600, 3, "none"), {"scipy.sparse.linalg"}, set()),
    # and its remainder, one block of rows at n = 300 and several at
    # n = 2000, is factored in place by numpy's Cholesky and matrix
    # products, not scipy.linalg's
    "none_n300": (_solve(300, 4, "none"), {"scipy.linalg", "scipy.sparse.linalg"}, set()),
    "none_n2000": (_solve(2000, 4, "none"), {"scipy.linalg", "scipy.sparse.linalg"}, set()),
    # up to _DENSE_LAYER_MAX_N vertices the ALM's layer and the mixing
    # method's adjacency are dense arrays
    "neighborhood_n22": (_solve(22, 5, "neighborhood", "rep.n_active > 0"), {"scipy.sparse"}, set()),
    "cli_neighborhood_n22": (_cli_solve(), {"scipy.sparse"}, set()),
    "none_n22": (_solve(22, 5, "none"), {"scipy.sparse"}, set()),
    "cli_none_n22": (_cli_solve("--triangle-mode", "none"), {"scipy.sparse"}, set()),
    # above the cut-off both solvers read CSR matrices
    "neighborhood_and_none_n40": (_solve(40, 3, "neighborhood") + _solve(40, 3, "none"), set(),
                                  {"scipy.sparse"}),
    # the certificate reads entries, never a matrix: it loads no scipy, also
    # when it certifies a 40-vertex cycle, above the cut-off
    "certify_n40": ("import cutflip.certify\nimport numpy as np\n"
                    "rows, cols = np.repeat(np.arange(40), 2), (np.repeat(np.arange(40), 2) + [-1, 1] * 40) % 40\n"
                    "assert 0 < cutflip.certify.upper_bound((rows, cols, -np.ones(80)), np.full(40, 2.0), 40.0, 39.0) <= 40\n",
                    {"scipy", "scipy.sparse"}, set()),
}


@pytest.mark.parametrize("scenario", IMPORT_GUARDS)
def test_import_guards(scenario, tmp_path):
    then, absent, present = IMPORT_GUARDS[scenario]
    loaded = modules_loaded(then.replace("PATH", repr(str(tmp_path / "n22.txt"))))
    assert not loaded & absent and present <= loaded


def test_import_leaves_out_scipy_sparse_linalg():
    # nothing in cutflip needs scipy.sparse.linalg, slow to import
    assert "scipy.sparse.linalg" not in modules_loaded()


def test_import_leaves_out_the_worker_pool():
    # only an experiment at --workers > 1 needs concurrent.futures
    assert "concurrent.futures" not in modules_loaded()


def test_verify_loads_no_scipy():
    # estimate_local_gain draws its truncated normal by rejection and takes
    # the band's mass from math.erfc, so verify loads no scipy module
    loaded = modules_loaded('assert cutflip.harness.main(["verify", "--samples", "1000"]) == 0')
    assert not loaded & {m for m in WATCHED if m.startswith("scipy")}


class TestCliSurface:
    @pytest.mark.parametrize("argv", [["gen", "--n", "10", "--d", "3", "--json", "x.json"],
                                      ["oracle", "g.txt", "--seed", "3"],
                                      ["verify", "--tail-taus", "100"]])
    def test_removed_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_readme_cli_lines_parse(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("cutflip ")]
        assert len(lines) >= 5
        for line in lines:
            args = harness._build_parser().parse_args(shlex.split(line, comments=True)[1:])
            assert callable(args.func)
