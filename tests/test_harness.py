from __future__ import annotations

import json
from pathlib import Path

import pytest

import cutflip.harness as harness
from cutflip.harness import ExperimentSpec, derive_seed, main, run_experiment
from cutflip.instance import InstanceError
from cutflip.numerics import CheckResult

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

    def test_json_byte_identical_across_runs(self, triangle_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["solve", triangle_file, "--trials", "10", "--seed", "3", "--json", str(a)]) == 0
        assert main(["solve", triangle_file, "--trials", "10", "--seed", "3", "--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file_exit_3(self, capsys):
        assert main(["solve", "/nonexistent/path.txt"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_all_triples_refused_exit_3(self, tmp_path, capsys):
        p = tmp_path / "empty1000.txt"
        p.write_text("1000 0\n")
        assert main(["solve", str(p), "--triangle-mode", "all"]) == 3
        assert "refused" in capsys.readouterr().err


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


class TestVerifyCommand:
    def test_quick_run_passes(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        code = main(["verify", "--samples", "20000", "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["all_passed"] is True
        names = {c["name"] for c in payload["checks"]}
        assert "arcsin_taylor" in names and "expected_local_gain" in names

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
        assert lines[0].startswith("# cutflip experiment v1")
        trial_rows = [l for l in lines if l.startswith("trial,")]
        summary_rows = [l for l in lines if l.startswith("summary,")]
        assert len(trial_rows) == 2 * 4
        assert len(summary_rows) == 1

    def test_byte_identical_at_any_worker_count(self, tmp_path):
        outs = []
        for tag, workers in (("a", 1), ("b", 2)):
            spec_path = tmp_path / f"spec_{tag}.json"
            csv_path = tmp_path / f"out_{tag}.csv"
            spec_path.write_text(json.dumps(self.spec_dict(csv_path)))
            assert main(["experiment", str(spec_path), "--workers", str(workers)]) == 0
            outs.append(csv_path.read_bytes())
        assert outs[0] == outs[1]

    def test_file_instances_and_error_rows(self, tmp_path, triangle_file):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1\n0 1 -1 0.0\n")  # zero weight: parse error
        spec_path = tmp_path / "spec.json"
        csv_path = tmp_path / "out.csv"
        spec_path.write_text(json.dumps({
            "instances": {"files": [triangle_file, str(bad)]},
            "trials": 2,
            "seed": 1,
            "sdp": {"max_outer": 2, "max_inner": 40},
            "csv": str(csv_path),
        }))
        assert main(["experiment", str(spec_path)]) == 0
        text = csv_path.read_text()
        assert "error," in text  # the bad file became an error row
        assert text.count("\ntrial,") == 2  # the good file still ran

    def test_missing_spec_exit_3(self):
        assert main(["experiment", "/no/such/spec.json"]) == 3

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

    def test_generated_error_row_names_source(self, tmp_path):
        spec = self.spec_dict(tmp_path / "out.csv")
        spec["instances"]["generator"].update(n=[13], count=1)  # 13 * 3 is odd
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec))
        assert main(["experiment", str(p)]) == 0
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[2].startswith("error,0,\"gen(n=13,d=3,rep=0)\",")

    def test_mean_gain_nonnegative_in_summary(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        csv_path = tmp_path / "out.csv"
        spec_path.write_text(json.dumps(self.spec_dict(csv_path)))
        main(["experiment", str(spec_path)])
        summary = [l for l in csv_path.read_text().splitlines() if l.startswith("summary,")][0]
        mean_gain = float(summary.split(",")[-1])
        assert mean_gain >= 0.0
