"""Command-line harness: solve, oracle, verify, experiment, gen.

Exit codes: 0 success, 2 verification failure, 3 input error. Experiment
rows are computed in a worker pool (one task per instance, deterministic
derived seeds) and sorted before writing, so output bytes do not depend on
the worker count. Every ratio printed names its denominator: ratio_vs_sdp
divides by the SDP bound, ratio_vs_opt by the brute-force optimum.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .instance import InstanceError, gen_random_regular, parse_instance, write_instance
from .localsearch import best_of, default_epsilon, run_once
from .numerics import run_verification
from .oracle import DEFAULT_CAP, brute_force_opt
from .sdp import SdpConfig, solve_sdp

__all__ = ["ExperimentSpec", "main", "run_experiment"]

CSV_HEADER_LINE = f"# cutflip experiment v1 package={__version__}"

_CSV_FIELDS = [
    "kind", "instance_id", "source", "n", "d", "trial", "rounding_seed",
    "sdp_value", "rounded_value", "flipped_value", "gain", "s_size",
    "flip_count", "rho_window_fraction", "converged", "error",
    "mean_rounded_ratio", "std_rounded_ratio", "mean_flipped_ratio",
    "std_flipped_ratio", "mean_gain",
]


def derive_seed(*parts: int) -> int:
    """Stable 64-bit seed from integer parts (SeedSequence is versioned)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Experiment spec


_SPEC_KEYS = {
    "spec": {"instances", "trials", "epsilon_c", "triangle_mode", "seed", "csv", "json", "sdp"},
    "instances": {"files", "generator"},
    "generator": {"n", "d", "count", "sign_bias", "weight_law"},
}


def _checked(obj, where: str) -> dict:
    """obj as a JSON object holding only the keys known at where."""
    if not isinstance(obj, dict):
        raise InstanceError(f"experiment spec: '{where}' must be a JSON object")
    unknown = sorted(set(obj) - _SPEC_KEYS[where])
    if unknown:
        raise InstanceError(f"experiment spec: unknown key(s) in '{where}': {', '.join(unknown)}")
    return obj


@dataclass
class ExperimentSpec:
    files: list
    gen_n: list
    gen_d: list
    gen_count: int
    sign_bias: float
    weight_law: object
    trials: int
    epsilon_c: float
    seed: int
    csv_path: str | None
    json_path: str | None
    sdp: SdpConfig  # per-instance solves replace only its seed

    @classmethod
    def from_json(cls, text: str, base_dir: Path) -> "ExperimentSpec":
        raw = _checked(json.loads(text), "spec")
        inst = _checked(raw.get("instances", {}), "instances")
        files = inst.get("files", [])
        gen = _checked(inst.get("generator", {}), "generator")
        weight_law = gen.get("weight_law", "unit")
        if isinstance(weight_law, list):
            weight_law = tuple(weight_law)
        try:
            # the seed is derived per instance, so "sdp" may not set it either
            sdp = SdpConfig(triangle_mode=str(raw.get("triangle_mode", "neighborhood")),
                            seed=0, **raw.get("sdp", {}))
        except (TypeError, ValueError) as exc:
            raise InstanceError(f"experiment spec: bad 'sdp' settings: {exc}") from None
        spec = cls(
            files=[str(base_dir / f) for f in files],
            gen_n=list(gen.get("n", [])),
            gen_d=list(gen.get("d", [])),
            gen_count=int(gen.get("count", 1)),
            sign_bias=float(gen.get("sign_bias", 1.0)),
            weight_law=weight_law,
            trials=int(raw.get("trials", 1)),
            epsilon_c=float(raw.get("epsilon_c", 2.0)),
            seed=int(raw.get("seed", 0)),
            csv_path=raw.get("csv"),
            json_path=raw.get("json"),
            sdp=sdp,
        )
        if spec.trials < 1 or spec.gen_count < 1:
            raise InstanceError("trials and generator count must be >= 1")
        if not spec.files and not (spec.gen_n and spec.gen_d):
            raise InstanceError("experiment spec names no instance source")
        for f in spec.files:
            if not Path(f).is_file():
                raise InstanceError(f"instance file not found: {f}")
        return spec


def _make_tasks(spec: ExperimentSpec) -> list[dict]:
    tasks = []
    idx = 0
    for f in spec.files:
        tasks.append({"idx": idx, "kind": "file", "path": f, "source": f})
        idx += 1
    for n in spec.gen_n:
        for d in spec.gen_d:
            for rep in range(spec.gen_count):
                tasks.append(
                    {
                        "idx": idx,
                        "kind": "gen",
                        "n": int(n),
                        "d": int(d),
                        "source": f"gen(n={int(n)},d={int(d)},rep={rep})",
                        "gen_seed": derive_seed(spec.seed, 1, idx),
                    }
                )
                idx += 1
    for t in tasks:
        t.update(
            trials=spec.trials,
            epsilon_c=spec.epsilon_c,
            base_seed=spec.seed,
            sign_bias=spec.sign_bias,
            weight_law=spec.weight_law,
            sdp=replace(spec.sdp, seed=derive_seed(spec.seed, 0, t["idx"])),
        )
    return tasks


def _experiment_task(task: dict) -> list[dict]:
    idx, source = task["idx"], task["source"]
    try:
        if task["kind"] == "file":
            inst = parse_instance(Path(task["path"]).read_text(encoding="utf-8"))
        else:
            inst = gen_random_regular(
                task["n"], task["d"], task["sign_bias"], task["weight_law"],
                seed=task["gen_seed"],
            )
        emb, rep = solve_sdp(inst, task["sdp"])
        eps = default_epsilon(max(inst.max_degree, 1), task["epsilon_c"])
        rows = []
        for t in range(task["trials"]):
            seed = derive_seed(task["base_seed"], 2, idx, t)
            r = run_once(inst, (emb, rep), seed=seed, eps=eps)
            rows.append(
                {
                    "kind": "trial",
                    "instance_id": idx,
                    "source": source,
                    "n": inst.n,
                    "d": inst.max_degree,
                    "trial": t,
                    "rounding_seed": seed,
                    "sdp_value": r.sdp_value,
                    "rounded_value": r.rounded_value,
                    "flipped_value": r.flipped_value,
                    "gain": r.gain,
                    "s_size": r.s_size,
                    "flip_count": r.flip_count,
                    "rho_window_fraction": r.rho_window_fraction,
                    "converged": rep.converged,
                    "error": "",
                }
            )
        return rows
    # per-row input or numerical failure; the sweep continues (InstanceError
    # and LinAlgError are ValueErrors). Anything else is a bug and propagates.
    except (ValueError, ArithmeticError) as exc:
        return [{"kind": "error", "instance_id": idx, "source": source,
                 "error": f"{type(exc).__name__}: {exc}"}]


def _summaries(rows: list[dict]) -> list[dict]:
    by_d: dict[int, list[dict]] = {}
    for r in rows:
        if r.get("kind") == "trial":
            by_d.setdefault(r["d"], []).append(r)
    out = []
    for d in sorted(by_d):
        grp = by_d[d]
        r_ratio = [g["rounded_value"] / g["sdp_value"] for g in grp if g["sdp_value"] > 0]
        f_ratio = [g["flipped_value"] / g["sdp_value"] for g in grp if g["sdp_value"] > 0]
        gains = [g["gain"] for g in grp]
        out.append(
            {
                "kind": "summary",
                "d": d,
                "mean_rounded_ratio": statistics.fmean(r_ratio) if r_ratio else "",
                "std_rounded_ratio": statistics.stdev(r_ratio) if len(r_ratio) > 1 else 0.0,
                "mean_flipped_ratio": statistics.fmean(f_ratio) if f_ratio else "",
                "std_flipped_ratio": statistics.stdev(f_ratio) if len(f_ratio) > 1 else 0.0,
                "mean_gain": statistics.fmean(gains) if gains else "",
            }
        )
    return out


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER_LINE + "\n")
    writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, lineterminator="\n", restval="")
    writer.writeheader()
    for r in rows:
        writer.writerow(r)
    return buf.getvalue()


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> str:
    """Execute the sweep and return the CSV text (also written to spec paths)."""
    tasks = _make_tasks(spec)
    if workers > 1 and len(tasks) > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                nested = list(pool.map(_experiment_task, tasks))
        except (OSError, PermissionError) as exc:
            print(f"worker pool unavailable ({exc}); running serially", file=sys.stderr)
            nested = [_experiment_task(t) for t in tasks]
    else:
        nested = [_experiment_task(t) for t in tasks]
    rows = [r for block in nested for r in block]
    rows.sort(key=lambda r: (r.get("instance_id", 0), r.get("trial", -1)))
    rows.extend(_summaries(rows))
    text = _rows_to_csv(rows)
    if spec.csv_path:
        Path(spec.csv_path).write_text(text, encoding="utf-8")
    if spec.json_path:
        Path(spec.json_path).write_text(
            json.dumps(rows, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    return text


# ---------------------------------------------------------------------------
# Subcommands


def _read_instance(path: str):
    p = Path(path)
    if not p.is_file():
        raise InstanceError(f"instance file not found: {path}")
    return parse_instance(p.read_text(encoding="utf-8"))


def _sdp_config_from_args(args) -> SdpConfig:
    kwargs = {"triangle_mode": args.triangle_mode, "seed": args.seed}
    if args.rank is not None:
        kwargs["rank"] = args.rank
    if args.tol is not None:
        kwargs["objective_tol"] = args.tol
        kwargs["constraint_tol"] = max(args.tol, 1e-9)
    return SdpConfig(**kwargs)


def _cmd_solve(args) -> int:
    inst = _read_instance(args.instance)
    cfg = _sdp_config_from_args(args)
    emb, rep = solve_sdp(inst, cfg)
    eps = default_epsilon(max(inst.max_degree, 1), args.epsilon_c)
    best_x, best_val, reports = best_of(
        inst, emb, args.trials, base_seed=args.seed, eps=eps, converged=rep.converged
    )
    sdp_val = reports[0].sdp_value
    out = {
        "instance": args.instance,
        "n": inst.n,
        "m": inst.m,
        "max_degree": inst.max_degree,
        "trials": args.trials,
        "base_seed": args.seed,
        "epsilon": eps.value,
        "sdp_value": sdp_val,
        "sdp_converged": rep.converged,
        "sdp_max_violation": rep.max_violation,
        "best_value": best_val,
        "ratio_vs_sdp": best_val / sdp_val if sdp_val > 0 else None,
        "best_assignment": [int(v) for v in best_x],
        "reports": [r.to_dict() for r in reports],
    }
    print(f"best_value={best_val!r}")
    print(f"sdp_value={sdp_val!r} ratio_vs_sdp={out['ratio_vs_sdp']!r}")
    if args.oracle:
        res = brute_force_opt(inst, cap=args.cap)
        out["oracle_opt"] = res.opt
        out["ratio_vs_opt"] = best_val / res.opt if res.opt > 0 else None
        print(f"oracle_opt={res.opt!r} ratio_vs_opt={out['ratio_vs_opt']!r}")
    if args.json:
        Path(args.json).write_text(json.dumps(out, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return 0


def _cmd_oracle(args) -> int:
    inst = _read_instance(args.instance)
    res = brute_force_opt(inst, cap=args.cap)
    print(f"opt={res.opt!r}")
    print(f"argmax={''.join('+' if v > 0 else '-' for v in res.argmax)}")
    print(f"enumerated={res.enumerated}")
    if args.json:
        out = {"instance": args.instance, "opt": res.opt,
               "argmax": [int(v) for v in res.argmax], "enumerated": res.enumerated}
        Path(args.json).write_text(json.dumps(out, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return 0


def _cmd_verify(args) -> int:
    # --taus drives every tau-dependent check (including the x=1 tail);
    # --tail-taus overrides just the tail list
    taus = tuple(int(t) for t in args.taus.split(",")) if args.taus else (16, 64, 256)
    if args.tail_taus:
        tail = tuple(int(t) for t in args.tail_taus.split(","))
    elif args.taus:
        tail = taus
    else:
        tail = (100, 400, 1600)
    checks = run_verification(
        seed=args.seed, taus=taus, tail_taus=tail, samples=args.samples
    )
    all_ok = all(c.passed for c in checks)
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name}")
    if args.json:
        payload = {"all_passed": all_ok, "checks": [c.to_dict() for c in checks]}
        Path(args.json).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return 0 if all_ok else 2


def _cmd_experiment(args) -> int:
    p = Path(args.spec)
    if not p.is_file():
        raise InstanceError(f"experiment spec not found: {args.spec}")
    spec = ExperimentSpec.from_json(p.read_text(encoding="utf-8"), base_dir=p.parent)
    if args.csv:
        spec.csv_path = args.csv
    text = run_experiment(spec, workers=args.workers)
    if not spec.csv_path:
        sys.stdout.write(text)
    else:
        print(f"wrote {spec.csv_path}")
    return 0


def _cmd_gen(args) -> int:
    if args.weights == "unit":
        law = "unit"
    elif args.weights.startswith("uniform:"):
        lo, hi = (float(v) for v in args.weights.split(":", 1)[1].split(","))
        law = ("uniform", lo, hi)
    else:
        raise InstanceError(f"unknown weight law {args.weights!r} (use unit or uniform:lo,hi)")
    inst = gen_random_regular(args.n, args.d, args.sign_bias, law, seed=args.seed)
    text = write_instance(inst)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cutflip", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", metavar="PATH", default=None)

    p = sub.add_parser("solve", help="solve + round + flip an instance file")
    p.add_argument("instance")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--epsilon-C", dest="epsilon_c", type=float, default=2.0)
    p.add_argument("--triangle-mode", choices=("none", "neighborhood", "all"), default="neighborhood")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="exact brute-force optimum")
    p.add_argument("instance")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="run the analytic verification suite")
    p.add_argument("--taus", default=None, help="comma list for the lower-bound grid")
    p.add_argument("--tail-taus", default=None, help="comma list for the x=1 tail check")
    p.add_argument("--samples", type=int, default=100_000)
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("experiment", help="run a sweep from a JSON spec")
    p.add_argument("spec")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--csv", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("gen", help="generate a random regular instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--sign-bias", type=float, default=1.0)
    p.add_argument("--weights", default="unit")
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
