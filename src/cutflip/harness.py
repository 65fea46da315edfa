"""Command-line harness: solve, oracle, verify, experiment, gen.

Exit codes: 0 success, 2 verification failure, 3 input error. An experiment
builds every instance, parsing its files and generating its graphs, and
checks each one before it solves any; a spec that cannot run, or a solve that
fails, exits 3 and writes no CSV. Rows are computed in a worker pool (one
task per instance, deterministic derived seeds) and kept in task order, so
output bytes do not depend on the worker count. Both commands take their
per-solve facts from _solve_record. Every ratio printed names its
denominator: ratio_vs_sdp and the experiment summaries' mean_*_ratio divide
by sdp_upper_bound, the solver's certified upper bound on the relaxation's
optimum (sdp_value, its iterate's objective, is a lower bound), under
_ratio's rule; ratio_vs_opt divides by the brute-force optimum.

An output path that is a directory or lies in a missing one exits 3
before any work (_check_output).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import statistics
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .instance import (InstanceError, check_generator_laws, gen_random_regular, parse_instance,
                       write_instance)
# run_once has no caller here; perfbench/tracing.py wraps it under this name
from .localsearch import best_of, rho_window_fraction, run_once
from .numerics import default_epsilon, run_verification
from .oracle import DEFAULT_CAP, brute_force_opt, check_oracle_size
from .rounding import GENERATOR_NAME, check_seed
from .sdp import SdpConfig, check_solvable, solve_sdp

__all__ = ["ExperimentSpec", "main", "run_experiment"]

CSV_HEADER_LINE = f"# cutflip experiment v2 package={__version__}"

_CSV_FIELDS = [
    "kind", "instance_id", "source", "n", "d", "trial", "rounding_seed",
    "sdp_value", "sdp_upper_bound", "rounded_value", "flipped_value", "gain", "s_size",
    "flip_count", "rho_window_fraction", "converged",
    "mean_rounded_ratio", "std_rounded_ratio", "mean_flipped_ratio",
    "std_flipped_ratio", "mean_gain",
]


def derive_seed(*parts: int) -> int:
    """Stable 64-bit seed from integer parts (SeedSequence is versioned)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def _read(path: str, what: str, parse):
    """parse() of the UTF-8 text of the file at path. An InstanceError names
    the file: a missing file, text that is not UTF-8, and what parse refuses,
    its InstanceError or JSON error."""
    p = Path(path)
    if not p.is_file():
        raise InstanceError(f"{what} not found: {path}")
    try:
        return parse(p.read_text(encoding="utf-8"))
    except (InstanceError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InstanceError(f"{path}: {exc}") from None


def _write(path: str, data) -> None:
    """Write text, or anything else as sorted JSON with indent 2, to path. An
    existing regular file is unlinked first, a symlink (/dev/stdout) written
    through: rewriting an 80 KB file just written took 61-65 ms on ext4 when
    truncated, 0.03-0.04 ms when unlinked (medians, 2-vCPU AMD EPYC box)."""
    text = data if isinstance(data, str) else json.dumps(data, sort_keys=True, indent=2) + "\n"
    p = Path(path)
    if p.is_file() and not p.is_symlink():
        p.unlink()
    p.write_text(text, encoding="utf-8")


def _check_output(path: str | None) -> None:
    """Refuse (InstanceError) a path given to _write that is an existing
    directory or whose parent directory is missing, before any work."""
    if path and (Path(path).is_dir() or not Path(path).parent.is_dir()):
        raise InstanceError(f"output path {path} is a directory or lies in a missing directory")


# solve record (solve --json) key -> CSV column, for the facts a trial row repeats
_CSV_COLUMNS = {"n": "n", "max_degree": "d", "sdp_value": "sdp_value",
                "sdp_upper_bound": "sdp_upper_bound",
                "rho_window_fraction": "rho_window_fraction", "sdp_converged": "converged"}


def _ratio(value: float, converged: bool, bound: float) -> float | None:
    """value / bound, or None unless the solve converged and its certified
    bound is > 0: an unconverged bound can sit far above the optimum."""
    return value / bound if converged and bound > 0 else None


def _solve_record(inst, cfg: SdpConfig, seeds, eps: float) -> tuple[dict, np.ndarray, list]:
    """Solve, then one rounding trial per seed: (the solve's facts by their
    solve --json names, the best assignment, the RunReports). solve_sdp and
    best_of are called here only, once each, by this module's names."""
    emb, rep = solve_sdp(inst, cfg)
    best_x, best_val, reports = best_of(inst, emb, seeds, eps=eps)
    facts = {
        "n": inst.n, "m": inst.m, "max_degree": inst.max_degree, "epsilon": eps,
        "sdp_value": rep.objective, "sdp_upper_bound": rep.upper_bound,
        "sdp_converged": rep.converged, "sdp_max_violation": rep.max_violation,
        "rho_window_fraction": rho_window_fraction(inst, emb), "best_value": best_val,
        "ratio_vs_sdp": _ratio(best_val, rep.converged, rep.upper_bound),
    }
    return facts, best_x, reports


# ---------------------------------------------------------------------------
# Experiment spec


_SPEC_KEYS = {
    "spec": {"instances", "trials", "epsilon_c", "triangle_mode", "seed", "csv", "sdp"},
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


def _spec_int(value, key: str, minimum: int | None = None) -> int:
    """value itself if it is a JSON integer, at least minimum if one is given;
    a float, string or boolean is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceError(f"experiment spec: '{key}' must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InstanceError(f"experiment spec: '{key}' must be >= {minimum}, got {value}")
    return value


def _spec_float(value, key: str) -> float:
    """value as a float if it is a JSON number; a string or boolean is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceError(f"experiment spec: '{key}' must be a number, got {value!r}")
    return float(value)


def _spec_path(value, key: str) -> str | None:
    """value itself if it is absent (None) or a JSON string."""
    if value is not None and not isinstance(value, str):
        raise InstanceError(f"experiment spec: '{key}' must be a path string, got {value!r}")
    return value


@dataclass
class ExperimentSpec:
    instances: list  # (source, Max2LinInstance) per instance, in task order
    trials: int
    epsilon_c: float
    seed: int
    csv_path: str | None
    sdp: SdpConfig  # per-instance solves replace only its seed

    @classmethod
    def from_json(cls, text: str, base_dir: Path) -> "ExperimentSpec":
        """The spec, refused (InstanceError) unless every instance can run.
        Every instance is built here, files parsed and graphs generated at
        the seed their task index derives, and each is checked as soon as it
        exists: by sdp.check_solvable, the rule solve_sdp applies, and by
        default_epsilon for the band half-width at its degree."""
        raw = _checked(json.loads(text), "spec")
        inst = _checked(raw.get("instances", {}), "instances")
        gen = _checked(inst.get("generator", {}), "generator")
        sign_bias = _spec_float(gen.get("sign_bias", 1.0), "generator.sign_bias")
        weight_law = gen.get("weight_law", "unit")
        if isinstance(weight_law, list):
            weight_law = tuple(weight_law)
        try:
            # the seed is derived per instance, so "sdp" may not set it either
            sdp = SdpConfig(triangle_mode=str(raw.get("triangle_mode", "neighborhood")),
                            seed=0, **raw.get("sdp", {}))
        except (TypeError, ValueError) as exc:
            raise InstanceError(f"experiment spec: bad 'sdp' settings: {exc}") from None
        sizes = {}
        for key in ("n", "d"):
            values = gen.get(key, [])
            if not isinstance(values, list):
                raise InstanceError(f"experiment spec: 'generator.{key}' must be a list")
            sizes[key] = [_spec_int(v, f"generator.{key}") for v in values]
        count = _spec_int(gen.get("count", 1), "generator.count", minimum=1)
        spec = cls(
            instances=[],
            trials=_spec_int(raw.get("trials", 1), "trials", minimum=1),
            epsilon_c=_spec_float(raw.get("epsilon_c", 2.0), "epsilon_c"),
            seed=_spec_int(raw.get("seed", 0), "seed", minimum=0),
            csv_path=_spec_path(raw.get("csv"), "csv"),
            sdp=sdp,
        )
        try:
            # refused even where the spec names no generated size
            check_generator_laws(sign_bias, weight_law)
        except ValueError as exc:
            raise InstanceError(f"experiment spec: {exc}") from None
        files = inst.get("files", [])
        if not isinstance(files, list) or not all(isinstance(f, str) for f in files):
            raise InstanceError(
                f"experiment spec: 'instances.files' must be a list of path strings, got {files!r}")

        def admit(source: str, build) -> None:
            """Append (source, build()), refused unless that instance can run."""
            try:
                built = build()
                check_solvable(sdp, built)
                default_epsilon(max(built.max_degree, 1), spec.epsilon_c)
            except ValueError as exc:
                raise InstanceError(f"experiment spec: {source}: {exc}") from None
            spec.instances.append((source, built))

        for f in files:
            path = str(base_dir / f)
            parsed = _read(path, "instance file", parse_instance)  # its errors name the file
            admit(path, lambda: parsed)
        for n in sizes["n"]:
            for d in sizes["d"]:
                for rep in range(count):
                    seed = derive_seed(spec.seed, 1, len(spec.instances))
                    admit(f"gen(n={n},d={d},rep={rep})",
                          lambda: gen_random_regular(n, d, sign_bias, weight_law, seed=seed))
        if not spec.instances:
            raise InstanceError("experiment spec names no instance source")
        return spec


def _experiment_task(spec: ExperimentSpec, task: tuple) -> list[dict]:
    """Trial rows for one instance; every seed derives from spec.seed and idx."""
    idx, (source, inst) = task
    cfg = replace(spec.sdp, seed=derive_seed(spec.seed, 0, idx))
    eps = default_epsilon(max(inst.max_degree, 1), spec.epsilon_c)
    seeds = [derive_seed(spec.seed, 2, idx, t) for t in range(spec.trials)]
    facts, _, reports = _solve_record(inst, cfg, seeds, eps)
    solve = {"kind": "trial", "instance_id": idx, "source": source,
             **{column: facts[key] for key, column in _CSV_COLUMNS.items()}}
    return [{**solve, "trial": t, **r.to_dict()} for t, r in enumerate(reports)]


def _mean_std(ratios: list) -> tuple:
    """Mean and sample stdev of the ratios that are not None; "" if none is."""
    xs = [x for x in ratios if x is not None]
    if not xs:
        return "", ""
    return statistics.fmean(xs), statistics.stdev(xs) if len(xs) > 1 else 0.0


def _summaries(rows: list[dict]) -> list[dict]:
    out = []
    for d in sorted({r["d"] for r in rows}):
        grp = [r for r in rows if r["d"] == d]
        row = {"kind": "summary", "d": d, "mean_gain": statistics.fmean(g["gain"] for g in grp)}
        for name in ("rounded", "flipped"):
            row[f"mean_{name}_ratio"], row[f"std_{name}_ratio"] = _mean_std(
                [_ratio(g[f"{name}_value"], g["converged"], g["sdp_upper_bound"]) for g in grp])
        out.append(row)
    return out


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER_LINE + "\n")
    writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, lineterminator="\n", restval="")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _run_pooled(task, tasks: list, workers: int) -> list | None:
    """[task(t) for t in tasks] from a pool of workers processes, or None
    when the pool cannot start."""
    # slow to import; only a pool needs them
    from concurrent.futures import ProcessPoolExecutor, as_completed

    pool = None
    try:
        pool = ProcessPoolExecutor(max_workers=workers)
        futures = [pool.submit(task, t) for t in tasks]
    except OSError as exc:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        print(f"worker pool unavailable ({exc}); running serially", file=sys.stderr)
        return None
    with pool:
        try:
            for done in as_completed(futures):
                done.result()
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
        return [f.result() for f in futures]


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> str:
    """Execute the sweep and return the CSV text (also written to spec.csv_path).

    The pool has at most one process per task and per CPU (a fork pool
    starts all of its processes up front). A pool that cannot start (an
    OSError while it is created or fed) runs the sweep serially instead. The
    first task that fails cancels the tasks not yet started, and its error,
    an OSError too, is raised.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _check_output(spec.csv_path)
    tasks = list(enumerate(spec.instances))
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    # the spec is pickled with every task, so it goes without the instances;
    # each task carries its own
    task = functools.partial(_experiment_task, replace(spec, instances=[]))
    nested = _run_pooled(task, tasks, workers) if workers > 1 else None
    if nested is None:
        nested = [task(t) for t in tasks]
    rows = [r for block in nested for r in block]  # in task order
    text = _rows_to_csv(rows + _summaries(rows))
    if spec.csv_path:
        _write(spec.csv_path, text)
    return text


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_solve(args) -> int:
    _check_output(args.json)
    inst = _read(args.instance, "instance file", parse_instance)
    kwargs = {"triangle_mode": args.triangle_mode, "seed": args.seed}
    if args.rank is not None:
        kwargs["rank"] = args.rank
    if args.tol is not None:
        kwargs["objective_tol"] = args.tol
        kwargs["constraint_tol"] = max(args.tol, 1e-9)
    cfg = SdpConfig(**kwargs)
    # whatever would refuse the run after the solve refuses it before
    eps = default_epsilon(max(inst.max_degree, 1), args.epsilon_c)
    seeds = range(args.seed, args.seed + args.trials)
    if not seeds:
        raise ValueError("best_of needs at least one rounding seed (trials >= 1)")
    check_seed(seeds[-1])  # cfg refused a negative first seed
    if args.oracle:
        check_oracle_size(inst.n, args.cap)
    facts, best_x, reports = _solve_record(inst, cfg, seeds, eps)
    out = {
        "instance": args.instance, "trials": args.trials, "base_seed": args.seed,
        "rounding_generator": GENERATOR_NAME, **facts,
        "best_assignment": [int(v) for v in best_x],
        "reports": [r.to_dict() for r in reports],
    }
    print(f"best_value={facts['best_value']!r}")
    print(" ".join(f"{k}={facts[k]!r}" for k in ("sdp_value", "sdp_upper_bound", "ratio_vs_sdp")))
    if args.oracle:
        res = brute_force_opt(inst, cap=args.cap)
        out["oracle_opt"] = res.opt
        out["ratio_vs_opt"] = facts["best_value"] / res.opt if res.opt > 0 else None
        print(f"oracle_opt={res.opt!r} ratio_vs_opt={out['ratio_vs_opt']!r}")
    if args.json:
        _write(args.json, out)
    return 0


def _cmd_oracle(args) -> int:
    _check_output(args.json)
    inst = _read(args.instance, "instance file", parse_instance)
    res = brute_force_opt(inst, cap=args.cap)
    print(f"opt={res.opt!r}")
    print(f"argmax={''.join('+' if v > 0 else '-' for v in res.argmax)}")
    print(f"enumerated={res.enumerated}")
    if args.json:
        out = {"instance": args.instance, "opt": res.opt,
               "argmax": [int(v) for v in res.argmax], "enumerated": res.enumerated}
        _write(args.json, out)
    return 0


def _cmd_verify(args) -> int:
    _check_output(args.json)
    taus = tuple(int(t) for t in args.taus.split(",")) if args.taus else None
    kwargs = {"taus": taus, "tail_taus": taus} if taus else {}
    checks = run_verification(seed=args.seed, samples=args.samples, **kwargs)
    all_ok = all(c.passed for c in checks)
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name}")
    if args.json:
        payload = {"all_passed": all_ok, "checks": [c.to_dict() for c in checks]}
        _write(args.json, payload)
    return 0 if all_ok else 2


def _cmd_experiment(args) -> int:
    base_dir = Path(args.spec).parent
    spec = _read(args.spec, "experiment spec", lambda text: ExperimentSpec.from_json(text, base_dir))
    if args.csv:
        spec.csv_path = args.csv
    text = run_experiment(spec, workers=args.workers)
    if not spec.csv_path:
        sys.stdout.write(text)
    else:
        print(f"wrote {spec.csv_path}")
    return 0


def _cmd_gen(args) -> int:
    _check_output(args.out)
    law = args.weights
    if law.startswith("uniform:"):
        try:
            lo, hi = (float(v) for v in law.split(":", 1)[1].split(","))
        except ValueError:
            raise InstanceError(f"weight law {law!r}: expected uniform:lo,hi with two numbers") from None
        law = ("uniform", lo, hi)
    elif law != "unit":
        raise InstanceError(f"unknown weight law {law!r} (use unit or uniform:lo,hi)")
    inst = gen_random_regular(args.n, args.d, args.sign_bias, law, seed=args.seed)
    text = write_instance(inst)
    if args.out:
        _write(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cutflip", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve + round + flip an instance file")
    p.add_argument("instance")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--epsilon-C", dest="epsilon_c", type=float, default=2.0)
    p.add_argument("--triangle-mode", choices=("none", "neighborhood", "all"), default="neighborhood")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="exact brute-force optimum")
    p.add_argument("instance")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--json", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="run the analytic verification suite")
    p.add_argument("--taus", default=None, help="comma list of taus for every check, x=1 tail too")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", metavar="PATH", default=None)
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
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory (MemoryError): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
