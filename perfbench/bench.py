"""One benchmark run: set-up, measured closed loop, checks, metrics.

Set-up generates the instance files, and makes a warm-up call on a toy
instance; it is repeated ``SETUP_REPS`` times. ``setup_s`` is the median time
to import ``cutflip.harness`` in a fresh interpreter (``SETUP_REPS`` child
processes) plus the median repetition. The measured phase calls
``cutflip.harness.main`` in-process, one instance at a time, in passes over
the workload's fixed call list; ``--seconds`` sets the number of passes (see
workloads.py). Every output is checked after the measured phase (see
checks.py).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes (at least one of each), records spans around each
layer call (see tracing.py) and reports the per-layer metrics, normalised per
traced pass. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy
import scipy

import cutflip.harness
from checks import Outcome, check, parse_experiment, parse_solve, quality
from cutflip.instance import gen_random_regular, parse_instance, write_instance
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_REPS = 3
HELD_OUT = {"seed": 9001, "panel_seed": 1}  # re-check claims here; never tune on it

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "solve_s_p50": "s", "solve_s_tail": "s",
    "peak_rss_mb": "MB", "sdp_obj_per_w": "ratio", "best_per_w": "ratio",
    "flipped_per_w": "ratio", "gain_per_w": "ratio", "flipped_vs_opt": "ratio",
    "converged_frac": "ratio",
}

PER_LAYER = {
    "sdp.solve_s": "s", "sdp.self_s": "s", "sdp.inner_iters": "count",
    "sdp.outer_rounds": "count", "sdp.s_per_inner_iter": "s",
    "sdp.active_constraints": "count", "sdp.converged_frac": "ratio",
    "sdp.max_violation": "norm", "sdp.triples": "count", "sdp.triples_s": "s",
    "sdp.scan_s": "s", "rounding.trials": "count", "rounding.sample_us": "us",
    "rounding.round_us": "us", "localsearch.analyze_us": "us",
    "localsearch.flip_us": "us", "localsearch.evaluate_us": "us",
    "localsearch.candidates": "count", "localsearch.flips": "count",
    "localsearch.flip_yield": "ratio", "localsearch.loop_s": "s",
    "localsearch.report_s": "s", "localsearch.report_calls": "count",
    "oracle.solve_s": "s", "oracle.assignments_per_s": "1/s",
    "instance.gen_s": "s", "instance.parse_s": "s", "harness.self_s": "s",
    "bench.self_s": "s", "trace.wall_s": "s", "trace.overhead_frac": "ratio",
}


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy wheels bundle, if found."""
    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def machine_facts(args) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "panel_seed": args.panel_seed,
        "held_out": HELD_OUT,
        "smoke": args.smoke,
    }


class SdpCapture:
    """Keeps the SdpReport of every solve so checks can read max_violation,
    which the experiment CSV does not carry. Cost: one append per solve."""

    def __init__(self) -> None:
        self.reports: list = []

    def __enter__(self) -> "SdpCapture":
        self._orig = cutflip.harness.solve_sdp

        def solve_sdp(*a, **kw):
            emb, rep = self._orig(*a, **kw)
            self.reports.append(rep)
            return emb, rep

        cutflip.harness.solve_sdp = solve_sdp
        return self

    def __exit__(self, *exc) -> None:
        cutflip.harness.solve_sdp = self._orig


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the CLI module."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import cutflip.harness"], env=env, cwd=ROOT,
                   check=True, timeout=120)
    return time.perf_counter() - t0


def run_call(call, capture: SdpCapture, tracer: Tracer | None = None, index: int = 0) -> Outcome:
    call.out.unlink(missing_ok=True)
    capture.reports = []
    sink = io.StringIO()
    error = ""
    t0 = time.perf_counter()
    span = tracer.begin("harness", call=index) if tracer else None
    try:
        with contextlib.redirect_stdout(sink):
            rc = cutflip.harness.main(call.argv)
    except (Exception, SystemExit) as exc:  # a crash is a failed call, not a dead benchmark
        rc, error = -1, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer:
            tracer.end(span)
    latency = time.perf_counter() - t0
    output = call.out.read_bytes() if call.out.is_file() else None
    return Outcome(call.spec.name, rc, latency, output, capture.reports, error)


class SetupRep(NamedTuple):
    seconds: float
    gen_seconds: float
    warmup: Outcome
    calls: list


class Pass(NamedTuple):
    traced: bool
    seconds: float
    outcomes: list


def setup(wl, args, workdir: Path, capture: SdpCapture) -> SetupRep:
    """Generate and write every instance file, then make one warm-up call."""
    t0 = time.perf_counter()
    seed = wl.cli_seed(args.seed, args.panel_seed)
    specs = [wl.warmup_instance()] + wl.instances(args.panel_seed, args.smoke)
    calls = []
    for spec in specs:
        warmup = spec.name == "warmup"  # same toy call for every seed
        call = wl.make_call(spec, workdir, 0 if warmup else seed, args.smoke or warmup)
        inst = gen_random_regular(spec.n, spec.d, spec.sign_bias, spec.weights, seed=spec.gen_seed)
        call.path.write_text(write_instance(inst), encoding="utf-8")
        calls.append(call)
    gen_s = time.perf_counter() - t0
    warm = run_call(calls[0], capture)
    return SetupRep(time.perf_counter() - t0, gen_s, warm, calls[1:])


def measure(calls, n_passes: int, trace: bool, capture: SdpCapture):
    """Closed loop over passes; in trace mode every second pass is traced."""
    tracer = Tracer() if trace else None
    passes = []
    for k in range(max(n_passes, 2) if trace else n_passes):
        traced = trace and k % 2 == 1
        if traced:
            with tracer:  # patching the layers is outside the pass span
                root = tracer.begin("bench.pass")
                outs = [run_call(c, capture, tracer, i) for i, c in enumerate(calls)]
                tracer.end(root)
            seconds = tracer.spans[root].end - tracer.spans[root].start
        else:
            t0 = time.perf_counter()
            outs = [run_call(c, capture) for c in calls]
            seconds = time.perf_counter() - t0
        passes.append(Pass(traced, seconds, outs))
    return passes, tracer


def check_all(wl, args, workdir: Path, warm_outs, passes):
    """(attempted, failed, quality of the first pass); failures go to stderr."""
    parse = parse_experiment if wl.command == "experiment" else parse_solve
    insts, first_bytes, records = {}, {}, []
    attempted = failed = 0
    groups = [(True, warm_outs)] + [(False, p.outcomes) for p in passes]
    for k, (is_warm, outs) in enumerate(groups):
        for o in outs:
            attempted += 1
            fails = []
            if o.rc != 0 or o.output is None:
                fails.append(f"exit code {o.rc} {o.error}".strip())
            else:
                if o.name not in insts:
                    text = (workdir / f"{o.name}.txt").read_text(encoding="utf-8")
                    insts[o.name] = parse_instance(text)
                inst = insts[o.name]
                try:
                    rec = parse(o.output, o.sdp_reports, inst.total_weight)
                except (ValueError, KeyError, IndexError) as exc:
                    fails.append(f"unreadable output: {type(exc).__name__}: {exc}")
                else:
                    fails += check(rec, inst, wl.trials_for(args.smoke or is_warm), wl.oracle)
                    if k == 1:
                        records.append(rec)
                if first_bytes.setdefault(o.name, o.output) != o.output:
                    fails.append("output bytes differ from an earlier call on the same instance")
            if fails:
                failed += 1
                for f in fails[:3]:
                    print(f"FAIL {o.name}: {f}", file=sys.stderr)
    return attempted, failed, quality(records)


def tail(values: list[float]) -> tuple[float, str]:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it, else the max."""
    xs = sorted(values)
    n = len(xs)
    for p in (99, 95, 90, 75):
        if n * (100 - p) >= 1000:
            return xs[math.ceil(n * p / 100) - 1], f"p{p} of n={n}"  # nearest rank
    return xs[-1], f"max of n={n}"


def end_to_end(setup_s: float, passes, qual: dict) -> dict:
    plain = [p for p in passes if not p.traced]
    by_instance: dict[str, list] = {}
    for p in plain:
        for o in p.outcomes:
            by_instance.setdefault(o.name, []).append(o.latency)
    # one latency per instance, the median over passes, so a repeated
    # instance is not counted twice and one noisy repeat does not set the tail
    lat = [statistics.median(v) for v in by_instance.values()]
    tail_s, label = tail(lat)
    print(f"# solve_s_tail is the {label} per-instance latencies ({len(plain)} passes)")
    print("# latencies " + " ".join(f"{o.name}={o.latency:.3f}" for p in plain for o in p.outcomes))
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.seconds for p in plain),
        "solve_s_p50": statistics.median(lat),
        "solve_s_tail": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **qual,
    }


def per_layer(tracer: Tracer, passes, gen_s: float) -> dict:
    k = sum(1 for p in passes if p.traced)
    plain_wall = statistics.median(p.seconds for p in passes if not p.traced)
    traced_wall = statistics.fmean(p.seconds for p in passes if p.traced)  # self times are per-pass means
    own = tracer.self_times()
    by: dict[str, list] = {}
    for s in tracer.spans:
        by.setdefault(s.name, []).append(s)

    def total(name: str, key: str | None = None) -> float:
        spans = by.get(name, [])
        if key is None:
            return sum(s.end - s.start for s in spans)
        return sum(s.counts.get(key, 0) for s in spans)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    solves = by.get("sdp.solve", [])
    trials = len(by.get("rounding.sample", []))
    iters = total("sdp.solve", "inner_iters")
    cands = total("localsearch.analyze", "candidates")
    flips = total("localsearch.analyze", "flips")

    def per_trial_us(name: str) -> float:
        return ratio(own.get(name, 0.0), trials) * 1e6

    return {
        "sdp.solve_s": ratio(total("sdp.solve"), len(solves)),
        "sdp.self_s": own.get("sdp.solve", 0.0) / k,
        "sdp.inner_iters": iters / k,
        "sdp.outer_rounds": total("sdp.solve", "outer_rounds") / k,
        "sdp.s_per_inner_iter": ratio(total("sdp.solve"), iters),
        "sdp.active_constraints": total("sdp.solve", "active_constraints") / k,
        "sdp.converged_frac": ratio(total("sdp.solve", "converged"), len(solves)),
        "sdp.max_violation": max((s.counts["max_violation"] for s in solves), default=0.0),
        "sdp.triples": total("sdp.triples", "triples") / k,
        "sdp.triples_s": own.get("sdp.triples", 0.0) / k,
        "sdp.scan_s": own.get("sdp.scan", 0.0) / k,
        "rounding.trials": trials / k,
        "rounding.sample_us": per_trial_us("rounding.sample"),
        "rounding.round_us": per_trial_us("rounding.round"),
        "localsearch.analyze_us": per_trial_us("localsearch.analyze"),
        "localsearch.flip_us": per_trial_us("localsearch.flip"),
        "localsearch.evaluate_us": per_trial_us("localsearch.evaluate"),
        "localsearch.candidates": ratio(cands, trials),
        "localsearch.flips": ratio(flips, trials),
        "localsearch.flip_yield": ratio(flips, cands),
        "localsearch.loop_s": (own.get("localsearch.best_of", 0.0)
                               + own.get("localsearch.run_once", 0.0)) / k,
        "localsearch.report_s": own.get("localsearch.report", 0.0) / k,
        "localsearch.report_calls": len(by.get("localsearch.report", [])) / k,
        "oracle.solve_s": own.get("oracle.solve", 0.0) / k,
        "oracle.assignments_per_s": ratio(total("oracle.solve", "assignments"),
                                          total("oracle.solve")),
        "instance.gen_s": gen_s,
        "instance.parse_s": own.get("instance.parse", 0.0) / k,
        "harness.self_s": own.get("harness", 0.0) / k,
        "bench.self_s": own.get("bench.pass", 0.0) / k,
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": traced_wall / plain_wall - 1.0,
    }


def run(args) -> int:
    wl = WORKLOADS[args.workload]
    facts = machine_facts(args)
    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with SdpCapture() as capture:
            reps = [setup(wl, args, workdir, capture) for _ in range(SETUP_REPS)]
            calls = reps[-1].calls
            passes, tracer = measure(calls, wl.passes(args.seconds), bool(args.trace), capture)
        attempted, failed, qual = check_all(wl, args, workdir, [r.warmup for r in reps], passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        metrics = per_layer(tracer, passes, statistics.median(r.gen_seconds for r in reps))
        units = PER_LAYER
        spans_path = WORK / f"spans-{args.workload}-s{args.seed}.json"
        tracer.write(spans_path)
        print(f"# spans written to {spans_path}")
    else:
        import_s = statistics.median(import_seconds() for _ in range(SETUP_REPS))
        setup_s = import_s + statistics.median(r.seconds for r in reps)
        print(f"# setup: import_s={import_s!r} reps={[r.seconds for r in reps]!r}")
        metrics = end_to_end(setup_s, passes, qual)
        units = END_TO_END
    print("# facts " + json.dumps(facts, sort_keys=True))
    print(f"# passes={len(passes)} calls/pass={len(calls)} failed_frac={failed / attempted!r}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0
