"""Workload definitions: instance panels, generation, and the CLI calls.

Every workload is a closed loop of ``cutflip`` CLI calls, one instance per
call. A pass is the fixed list of calls. A run makes
``max(1, seconds // nominal_pass_s)`` passes: the count depends on
``--seconds`` only, never on how fast the code under test is, so the two
commits of a comparison do the same work.

Graphs come from a fixed panel (``--panel-seed``, default 0): the SDP work
moves with the graph by 12% at n=2000 and by up to 100x on desk-sized graphs
(79 to 28k inner iterations), more than a run can average out. The CLI
``--seed`` (SDP start point and rounding seeds) comes from the workload seed
where the start point moves the work by a few percent (``large``: 175 to 185
iterations on one graph) and from the panel seed where it moves the ALM work
by up to 40% (``nbhd``, ``desk``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

UNIFORM = ("uniform", 0.3, 2.0)


@dataclass
class InstanceSpec:
    name: str
    n: int
    d: int
    sign_bias: float
    weights: object  # "unit" or ("uniform", lo, hi)
    gen_seed: int


@dataclass
class Call:
    """One CLI invocation on one instance; ``out`` is the file it writes."""

    spec: InstanceSpec
    path: Path
    out: Path
    argv: list


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "solve" or "experiment"
    trials: int
    oracle: bool
    triangle_mode: str
    seeded: bool  # CLI --seed from the workload seed, else from the panel seed
    nominal_pass_s: float  # pass wall time on the reference machine (2 cores)

    def passes(self, seconds: float) -> int:
        return max(1, int(seconds // self.nominal_pass_s))

    def cli_seed(self, seed: int, panel_seed: int) -> int:
        return seed if self.seeded else panel_seed

    def instances(self, panel_seed: int, smoke: bool) -> list[InstanceSpec]:
        rng = np.random.default_rng([panel_seed, _SALT[self.name]])
        return _PANELS[self.name](rng, smoke)

    def warmup_instance(self) -> InstanceSpec:
        return InstanceSpec("warmup", 12, 3, 1.0, "unit", gen_seed=7)

    def trials_for(self, smoke: bool) -> int:
        return min(self.trials, 5) if smoke else self.trials

    def make_call(self, spec: InstanceSpec, workdir: Path, seed: int, smoke: bool) -> Call:
        path = workdir / f"{spec.name}.txt"
        trials = self.trials_for(smoke)
        if self.command == "experiment":
            out = workdir / f"{spec.name}.csv"
            spec_path = workdir / f"{spec.name}.spec.json"
            spec_path.write_text(json.dumps({
                "instances": {"files": [path.name]},
                "trials": trials,
                "triangle_mode": self.triangle_mode,
                "seed": seed,
            }) + "\n", encoding="utf-8")
            argv = ["experiment", str(spec_path), "--workers", "1", "--csv", str(out)]
        else:
            out = workdir / f"{spec.name}.json"
            argv = ["solve", str(path), "--trials", str(trials), "--seed", str(seed),
                    "--triangle-mode", self.triangle_mode, "--json", str(out)]
            if self.oracle:
                argv.append("--oracle")
        return Call(spec=spec, path=path, out=out, argv=argv)


def _even(n: int, d: int) -> int:
    return n if n * d % 2 == 0 else n + 1


def _nbhd_panel(rng: np.random.Generator, smoke: bool) -> list[InstanceSpec]:
    # unit Max-Cut n=150 d=6, and signed Max-2LIN n=200 d=4 with sign bias 0.5
    sizes = [(30, 4), (30, 3)] if smoke else [(150, 6), (200, 4)]
    cells = [(1.0, "unit"), (0.5, UNIFORM)]
    return [
        InstanceSpec(f"nbhd-{k}", n, d, sb, w, int(rng.integers(1 << 62)))
        for k, ((n, d), (sb, w)) in enumerate(zip(sizes, cells))
    ]


def _large_panel(rng: np.random.Generator, smoke: bool) -> list[InstanceSpec]:
    n = 200 if smoke else 2000
    return [InstanceSpec("large-0", n, 4, 1.0, "unit", int(rng.integers(1 << 62)))]


DESK_COUNT = 16


def _desk_panel(rng: np.random.Generator, smoke: bool) -> list[InstanceSpec]:
    out = []
    for k in range(3 if smoke else DESK_COUNT):
        d = int(rng.integers(3, 7))
        n = int(rng.integers(14, 23))
        n = 12 if smoke else _even(n, d)  # n = 22 is already even
        sb = float(rng.choice([0.5, 0.8, 1.0]))
        w = "unit" if rng.random() < 0.5 else UNIFORM
        out.append(InstanceSpec(f"desk-{k}", n, d, sb, w, int(rng.integers(1 << 62))))
    return out


_PANELS = {"nbhd": _nbhd_panel, "large": _large_panel, "desk": _desk_panel}
_SALT = {"nbhd": 1, "large": 2, "desk": 3}

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "nbhd",
            "experiment, 50 trials, neighborhood triangles; Max-Cut n=150 d=6 and signed "
            "n=200 d=4 bias 0.5 U(0.3,2): ALM and constraint layer, per-trial report fields",
            command="experiment", trials=50, oracle=False,
            triangle_mode="neighborhood", seeded=False, nominal_pass_s=10.0,
        ),
        Workload(
            "large",
            "solve, no triangles, 400 trials; Max-Cut n=2000 d=4: bypasses the constraint "
            "layer; rank, optimizer, candidate analysis and flips, largest memory and JSON",
            command="solve", trials=400, oracle=False,
            triangle_mode="none", seeded=True, nominal_pass_s=6.0,
        ),
        Workload(
            "desk",
            "solve --oracle, 50 trials; 16 graphs n 14-22, d 3-6, bias 0.5/0.8/1, unit or "
            "U(0.3,2): many small solves, heavy iteration tail, quality against exact OPT",
            command="solve", trials=50, oracle=True,
            triangle_mode="neighborhood", seeded=False, nominal_pass_s=40.0,
        ),
    ]
}
