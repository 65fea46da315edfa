"""Output checks and quality metrics for one CLI call.

A call fails when it exits non-zero, when its output cannot be read, or when
any check below does not hold. Non-convergence of the SDP is not a failure:
the solver flags it and the benchmark reports it as ``converged_frac``. What
is checked is that a solve flagged converged really meets the constraint
tolerance.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
from dataclasses import dataclass, field

from cutflip.instance import evaluate
from cutflip.sdp import SdpConfig

CONSTRAINT_TOL = SdpConfig().constraint_tol
# evaluate() sums in another order than rounded + gain; allow float noise
REL_TOL = 1e-9


@dataclass
class Outcome:
    """What the benchmark saw of one call, before any checking."""

    name: str
    rc: int
    latency: float
    output: bytes | None
    sdp_reports: list = field(default_factory=list)  # SdpReport per solve in the call
    error: str = ""


@dataclass
class Record:
    """Parsed output of one call on an instance of total weight W."""

    W: float
    sdp_value: float
    best_value: float
    converged: bool
    max_violation: float
    rounded: list
    flipped: list
    gain: list
    opt: float | None = None
    assignment: list | None = None


def parse_solve(data: bytes, sdp_reports: list, W: float) -> Record:
    doc = json.loads(data)
    reps = doc["reports"]
    return Record(
        W=W,
        sdp_value=float(doc["sdp_value"]),
        best_value=float(doc["best_value"]),
        converged=doc["sdp_converged"],
        max_violation=float(doc["sdp_max_violation"]),
        rounded=[float(r["rounded_value"]) for r in reps],
        flipped=[float(r["flipped_value"]) for r in reps],
        gain=[float(r["gain"]) for r in reps],
        opt=doc.get("oracle_opt"),
        assignment=doc["best_assignment"],
    )


def parse_experiment(data: bytes, sdp_reports: list, W: float) -> Record:
    text = data.decode("utf-8")
    body = text.split("\n", 1)[1]  # first line is the version comment
    rows = list(csv.DictReader(io.StringIO(body)))
    bad = [r for r in rows if r["kind"] == "error"]
    if bad:
        raise ValueError(f"error row: {bad[0]['error']}")
    trials = [r for r in rows if r["kind"] == "trial"]
    if len(sdp_reports) != 1 or not trials:
        raise ValueError(f"expected one solve and some trials, got {len(sdp_reports)} solves")
    flipped = [float(r["flipped_value"]) for r in trials]
    return Record(
        W=W,
        sdp_value=float(trials[0]["sdp_value"]),
        best_value=max(flipped),
        converged={"True": True, "False": False}[trials[0]["converged"]],
        max_violation=sdp_reports[0].max_violation,
        rounded=[float(r["rounded_value"]) for r in trials],
        flipped=flipped,
        gain=[float(r["gain"]) for r in trials],
    )


def check(rec: Record, inst, trials: int, oracle: bool) -> list[str]:
    """Every failed check on one parsed call, as short messages."""
    fails = []
    slack = REL_TOL * max(1.0, rec.W)
    if len(rec.flipped) != trials:
        fails.append(f"{len(rec.flipped)} trials reported, {trials} asked")
    for t, (r, f, g) in enumerate(zip(rec.rounded, rec.flipped, rec.gain)):
        if not g >= 0.0:
            fails.append(f"trial {t}: gain {g!r} < 0")
        if f != r + g:
            fails.append(f"trial {t}: flipped {f!r} != rounded + gain {r + g!r}")
    if not isinstance(rec.converged, bool):
        fails.append(f"converged flag {rec.converged!r} is not a bool")
    elif rec.converged and not rec.max_violation <= CONSTRAINT_TOL:
        fails.append(f"converged but max violation {rec.max_violation!r} > {CONSTRAINT_TOL}")
    if rec.flipped and rec.best_value != max(rec.flipped):
        fails.append(f"best {rec.best_value!r} is not the best trial {max(rec.flipped)!r}")
    if rec.assignment is not None:
        rescored = evaluate(inst, rec.assignment)
        if abs(rescored - rec.best_value) > slack:
            fails.append(f"best assignment re-scores to {rescored!r}, reported {rec.best_value!r}")
    if oracle:
        if rec.opt is None:
            fails.append("oracle optimum missing")
        elif rec.best_value > rec.opt + slack:
            fails.append(f"best {rec.best_value!r} exceeds OPT {rec.opt!r}")
    return fails


def _mean(xs) -> float:
    xs = list(xs)
    return statistics.fmean(xs) if xs else 0.0


def quality(records: list[Record]) -> dict[str, float]:
    """Quality means over the instances of one pass (trial means pool all trials).

    Where no OPT is known (no oracle), flipped_vs_opt divides by the SDP value.
    """
    trial = [
        (f / r.W, g / r.W, f / (r.opt if r.opt is not None else r.sdp_value))
        for r in records
        for f, g in zip(r.flipped, r.gain)
    ]
    return {
        "sdp_obj_per_w": _mean(r.sdp_value / r.W for r in records),
        "best_per_w": _mean(r.best_value / r.W for r in records),
        "flipped_per_w": _mean(t[0] for t in trial),
        "gain_per_w": _mean(t[1] for t in trial),
        "flipped_vs_opt": _mean(t[2] for t in trial),
        "converged_frac": _mean(float(r.converged) for r in records),
    }
