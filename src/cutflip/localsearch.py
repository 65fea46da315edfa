"""Candidate-set local flips applied after hyperplane rounding.

Vertices whose projection <g, v_i> lands in the open band (-eps, eps), eps a
float half-width (default_epsilon), are cheap to flip: their own rounding
margin is small. Each candidate's neighborhood splits into three disjoint sets
by the signed margin b_ij * x_i * <g, v_j>:

  * in_band    -- neighbors that are themselves candidates (|<g, v_j>| < eps),
  * violated   -- margin <= -eps: the edge is currently violated and flipping
                  the candidate satisfies it (the neighbor is outside the band,
                  so it will not itself flip),
  * satisfied  -- margin >= +eps: currently satisfied, lost if we flip.

A candidate flips when the violated weight strictly exceeds the rest; one
flip pass is the measured semantic, computed as whole-array numpy over the
instance's CSR adjacency (see CandidateAnalysis for the flat layout). All
functions are pure in (instance, embedding, g), and each also takes a stack of
trials along a leading axis: best_of runs its trials in chunks that way.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .instance import Max2LinInstance, _satisfied_weight, as_assignment, evaluate
from .numerics import default_epsilon, rho_star
from .rounding import _signs, hyperplane_round, projections, sample_gaussian
# evaluate, hyperplane_round and sdp_objective have no caller here;
# perfbench/tracing.py wraps them under these names
from .sdp import SdpEmbedding, SdpReport, sdp_objective

__all__ = [
    "CandidateAnalysis",
    "RunReport",
    "analyze_candidates",
    "apply_flips",
    "best_of",
    "default_epsilon",
    "rho_window_fraction",
    "run_once",
]


_RHO_WINDOW = 0.01  # half-width of rho_window_fraction's window around rho*

# best_of sizes its chunks of trials so that each per-trial array of
# max(n, m) entries holds about this many elements in the chunk: 16 trials at
# n=2000 d=4. There 400 trials take 31 ms with a 2.9 MB tracemalloc peak;
# chunks of 1, 4, 65 and 262 trials take 67, 52, 32 and 39 ms with peaks of
# 1.6, 1.6, 11 and 33 MB (2-vCPU Xeon box), so the budget is set for memory
_CHUNK_ELEMENTS = 1 << 16


@dataclass
class CandidateAnalysis:
    """Sorted candidate ids; flip and incident_weight as length-n arrays by
    vertex id (False / 0 off the candidates); part, one int8 code per
    inst.nbr slot: -1 outside candidate rows, 0 in band, 1 violated, 2 satisfied.

    The analysis of a stack of T trials puts a leading trial axis on flip,
    incident_weight and part, and keys each candidate as trial * n + vertex.
    """

    candidates: np.ndarray
    flip: np.ndarray
    incident_weight: np.ndarray
    part: np.ndarray

    @property
    def flipped(self) -> np.ndarray:
        return np.flatnonzero(self.flip)


def analyze_candidates(
    inst: Max2LinInstance,
    emb: SdpEmbedding,
    g: np.ndarray,
    x: np.ndarray,
    eps: float,
) -> CandidateAnalysis:
    """Partition each candidate's neighborhood and decide flips, for one
    direction g of shape (rank,) or a stack of shape (T, rank).

    x must be the rounding of (emb, g), of the same leading shape; it is
    caller-supplied so the partition can be tested on fabricated
    configurations. Only its shape is checked here: evaluate() validates
    assignments.
    """
    _check_rows(inst, emb)
    proj = projections(emb, g)
    xs = np.asarray(x)
    if xs.shape != proj.shape:
        raise ValueError(f"assignment has shape {xs.shape}, directions give {proj.shape}")
    return _analysis(inst, proj, xs, eps)


def _check_rows(inst: Max2LinInstance, emb: SdpEmbedding) -> None:
    if emb.n != inst.n:
        raise ValueError(f"embedding has {emb.n} rows but instance has n={inst.n}")


def _analysis(inst: Max2LinInstance, proj: np.ndarray, xs: np.ndarray, eps: float) -> CandidateAnalysis:
    """analyze_candidates from the projections <g, v_i>, for an x of their shape."""
    n, slots_per_trial = inst.n, len(inst.nbr)
    trials = proj.size // n
    lead = proj.shape[:-1]  # () for one direction, (T,) for a stack
    proj, xs = proj.reshape(-1), xs.reshape(-1)

    key = np.flatnonzero(np.abs(proj) < eps)  # trial * n + vertex
    trial, cand = np.divmod(key, n)
    # the adjacency slots of the candidate rows, row after row
    lo = inst.indptr[cand]
    deg = inst.indptr[cand + 1] - lo
    owner = np.repeat(key, deg)
    slots = np.repeat(lo - np.cumsum(deg) + deg, deg) + np.arange(len(owner))
    nbr_key = np.repeat(trial * n, deg) + inst.nbr[slots]
    margin = inst.nbr_sign[slots] * xs[owner] * proj[nbr_key]
    # |margin| = |<g, v_j>|, so a violated or satisfied neighbor is outside the band
    violated = margin <= -eps
    part = np.full(trials * slots_per_trial, -1, dtype=np.int8)
    part[np.repeat(trial * slots_per_trial, deg) + slots] = violated + 2 * (margin >= eps)
    # bincount sums each row in slot order, as ndarray.sum does below 8 terms
    w = inst.nbr_weight[slots]
    w_total = np.bincount(owner, w, trials * n)
    w_gain = np.bincount(owner, np.where(violated, w, 0.0), trials * n)
    return CandidateAnalysis(
        key,
        (w_gain > w_total - w_gain).reshape(*lead, n),
        w_total.reshape(*lead, n),
        part.reshape(*lead, slots_per_trial),
    )


def apply_flips(
    inst: Max2LinInstance,
    x: np.ndarray,
    analysis: CandidateAnalysis,
    rounded: float | np.ndarray | None = None,
) -> tuple[np.ndarray, float | np.ndarray]:
    """Flip every candidate whose violated weight strictly dominates.

    Returns (x', evaluate(x') - evaluate(x)), per row for a (T, n) stack.
    rounded, when given, is evaluate(inst, x) for an x known to be valid
    (evaluate validated it, or best_of's rounding built it); x is then
    neither validated nor scored again. The gain is never negative:
    violated/satisfied neighbors sit outside the band so they do not move,
    and an in-band edge is double-counted as a loss on both endpoints.
    """
    if rounded is None:
        xs = as_assignment(inst, x)
        rounded = _satisfied_weight(inst, xs)
    else:
        xs = np.asarray(x)
    if analysis.flip.shape != xs.shape:
        raise ValueError(f"analysis has shape {analysis.flip.shape}, assignment {xs.shape}")
    flipped = np.where(analysis.flip, -xs, xs)
    return flipped, _satisfied_weight(inst, flipped) - rounded


def rho_window_fraction(inst: Max2LinInstance, emb: SdpEmbedding) -> float:
    """Weighted fraction of edges whose signed correlation b<v_i, v_j> lies in
    the worst-rounding window [rho* - _RHO_WINDOW, rho* + _RHO_WINDOW]."""
    if inst.m == 0:
        return 0.0
    r = np.einsum("ij,ij->i", emb.vectors[inst.edge_i], emb.vectors[inst.edge_j])
    s = inst.sign * r
    target = rho_star()
    mask = (s >= target - _RHO_WINDOW) & (s <= target + _RHO_WINDOW)
    return float(inst.weight[mask].sum() / inst.total_weight)


@dataclass
class RunReport:
    """One trial of best_of: rounding seed, rounded and post-flip values, their
    difference, s_size (in-band vertices with an edge, so incident weight > 0)
    and flip count. Facts the trials share (SDP value, convergence,
    rho_window_fraction, rounding generator) are the caller's, once per solve."""

    rounding_seed: int
    rounded_value: float
    flipped_value: float
    gain: float
    s_size: int
    flip_count: int

    def to_dict(self) -> dict:
        """The fields by name, in field order."""
        return dict(vars(self))


def run_once(
    inst: Max2LinInstance,
    sdp: tuple[SdpEmbedding, SdpReport],
    seed: int,
    eps: float | None = None,
) -> RunReport:
    """One trial on a solved (SdpEmbedding, SdpReport) pair: round with the
    given seed, flip once, and report. Only the embedding, sdp[0], is read."""
    _, _, reports = best_of(inst, sdp[0], [seed], eps=eps)
    return reports[0]


def best_of(
    inst: Max2LinInstance,
    emb: SdpEmbedding,
    seeds: Iterable[int] | None = None,
    eps: float | None = None,
    *,
    trials: int | None = None,
    base_seed: int = 0,
) -> tuple[np.ndarray, float, list[RunReport]]:
    """Best post-flip assignment over one trial per rounding seed, with one
    RunReport per seed, in order; the best is the first maximizer.

    trials=T, base_seed=s is shorthand for seeds=range(s, s + T). eps
    defaults to default_epsilon's band for the instance's max degree.

    Trials run in chunks of about _CHUNK_ELEMENTS / max(n, m): each chunk
    samples one direction per seed, projects the embedding on them once,
    then rounds, scores, analyses and flips its stack of trials in single
    calls, scoring the rounding it built without evaluate's validation.
    Each trial's sums keep evaluate's
    order, so every value equals that of the trial run alone, unless one of
    its projections lies within rounding of 0 or of the band edge (see
    rounding.projections).
    """
    if trials is not None:
        if seeds is not None:
            raise TypeError("best_of takes seeds or trials, not both")
        seeds = range(base_seed, base_seed + trials)
    seeds = [] if seeds is None else [operator.index(seed) for seed in seeds]
    if not seeds:
        raise ValueError("best_of needs at least one rounding seed (trials >= 1)")
    _check_rows(inst, emb)
    if eps is None:
        eps = default_epsilon(max(inst.max_degree, 1))
    chunk = max(1, _CHUNK_ELEMENTS // max(inst.n, inst.m))
    best_x = None
    best_val = -math.inf
    reports = []
    for start in range(0, len(seeds), chunk):
        block = seeds[start : start + chunk]
        g = np.stack([sample_gaussian(emb.rank, seed) for seed in block])
        proj = projections(emb, g)
        x = _signs(proj)
        rounded = _satisfied_weight(inst, x)
        analysis = _analysis(inst, proj, x, eps)
        x_flip, gain = apply_flips(inst, x, analysis, rounded)
        flipped = rounded + gain
        s_size = np.count_nonzero(analysis.incident_weight, axis=1)
        flip_count = np.count_nonzero(analysis.flip, axis=1)
        reports += [
            RunReport(seed, float(rounded[t]), float(flipped[t]), float(gain[t]),
                      int(s_size[t]), int(flip_count[t]))
            for t, seed in enumerate(block)
        ]
        top = int(np.argmax(flipped))
        if flipped[top] > best_val:
            best_val, best_x = float(flipped[top]), x_flip[top].copy()
    return best_x, best_val, reports
