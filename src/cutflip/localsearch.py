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
functions are pure in (instance, embedding, g); trials parallelize across seeds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .instance import Max2LinInstance, as_assignment, evaluate
from .numerics import rho_star
from .rounding import GENERATOR_NAME, hyperplane_round, sample_gaussian
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


def default_epsilon(d: int, constant: float = 2.0) -> float:
    """Candidate band half-width 1/(C * d' * sqrt(ln d')) for max degree d and
    C = constant, with d' = max(d, 2) guarding ln(1) = 0."""
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if not constant > 0:  # NaN too
        raise ValueError(f"constant must be > 0, got {constant}")
    d_eff = max(d, 2)
    return 1.0 / (constant * d_eff * math.sqrt(math.log(d_eff)))


@dataclass
class CandidateAnalysis:
    """Sorted candidate ids; flip, incident_weight and local_gain as length-n
    arrays by vertex id (False / 0 off the candidates); part, one int8 code per
    inst.nbr slot: -1 outside candidate rows, 0 in band, 1 violated, 2 satisfied."""

    candidates: np.ndarray
    flip: np.ndarray
    incident_weight: np.ndarray
    local_gain: np.ndarray
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
    """Partition each candidate's neighborhood and decide flips.

    x must be the rounding of (emb, g); it is caller-supplied so the
    partition can be tested on fabricated configurations.
    """
    xs = as_assignment(inst, x)
    gvec = np.asarray(g, dtype=np.float64)
    if gvec.shape != (emb.rank,):
        raise ValueError(f"direction has shape {gvec.shape}, embedding rank is {emb.rank}")
    if emb.n != inst.n:
        raise ValueError(f"embedding has {emb.n} rows but instance has n={inst.n}")

    proj = emb.vectors @ gvec
    band = np.abs(proj) < eps
    cand = np.flatnonzero(band)
    # the adjacency slots of the candidate rows, row after row
    lo = inst.indptr[cand]
    deg = inst.indptr[cand + 1] - lo
    owner = np.repeat(cand, deg)
    slots = np.repeat(lo - np.cumsum(deg) + deg, deg) + np.arange(len(owner))
    margin = inst.nbr_sign[slots] * xs[owner] * proj[inst.nbr[slots]]
    # |margin| = |<g, v_j>|, so a violated or satisfied neighbor is outside the band
    violated = margin <= -eps
    part = np.full(len(inst.nbr), -1, dtype=np.int8)
    part[slots] = violated + 2 * (margin >= eps)
    # bincount sums each row in slot order, as ndarray.sum does below 8 terms
    w = inst.nbr_weight[slots]
    w_total = np.bincount(owner, w, inst.n)
    w_gain = np.bincount(owner, np.where(violated, w, 0.0), inst.n)
    local_gain = np.maximum(0.0, 2.0 * w_gain - w_total)
    return CandidateAnalysis(cand, w_gain > w_total - w_gain, w_total, local_gain, part)


def apply_flips(
    inst: Max2LinInstance, x: np.ndarray, analysis: CandidateAnalysis
) -> tuple[np.ndarray, float]:
    """Flip every candidate whose violated weight strictly dominates.

    Returns (x', evaluate(x') - evaluate(x)). The gain is never negative:
    violated/satisfied neighbors sit outside the band so they do not move,
    and an in-band edge is double-counted as a loss on both endpoints.
    """
    xs = as_assignment(inst, x)
    flipped = np.where(analysis.flip, -xs, xs)
    gain = evaluate(inst, flipped) - evaluate(inst, xs)
    return flipped, float(gain)


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
    """One pipeline trial: SDP bound, rounded and post-flip values, flip stats."""

    sdp_value: float
    rounded_value: float
    flipped_value: float
    gain: float
    s_size: int
    flip_count: int
    rho_window_fraction: float
    seeds: dict
    converged: bool | None
    generator: str = GENERATOR_NAME

    def to_dict(self) -> dict:
        return asdict(self)


def run_once(
    inst: Max2LinInstance,
    sdp: tuple[SdpEmbedding, SdpReport],
    seed: int,
    eps: float | None = None,
) -> RunReport:
    """One trial on a solved (SdpEmbedding, SdpReport) pair: round with the
    given seed, flip once, and report."""
    emb, rep = sdp
    _, _, reports = best_of(inst, emb, 1, base_seed=seed, eps=eps, converged=rep.converged)
    return reports[0]


def best_of(
    inst: Max2LinInstance,
    emb: SdpEmbedding,
    trials: int,
    base_seed: int = 0,
    eps: float | None = None,
    converged: bool | None = None,
) -> tuple[np.ndarray, float, list[RunReport]]:
    """Best post-flip assignment over trials rounding seeds base_seed + t.

    The seed stream is a fixed prefix: the best value is nondecreasing in
    trials for a fixed base_seed. eps defaults to default_epsilon's band for
    the instance's max degree.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if eps is None:
        eps = default_epsilon(max(inst.max_degree, 1))
    sdp_value = sdp_objective(inst, emb)
    rho_frac = rho_window_fraction(inst, emb)
    best_x = None
    best_val = -math.inf
    reports = []
    for t in range(trials):
        seed = base_seed + t
        g = sample_gaussian(emb.rank, seed)
        x = hyperplane_round(emb, g)
        rounded = evaluate(inst, x)
        analysis = analyze_candidates(inst, emb, g, x, eps)
        x_flip, gain = apply_flips(inst, x, analysis)
        flipped = rounded + gain
        reports.append(
            RunReport(
                sdp_value=sdp_value,
                rounded_value=rounded,
                flipped_value=flipped,
                gain=gain,
                s_size=int(len(analysis.candidates)),
                flip_count=int(np.count_nonzero(analysis.flip)),
                rho_window_fraction=rho_frac,
                seeds={"rounding": seed},
                converged=converged,
            )
        )
        if flipped > best_val:
            best_val, best_x = flipped, x_flip
    return best_x, float(best_val), reports
