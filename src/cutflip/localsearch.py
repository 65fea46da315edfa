"""Candidate-set local flips applied after hyperplane rounding.

Vertices whose projection <g, v_i> lands in the open band (-eps, eps) are
cheap to flip: their own rounding margin is small. Each candidate's
neighborhood splits into three disjoint sets by the signed margin
b_ij * x_i * <g, v_j>:

  * in_band    -- neighbors that are themselves candidates (|<g, v_j>| < eps),
  * violated   -- margin <= -eps: the edge is currently violated and flipping
                  the candidate satisfies it (the neighbor is outside the band,
                  so it will not itself flip),
  * satisfied  -- margin >= +eps: currently satisfied, lost if we flip.

A candidate flips when the violated weight strictly exceeds the rest; one
flip pass is the measured semantic. All functions are pure in
(instance, embedding, g); trials parallelize across seeds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .instance import Max2LinInstance, as_assignment, evaluate
from .numerics import rho_star
from .rounding import GENERATOR_NAME, GaussianSample, hyperplane_round, sample_gaussian
from .sdp import SdpEmbedding, SdpReport, sdp_objective

__all__ = [
    "CandidateAnalysis",
    "Epsilon",
    "RunReport",
    "analyze_candidates",
    "apply_flips",
    "best_of",
    "default_epsilon",
    "rho_window_fraction",
    "run_once",
]


@dataclass(frozen=True)
class Epsilon:
    """Candidate band half-width 1/(C * d' * sqrt(ln d')) with d' = max(d, 2)."""

    value: float
    constant: float
    degree: int


def default_epsilon(d: int, constant: float = 2.0) -> Epsilon:
    """Band width for max degree d; d' = max(d, 2) guards ln(1) = 0."""
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if constant <= 0:
        raise ValueError(f"constant must be > 0, got {constant}")
    d_eff = max(d, 2)
    return Epsilon(
        value=1.0 / (constant * d_eff * math.sqrt(math.log(d_eff))),
        constant=constant,
        degree=d,
    )


@dataclass
class CandidateAnalysis:
    """The candidate set and the per-candidate neighborhood partition."""

    candidates: np.ndarray
    in_band: dict = field(default_factory=dict)
    violated: dict = field(default_factory=dict)
    satisfied: dict = field(default_factory=dict)
    incident_weight: dict = field(default_factory=dict)
    local_gain: dict = field(default_factory=dict)
    flip: dict = field(default_factory=dict)

    @property
    def flipped(self) -> list:
        return [i for i in self.candidates.tolist() if self.flip[i]]


def analyze_candidates(
    inst: Max2LinInstance,
    emb: SdpEmbedding,
    g: GaussianSample,
    x: np.ndarray,
    eps: Epsilon,
) -> CandidateAnalysis:
    """Partition each candidate's neighborhood and decide flips.

    x must be the rounding of (emb, g); it is caller-supplied so the
    partition can be tested on fabricated configurations.
    """
    xs = as_assignment(inst, x)
    gvec = g.g if isinstance(g, GaussianSample) else np.asarray(g, dtype=np.float64)
    if gvec.shape != (emb.rank,):
        raise ValueError(f"direction has shape {gvec.shape}, embedding rank is {emb.rank}")
    if emb.n != inst.n:
        raise ValueError(f"embedding has {emb.n} rows but instance has n={inst.n}")

    proj = emb.vectors @ gvec
    band = np.abs(proj) < eps.value
    out = CandidateAnalysis(candidates=np.flatnonzero(band))
    for i in out.candidates.tolist():
        nbrs, signs, weights = inst.neighbors(i)
        margin = signs * int(xs[i]) * proj[nbrs]
        a_mask = band[nbrs]
        b_mask = ~a_mask & (margin <= -eps.value)
        c_mask = ~a_mask & (margin >= eps.value)
        w_total = float(weights.sum())
        w_gain = float(weights[b_mask].sum())
        out.in_band[i] = nbrs[a_mask]
        out.violated[i] = nbrs[b_mask]
        out.satisfied[i] = nbrs[c_mask]
        out.incident_weight[i] = w_total
        out.local_gain[i] = max(0.0, 2.0 * w_gain - w_total)
        out.flip[i] = w_gain > w_total - w_gain
    return out


def apply_flips(
    inst: Max2LinInstance, x: np.ndarray, analysis: CandidateAnalysis
) -> tuple[np.ndarray, float]:
    """Flip every candidate whose violated weight strictly dominates.

    Returns (x', evaluate(x') - evaluate(x)). The gain is never negative:
    violated/satisfied neighbors sit outside the band so they do not move,
    and an in-band edge is double-counted as a loss on both endpoints.
    """
    xs = as_assignment(inst, x)
    flipped = xs.copy()
    for i, do_flip in analysis.flip.items():
        if do_flip:
            flipped[i] = -xs[i]
    gain = evaluate(inst, flipped) - evaluate(inst, xs)
    return flipped, float(gain)


def rho_window_fraction(inst: Max2LinInstance, emb: SdpEmbedding, width: float = 0.01) -> float:
    """Weighted fraction of edges whose signed correlation b<v_i, v_j> lies in
    the worst-rounding window [rho* - width, rho* + width]."""
    if inst.m == 0:
        return 0.0
    r = np.einsum("ij,ij->i", emb.vectors[inst.edge_i], emb.vectors[inst.edge_j])
    s = inst.sign * r
    target = rho_star()
    mask = (s >= target - width) & (s <= target + width)
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
    eps: Epsilon | None = None,
    epsilon_c: float = 2.0,
) -> RunReport:
    """One trial on a solved (SdpEmbedding, SdpReport) pair: round with the
    given seed, flip once, and report."""
    emb, rep = sdp
    _, _, reports = best_of(
        inst, emb, 1, base_seed=seed, eps=eps, epsilon_c=epsilon_c, converged=rep.converged
    )
    return reports[0]


def best_of(
    inst: Max2LinInstance,
    emb: SdpEmbedding,
    trials: int,
    base_seed: int = 0,
    eps: Epsilon | None = None,
    epsilon_c: float = 2.0,
    converged: bool | None = None,
) -> tuple[np.ndarray, float, list[RunReport]]:
    """Best post-flip assignment over trials rounding seeds base_seed + t.

    The seed stream is a fixed prefix: the best value is nondecreasing in
    trials for a fixed base_seed.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if eps is None:
        eps = default_epsilon(max(inst.max_degree, 1), epsilon_c)
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
                flip_count=int(sum(analysis.flip.values())),
                rho_window_fraction=rho_frac,
                seeds={"rounding": seed},
                converged=converged,
            )
        )
        if flipped > best_val:
            best_val, best_x = flipped, x_flip
    return best_x, float(best_val), reports
