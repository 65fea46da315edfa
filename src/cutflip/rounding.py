"""Gaussian hyperplane rounding of an embedding.

Rounds x_i = sign(<g, v_i>) for a standard Gaussian g sampled in the
embedding's rank (distributionally identical to ambient-dimension sampling
for every inner product involved). sign(0) is +1: the event has measure zero
and a fixed convention keeps runs reproducible. Stateless given (embedding,
seed); trials across seeds are embarrassingly parallel.
"""

from __future__ import annotations

import numpy as np

from .sdp import SdpEmbedding

__all__ = ["GENERATOR_NAME", "SEED_LIMIT", "check_seed", "hyperplane_round", "projections",
           "sample_gaussian"]

# Counter-based stream (Philox) feeding numpy's ziggurat normal sampler;
# recorded in run reports so trials can be reproduced bit-exactly.
GENERATOR_NAME = "philox4x64-ziggurat"

# a seed is Philox's key, an unsigned 128-bit integer
SEED_LIMIT = 2**128


def check_seed(seed: int) -> None:
    """Refuse (ValueError) a rounding seed outside [0, SEED_LIMIT)."""
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"rounding seed must lie in [0, 2**128), got {seed}")


def sample_gaussian(r: int, seed: int) -> np.ndarray:
    """Deterministic r-dimensional standard Gaussian for the given seed, as a
    read-only float64 array."""
    if r < 1:
        raise ValueError(f"dimension must be >= 1, got {r}")
    check_seed(seed)
    rng = np.random.Generator(np.random.Philox(key=seed))
    g = rng.standard_normal(r)
    g.setflags(write=False)
    return g


def projections(emb: SdpEmbedding, g: np.ndarray) -> np.ndarray:
    """<g, v_i> for every row: an (n,) array for one direction of shape
    (rank,), a (T, n) array for T directions stacked as (T, rank).

    One direction takes a matrix-vector product, a stack one matrix product.
    The two can differ by rounding (a few ulps), which only moves a
    comparison of a projection that lies that close to 0 or to a band edge.
    """
    vec = np.asarray(g, dtype=np.float64)
    if vec.ndim not in (1, 2) or vec.shape[-1] != emb.rank:
        raise ValueError(f"direction has shape {vec.shape}, embedding rank is {emb.rank}")
    return emb.vectors @ vec if vec.ndim == 1 else vec @ emb.vectors.T


def hyperplane_round(emb: SdpEmbedding, g: np.ndarray) -> np.ndarray:
    """x_i = sign(<g, v_i>) with sign(0) := +1, as an int8 array; a (T, rank)
    stack of directions gives a (T, n) array, one row per direction."""
    return _signs(projections(emb, g))


def _signs(proj: np.ndarray) -> np.ndarray:
    """hyperplane_round from the projections <g, v_i>: sign with sign(0) := +1, int8."""
    x = (proj >= 0.0).astype(np.int8)
    x *= 2
    x -= 1  # True -> +1, False -> -1; np.where is ten times slower here
    return x
