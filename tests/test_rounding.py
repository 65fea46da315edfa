from __future__ import annotations

import math
import re

import numpy as np
import pytest

from cutflip.instance import evaluate, gen_random_regular
from cutflip.localsearch import best_of
from cutflip.numerics import alpha_gw
from cutflip.rounding import GENERATOR_NAME, SEED_LIMIT, hyperplane_round, sample_gaussian
from cutflip.sdp import SdpConfig, SdpEmbedding, solve_sdp


def edge_embedding(rho: float) -> SdpEmbedding:
    """Two unit vectors with inner product rho."""
    return SdpEmbedding(np.array([[1.0, 0.0], [rho, math.sqrt(1 - rho * rho)]]))


def test_determinism():
    a = sample_gaussian(16, seed=99)
    b = sample_gaussian(16, seed=99)
    assert np.array_equal(a, b)
    assert a.dtype == np.float64 and not a.flags.writeable
    assert GENERATOR_NAME == "philox4x64-ziggurat"


def test_bad_dimension():
    with pytest.raises(ValueError):
        sample_gaussian(0, seed=1)


def test_seed_is_a_philox_key():
    # numpy's own refusal read "key must be positive and less than 2**128"
    assert sample_gaussian(2, SEED_LIMIT - 1).shape == (2,)
    for seed in (SEED_LIMIT, -1):
        with pytest.raises(ValueError, match=re.escape(f"[0, 2**128), got {seed}")):
            sample_gaussian(2, seed)


def test_marginal_mean_and_variance():
    # first coordinate across independent seeds is standard normal
    vals = np.array([sample_gaussian(2, seed=s)[0] for s in range(50_000)])
    assert abs(vals.mean()) < 0.01
    assert abs(vals.var() - 1.0) < 0.02


def test_equal_vectors_round_together():
    emb = SdpEmbedding(np.array([[0.6, 0.8], [0.6, 0.8]]))
    for seed in range(50):
        x = hyperplane_round(emb, sample_gaussian(2, seed))
        assert x[0] == x[1]


def test_antipodal_vectors_round_opposite():
    emb = edge_embedding(-1.0)
    for seed in range(50):
        g = sample_gaussian(2, seed)
        if abs(g @ emb.vectors[0]) > 1e-12:
            x = hyperplane_round(emb, g)
            assert x[0] == -x[1]


def test_sign_zero_convention():
    emb = SdpEmbedding(np.array([[1.0, 0.0], [0.0, 1.0]]))
    x = hyperplane_round(emb, np.array([0.0, 1.0]))
    assert x[0] == 1  # <g, v_0> = 0 rounds to +1


def test_negating_g_flips_assignment():
    emb = edge_embedding(0.3)
    g = sample_gaussian(2, seed=7)
    if np.all(np.abs(emb.vectors @ g) > 1e-12):
        assert np.array_equal(hyperplane_round(emb, -g), -hyperplane_round(emb, g))


def test_dimension_mismatch():
    emb = edge_embedding(0.0)
    with pytest.raises(ValueError):
        hyperplane_round(emb, np.zeros(3))


@pytest.mark.parametrize("rho,b", [(0.0, 1), (0.5, 1), (-0.6, -1)])
def test_edge_satisfaction_matches_arcsin_law(rho, b):
    # fraction of seeds satisfying the edge tends to 1/2 + arcsin(b*rho)/pi
    emb = edge_embedding(rho)
    seeds = 100_000
    hits = 0
    for s in range(seeds):
        x = hyperplane_round(emb, sample_gaussian(2, s))
        hits += int(x[0] * x[1] == b)
    expected = 0.5 + math.asin(b * rho) / math.pi
    assert abs(hits / seeds - expected) < 0.01


def test_expected_value_beats_gw_factor():
    # E[rounded value] >= alpha_gw * SDP objective holds per edge for every
    # correlation; checked at 3 Monte-Carlo sigmas on a random instance
    inst = gen_random_regular(20, 3, 1.0, "unit", seed=21)
    emb, rep = solve_sdp(inst)
    vals = np.empty(2000)
    for s in range(len(vals)):
        vals[s] = evaluate(inst, hyperplane_round(emb, sample_gaussian(emb.rank, s)))
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert vals.mean() >= alpha_gw() * rep.objective - 3 * se


@pytest.mark.parametrize("n", [20, 200, 2000])
@pytest.mark.parametrize("sign_bias, weights", [(1.0, "unit"), (0.5, ("uniform", 0.3, 2.0))])
def test_stacked_trials_have_the_expected_rounded_value(n, sign_bias, weights):
    # hyperplane rounding satisfies edge e with probability
    # 1 - arccos(b_e <v_i, v_j>)/pi (Goemans-Williamson), so the mean rounded
    # value of best_of's stacked trials estimates the weighted sum of those
    # probabilities; checked at 4 standard errors, with fixed seeds
    inst = gen_random_regular(n, 4, sign_bias, weights, seed=n)
    emb, _ = solve_sdp(inst, SdpConfig(triangle_mode="none", seed=1))
    v = emb.vectors
    rho = np.clip(inst.sign * np.einsum("ij,ij->i", v[inst.edge_i], v[inst.edge_j]), -1.0, 1.0)
    expected = float(inst.weight @ (1.0 - np.arccos(rho) / math.pi))
    _, _, reports = best_of(inst, emb, trials=400, base_seed=n)
    vals = np.array([r.rounded_value for r in reports])
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert se > 0.0
    assert abs(vals.mean() - expected) <= 4.0 * se
