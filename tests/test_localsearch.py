from __future__ import annotations

import math

import numpy as np
import pytest

from cutflip.instance import Max2LinInstance, evaluate, gen_random_regular
from cutflip.localsearch import (
    Epsilon,
    analyze_candidates,
    apply_flips,
    best_of,
    default_epsilon,
    rho_window_fraction,
    run_once,
)
from cutflip.numerics import gaussian_band_bounds
from cutflip.oracle import brute_force_opt
from cutflip.rounding import GaussianSample, hyperplane_round, sample_gaussian
from cutflip.sdp import SdpConfig, SdpEmbedding, solve_sdp

from conftest import random_instance


class TestEpsilon:
    def test_d2_c2_value(self):
        eps = default_epsilon(2, 2.0)
        assert eps.value == pytest.approx(1.0 / (4.0 * math.sqrt(math.log(2))), rel=1e-12)
        assert eps.value == pytest.approx(0.3003, abs=2e-4)

    def test_d1_uses_degree_two(self):
        assert default_epsilon(1).value == default_epsilon(2).value

    def test_constant_scaling_exact(self):
        assert default_epsilon(5, 4.0).value == default_epsilon(5, 2.0).value / 2.0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            default_epsilon(0)
        with pytest.raises(ValueError):
            default_epsilon(3, 0.0)


def make_star(margins, center_proj=0.05, weights=None):
    """Star with controlled projections: center 0, one leaf per margin.

    margins[k] = b_(0,k+1) * x_0 * <g, v_(k+1)> once g = e_1 and x_0 = +1.
    """
    d = len(margins)
    weights = weights or [1.0] * d
    edges = [(0, k + 1, 1, weights[k]) for k in range(d)]
    inst = Max2LinInstance.from_edges(d + 1, edges)
    rows = [[center_proj, math.sqrt(1 - center_proj**2)] + [0.0] * d]
    for k, m in enumerate(margins):
        row = [m] + [0.0] * (d + 1)
        row[2 + k] = math.sqrt(1 - m * m)
        rows.append(row)
    emb = SdpEmbedding(np.array(rows))
    g = GaussianSample(g=np.array([1.0] + [0.0] * (d + 1)), seed=None)
    x = hyperplane_round(emb, g)
    return inst, emb, g, x


class TestAnalyze:
    def test_constructed_star_partition(self):
        # margins (-0.2, +0.2, 0.05) with eps 0.1: first neighbor violated,
        # second satisfied, third inside the band (itself a candidate)
        inst, emb, g, x = make_star([-0.2, 0.2, 0.05])
        ana = analyze_candidates(inst, emb, g, x, Epsilon(0.1, 2.0, 3))
        assert 0 in ana.candidates
        assert ana.violated[0].tolist() == [1]
        assert ana.satisfied[0].tolist() == [2]
        assert ana.in_band[0].tolist() == [3]
        assert not ana.flip[0] and ana.local_gain[0] == 0.0

    def test_no_candidates_when_projections_large(self):
        inst, emb, g, x = make_star([-0.5, 0.5], center_proj=0.4)
        ana = analyze_candidates(inst, emb, g, x, Epsilon(0.1, 2.0, 2))
        assert len(ana.candidates) == 0

    def test_majority_violated_star_flips(self):
        # |B| = 3 of 4 unit edges: local gain 2*3 - 4 = 2, flip fires
        inst, emb, g, x = make_star([-0.3, -0.3, -0.3, 0.3])
        ana = analyze_candidates(inst, emb, g, x, Epsilon(0.1, 2.0, 4))
        assert ana.flip[0] and ana.local_gain[0] == pytest.approx(2.0)
        x2, gain = apply_flips(inst, x, ana)
        assert gain >= 2.0 - 1e-12
        assert x2[0] == -x[0]

    def test_boundary_lands_outside_band(self):
        # |<g, v_j>| == eps exactly: the band is open, so j joins B or C
        inst, emb, g, x = make_star([-0.125, 0.125], center_proj=0.0625)
        ana = analyze_candidates(inst, emb, g, x, Epsilon(0.125, 2.0, 2))
        assert ana.violated[0].tolist() == [1]
        assert ana.satisfied[0].tolist() == [2]
        assert ana.in_band[0].tolist() == []

    @pytest.mark.parametrize("seed", range(8))
    def test_partition_covers_neighborhood(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, 25)
        emb, _ = solve_sdp(inst, SdpConfig(max_outer=2, max_inner=50))
        g = sample_gaussian(emb.rank, seed)
        x = hyperplane_round(emb, g)
        ana = analyze_candidates(inst, emb, g, x, default_epsilon(inst.max_degree))
        for i in ana.candidates.tolist():
            nbrs = set(inst.neighbors(i)[0].tolist())
            a = set(ana.in_band[i].tolist())
            b = set(ana.violated[i].tolist())
            c = set(ana.satisfied[i].tolist())
            assert a | b | c == nbrs
            assert not (a & b) and not (a & c) and not (b & c)
            # in-band neighbors are exactly the candidate neighbors
            assert a == nbrs & set(ana.candidates.tolist())


class TestApplyFlips:
    def test_no_flip_no_change(self):
        inst, emb, g, x = make_star([-0.2, 0.2, 0.05])
        ana = analyze_candidates(inst, emb, g, x, Epsilon(0.1, 2.0, 3))
        x2, gain = apply_flips(inst, x, ana)
        assert gain == 0.0 and np.array_equal(x2, x)

    @pytest.mark.parametrize("seed", range(25))
    def test_gain_bounded_below_by_local_gains(self, seed):
        rng = np.random.default_rng(100 + seed)
        inst = random_instance(rng, 30)
        emb, _ = solve_sdp(inst, SdpConfig(max_outer=2, max_inner=50))
        for t in range(4):
            g = sample_gaussian(emb.rank, 37 * seed + t)
            x = hyperplane_round(emb, g)
            ana = analyze_candidates(inst, emb, g, x, default_epsilon(inst.max_degree))
            x2, gain = apply_flips(inst, x, ana)
            bound = sum(
                2.0 * float(inst.neighbors(i)[2][np.isin(inst.neighbors(i)[0], ana.violated[i])].sum())
                - ana.incident_weight[i]
                for i in ana.candidates.tolist()
                if ana.flip[i]
            )
            assert gain >= bound - 1e-9
            assert gain >= -1e-9
            if any(ana.flip.values()):
                assert gain > 0.0
            # non-candidates never move
            outside = np.setdiff1d(np.arange(inst.n), ana.candidates)
            assert np.array_equal(x2[outside], x[outside])


class TestBandOccupancy:
    def test_candidate_fraction_matches_gaussian_band(self):
        # every projection is N(0,1), so E|S|/n = Pr[|g| < eps], bounded
        # two-sidedly by the core-measure inequality
        rng = np.random.default_rng(3)
        n, r = 50, 64
        rows = rng.standard_normal((n, r))
        emb = SdpEmbedding(rows / np.linalg.norm(rows, axis=1, keepdims=True))
        inst = Max2LinInstance.from_edges(n, [(0, 1, -1, 1.0)])
        eps = Epsilon(0.3, 2.0, 2)
        fracs = np.empty(1500)
        for s in range(len(fracs)):
            g = sample_gaussian(r, s)
            proj = emb.vectors @ g.g
            fracs[s] = np.mean(np.abs(proj) < eps.value)
        lower, upper = gaussian_band_bounds(eps.value)
        se = fracs.std(ddof=1) / math.sqrt(len(fracs))
        assert lower - 3 * se <= fracs.mean() <= upper + 3 * se


class TestRunOnce:
    def test_flipped_never_below_rounded(self):
        for seed in range(10):
            inst = gen_random_regular(30, 4, 1.0, "unit", seed=seed)
            sdp = solve_sdp(inst, SdpConfig(max_outer=2, max_inner=60))
            r = run_once(inst, sdp, seed=seed)
            assert r.flipped_value >= r.rounded_value - 1e-12

    def test_single_edge_reaches_opt(self, single_edge):
        emb, rep = solve_sdp(single_edge)
        r = run_once(single_edge, (emb, rep), seed=5)
        assert r.flipped_value == 1.0

    def test_deterministic_report(self, triangle):
        emb, rep = solve_sdp(triangle, SdpConfig(triangle_mode="all"))
        a = run_once(triangle, (emb, rep), seed=3)
        b = run_once(triangle, (emb, rep), seed=3)
        assert a.to_dict() == b.to_dict()

    def test_report_fields(self, triangle):
        emb, rep = solve_sdp(triangle, SdpConfig(triangle_mode="all"))
        r = run_once(triangle, (emb, rep), seed=3)
        assert r.seeds == {"rounding": 3}
        assert 0.0 <= r.rho_window_fraction <= 1.0
        assert r.converged is True
        assert set(r.to_dict()) == {
            "sdp_value", "rounded_value", "flipped_value", "gain", "s_size",
            "flip_count", "rho_window_fraction", "seeds", "converged", "generator",
        }


class TestBestOf:
    def test_single_trial_matches_run_once(self, triangle):
        emb, rep = solve_sdp(triangle, SdpConfig(triangle_mode="all"))
        _, val, reports = best_of(triangle, emb, trials=1, base_seed=9)
        r = run_once(triangle, (emb, rep), seed=9)
        assert val == r.flipped_value
        assert reports[0].rounded_value == r.rounded_value

    def test_prefix_monotone_in_trials(self):
        inst = gen_random_regular(16, 3, 1.0, "unit", seed=4)
        emb, _ = solve_sdp(inst, SdpConfig(max_outer=3, max_inner=80))
        vals = [best_of(inst, emb, trials=t, base_seed=0)[1] for t in (1, 3, 5, 10)]
        assert vals == sorted(vals)

    def test_triangle_reaches_opt(self, triangle):
        emb, _ = solve_sdp(triangle, SdpConfig(triangle_mode="all"))
        bx, bv, _ = best_of(triangle, emb, trials=50, base_seed=0)
        assert bv == brute_force_opt(triangle).opt == evaluate(triangle, bx)

    def test_bad_trials(self, triangle):
        emb, _ = solve_sdp(triangle)
        with pytest.raises(ValueError):
            best_of(triangle, emb, trials=0)


def test_rho_window_fraction_bounds(triangle):
    emb, _ = solve_sdp(triangle, SdpConfig(triangle_mode="all"))
    assert 0.0 <= rho_window_fraction(triangle, emb) <= 1.0
