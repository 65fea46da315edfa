from __future__ import annotations

import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutflip.instance import Max2LinInstance, evaluate, gen_random_regular
import cutflip.localsearch as localsearch_module
from cutflip.localsearch import (
    RunReport,
    analyze_candidates,
    apply_flips,
    best_of,
    default_epsilon,
    rho_window_fraction,
    run_once,
)
from cutflip.numerics import gaussian_band_bounds
from cutflip.oracle import brute_force_opt
from cutflip.rounding import hyperplane_round, projections, sample_gaussian
from cutflip.sdp import SdpConfig, SdpEmbedding, solve_sdp

from conftest import random_instance, traced_peak


class TestEpsilon:
    def test_d2_c2_value(self):
        eps = default_epsilon(2, 2.0)
        assert eps == pytest.approx(1.0 / (4.0 * math.sqrt(math.log(2))), rel=1e-12)
        assert eps == pytest.approx(0.3003, abs=2e-4)

    def test_d1_uses_degree_two(self):
        assert default_epsilon(1) == default_epsilon(2)

    def test_constant_scaling_exact(self):
        assert default_epsilon(5, 4.0) == default_epsilon(5, 2.0) / 2.0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            default_epsilon(0)
        with pytest.raises(ValueError):
            default_epsilon(3, 0.0)
        with pytest.raises(ValueError):
            default_epsilon(3, float("nan"))

    @pytest.mark.parametrize("d, constant, expected", [
        (3, math.inf, "constant must be > 0 and finite"),  # was eps = 0
        (3, 1e-320, "band half-width inf"),  # was eps = inf
        (3, 7e307, "band half-width 0.0"),  # C * 3 overflows; C * 2 does not
    ])
    def test_band_must_be_finite_and_positive(self, d, constant, expected):
        with pytest.raises(ValueError, match=re.escape(expected)):
            default_epsilon(d, constant)

    def test_band_is_checked_at_the_degree(self):
        # the width shrinks with the degree: 7e307 is fine at d' = 2
        assert 0.0 < default_epsilon(1, 7e307) < math.inf


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
    g = np.array([1.0] + [0.0] * (d + 1))
    x = hyperplane_round(emb, g)
    return inst, emb, g, x


def partition(inst, ana, i):
    """(in_band, violated, satisfied) neighbor ids of vertex i, read from ana.part."""
    lo, hi = inst.indptr[i], inst.indptr[i + 1]
    nbrs, code = inst.nbr[lo:hi], ana.part[lo:hi]
    return nbrs[code == 0], nbrs[code == 1], nbrs[code == 2]


def reference_analysis(inst, emb, g, x, eps):
    """The per-candidate loop the vectorized analysis replaced.

    Returns (candidates, {i: (in_band, violated, satisfied, incident weight,
    flip)}).
    """
    proj = emb.vectors @ g
    band = np.abs(proj) < eps
    rows = {}
    for i in np.flatnonzero(band).tolist():
        nbrs, signs, weights = inst.neighbors(i)
        margin = signs * int(x[i]) * proj[nbrs]
        a_mask = band[nbrs]
        b_mask = ~a_mask & (margin <= -eps)
        c_mask = ~a_mask & (margin >= eps)
        w_total = float(weights.sum())
        w_gain = float(weights[b_mask].sum())
        rows[i] = (nbrs[a_mask], nbrs[b_mask], nbrs[c_mask], w_total, w_gain > w_total - w_gain)
    return np.flatnonzero(band), rows


class TestAnalyze:
    def test_constructed_star_partition(self):
        # margins (-0.2, +0.2, 0.05) with eps 0.1: first neighbor violated,
        # second satisfied, third inside the band (itself a candidate)
        inst, emb, g, x = make_star([-0.2, 0.2, 0.05])
        ana = analyze_candidates(inst, emb, g, x, 0.1)
        assert 0 in ana.candidates
        in_band, violated, satisfied = partition(inst, ana, 0)
        assert violated.tolist() == [1]
        assert satisfied.tolist() == [2]
        assert in_band.tolist() == [3]
        assert not ana.flip[0]

    def test_no_candidates_when_projections_large(self):
        inst, emb, g, x = make_star([-0.5, 0.5], center_proj=0.4)
        ana = analyze_candidates(inst, emb, g, x, 0.1)
        assert len(ana.candidates) == 0

    def test_majority_violated_star_flips(self):
        # |B| = 3 of 4 unit edges: local gain 2*3 - 4 = 2, flip fires
        inst, emb, g, x = make_star([-0.3, -0.3, -0.3, 0.3])
        ana = analyze_candidates(inst, emb, g, x, 0.1)
        assert ana.flip[0]
        x2, gain = apply_flips(inst, x, ana)
        assert gain >= 2.0 - 1e-12
        assert x2[0] == -x[0]

    def test_boundary_lands_outside_band(self):
        # |<g, v_j>| == eps exactly: the band is open, so j joins B or C
        inst, emb, g, x = make_star([-0.125, 0.125], center_proj=0.0625)
        ana = analyze_candidates(inst, emb, g, x, 0.125)
        in_band, violated, satisfied = partition(inst, ana, 0)
        assert violated.tolist() == [1]
        assert satisfied.tolist() == [2]
        assert in_band.tolist() == []

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
            a, b, c = (set(part.tolist()) for part in partition(inst, ana, i))
            assert a | b | c == nbrs
            assert not (a & b) and not (a & c) and not (b & c)
            # in-band neighbors are exactly the candidate neighbors
            assert a == nbrs & set(ana.candidates.tolist())

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 24),
        isolated=st.integers(0, 3),
        edgeless=st.booleans(),
        rank=st.integers(2, 6),
        boundary=st.integers(0, 10_000),
    )
    def test_matches_reference_loop(self, seed, n, isolated, edgeless, rank, boundary):
        rng = np.random.default_rng(seed)
        edges = [] if edgeless else list(random_instance(rng, n).edges())
        inst = Max2LinInstance.from_edges(n + isolated, edges)
        rows = rng.standard_normal((inst.n, rank))
        emb = SdpEmbedding(rows / np.linalg.norm(rows, axis=1, keepdims=True))
        g = rng.standard_normal(rank)
        x = hyperplane_round(emb, g)
        # eps equal to one |<g, v_j>| puts j exactly on the open band's edge
        eps = float(np.abs(emb.vectors @ g)[boundary % inst.n])

        ana = analyze_candidates(inst, emb, g, x, eps)
        cands, ref = reference_analysis(inst, emb, g, x, eps)
        assert np.array_equal(ana.candidates, cands)
        for i, (a, b, c, w_total, flip) in ref.items():
            got = partition(inst, ana, i)
            assert [p.tolist() for p in got] == [a.tolist(), b.tolist(), c.tolist()]
            assert ana.incident_weight[i] == w_total
            assert ana.flip[i] == flip
        outside = np.setdiff1d(np.arange(inst.n), cands)
        assert not ana.flip[outside].any()
        assert not ana.incident_weight[outside].any()
        in_rows = np.zeros(len(inst.nbr), dtype=bool)
        for i in cands.tolist():
            in_rows[inst.indptr[i]:inst.indptr[i + 1]] = True
        assert np.all(ana.part[~in_rows] == -1)

        # flip safety
        x2, gain = apply_flips(inst, x, ana)
        assert gain >= 0.0
        assert np.array_equal(x2[outside], x[outside])
        assert gain == evaluate(inst, x2) - evaluate(inst, x)


class TestApplyFlips:
    def test_no_flip_no_change(self):
        inst, emb, g, x = make_star([-0.2, 0.2, 0.05])
        ana = analyze_candidates(inst, emb, g, x, 0.1)
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
                2.0 * float(inst.neighbors(i)[2][
                    np.isin(inst.neighbors(i)[0], partition(inst, ana, i)[1])].sum())
                - ana.incident_weight[i]
                for i in ana.candidates.tolist()
                if ana.flip[i]
            )
            assert gain >= bound - 1e-9
            assert gain >= -1e-9
            if ana.flip.any():
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
        eps = 0.3
        fracs = np.empty(1500)
        for s in range(len(fracs)):
            g = sample_gaussian(r, s)
            proj = emb.vectors @ g
            fracs[s] = np.mean(np.abs(proj) < eps)
        lower, upper = gaussian_band_bounds(eps)
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
        assert r.rounding_seed == 3 and type(r.rounding_seed) is int
        # only per-trial values, named as the experiment CSV's columns
        assert list(r.to_dict()) == [
            "rounding_seed", "rounded_value", "flipped_value", "gain", "s_size", "flip_count",
        ]
        # the dict has asdict's keys, order and values, and is a copy
        d = r.to_dict()
        assert list(d.items()) == list(dataclasses.asdict(r).items())
        d["rounding_seed"] = 4
        assert r.rounding_seed == 3

    def test_reads_only_the_embedding(self, triangle):
        emb, rep = solve_sdp(triangle, SdpConfig(triangle_mode="all"))
        assert run_once(triangle, (emb, None), seed=3) == run_once(triangle, (emb, rep), seed=3)


class TestBestOf:
    def test_single_trial_matches_run_once(self, triangle):
        emb, rep = solve_sdp(triangle, SdpConfig(triangle_mode="all"))
        _, val, reports = best_of(triangle, emb, range(9, 10))
        r = run_once(triangle, (emb, rep), seed=9)
        assert val == r.flipped_value
        assert reports[0].rounded_value == r.rounded_value

    def test_prefix_monotone_in_trials(self):
        inst = gen_random_regular(16, 3, 1.0, "unit", seed=4)
        emb, _ = solve_sdp(inst, SdpConfig(max_outer=3, max_inner=80))
        vals = [best_of(inst, emb, range(t))[1] for t in (1, 3, 5, 10)]
        assert vals == sorted(vals)

    def test_triangle_reaches_opt(self, triangle):
        emb, _ = solve_sdp(triangle, SdpConfig(triangle_mode="all"))
        bx, bv, _ = best_of(triangle, emb, range(50))
        assert bv == brute_force_opt(triangle).opt == evaluate(triangle, bx)

    def test_bad_trials(self, triangle):
        emb, _ = solve_sdp(triangle)
        with pytest.raises(ValueError):
            best_of(triangle, emb, range(0))

    def test_s_size_counts_only_vertices_with_edges(self):
        # vertex 3 has no edge, so in the band it has no neighbourhood to flip on
        inst = Max2LinInstance.from_edges(4, [(0, 1, -1, 1.0), (1, 2, -1, 1.0), (0, 2, 1, 0.5)])
        rows = np.random.default_rng(3).standard_normal((4, 3))
        emb = SdpEmbedding(rows / np.linalg.norm(rows, axis=1, keepdims=True))
        seeds, eps = range(40), 0.5
        _, _, reports = best_of(inst, emb, seeds, eps=eps)
        band = np.abs(projections(emb, np.stack([sample_gaussian(3, s) for s in seeds]))) < eps
        assert band[:, 3].sum() >= 5  # the isolated vertex is in the band on some trials
        assert [r.s_size for r in reports] == band[:, :3].sum(axis=1).tolist()


    def test_trials_shorthand_is_a_seed_range(self, triangle):
        emb, _ = solve_sdp(triangle, SdpConfig(triangle_mode="all"))
        bx, bv, reports = best_of(triangle, emb, trials=6, base_seed=4)
        rx, rv, ref = best_of(triangle, emb, range(4, 10))
        assert bv == rv and np.array_equal(bx, rx)
        assert [r.to_dict() for r in reports] == [r.to_dict() for r in ref]
        with pytest.raises(TypeError):
            best_of(triangle, emb, range(3), trials=3)


def reference_best_of(inst, emb, seeds, eps):
    """The per-trial loop the chunked best_of replaced, one seed at a time."""
    best_x, best_val, reports = None, -math.inf, []
    for seed in seeds:
        g = sample_gaussian(emb.rank, seed)
        x = hyperplane_round(emb, g)
        rounded = evaluate(inst, x)
        analysis = analyze_candidates(inst, emb, g, x, eps)
        x_flip, gain = apply_flips(inst, x, analysis)
        flipped = rounded + gain
        reports.append(RunReport(
            rounding_seed=seed, rounded_value=rounded, flipped_value=flipped, gain=gain,
            s_size=int(np.count_nonzero(np.diff(inst.indptr)[analysis.candidates])),
            flip_count=int(np.count_nonzero(analysis.flip)),
        ))
        if flipped > best_val:
            best_val, best_x = flipped, x_flip
    return best_x, float(best_val), reports


@st.composite
def weighted_problems(draw):
    """(instance, embedding): a random signed graph with U(0.3, 2) weights,
    whose sums round differently in different orders, and random unit rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 14))
    p = draw(st.floats(0.1, 0.9))
    edges = [(i, j, int(rng.choice([-1, 1])), float(rng.uniform(0.3, 2.0)))
             for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    inst = Max2LinInstance.from_edges(n, edges)
    rows = rng.standard_normal((n, draw(st.integers(1, 6))))
    return inst, SdpEmbedding(rows / np.linalg.norm(rows, axis=1, keepdims=True))


class TestChunkedTrials:
    @settings(max_examples=60, deadline=None)
    @given(
        problem=weighted_problems(),
        chunk=st.integers(1, 5),
        length=st.sampled_from(["one", "chunk-1", "chunk", "chunk+1", "several"]),
        first=st.integers(0, 2**40),
        stride=st.integers(1, 2**20),
    )
    def test_matches_per_trial_loop(self, problem, chunk, length, first, stride):
        inst, emb = problem
        count = {"one": 1, "chunk-1": max(chunk - 1, 1), "chunk": chunk,
                 "chunk+1": chunk + 1, "several": 3 * chunk + 2}[length]
        seeds = [first + k * stride + k * k for k in range(count)]  # not contiguous
        eps = default_epsilon(max(inst.max_degree, 1))
        budget = chunk * max(inst.n, inst.m)
        with mock.patch.object(localsearch_module, "_CHUNK_ELEMENTS", budget):
            bx, bv, reports = best_of(inst, emb, seeds)
        rx, rv, ref = reference_best_of(inst, emb, seeds, eps)
        assert [r.to_dict() for r in reports] == [r.to_dict() for r in ref]
        assert bv == rv
        assert np.array_equal(bx, rx) and bx.dtype == rx.dtype

    @settings(max_examples=40, deadline=None)
    @given(problem=weighted_problems(), trials=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_layer_rows_match_single_calls(self, problem, trials, seed):
        inst, emb = problem
        eps = default_epsilon(max(inst.max_degree, 1))
        g = np.stack([sample_gaussian(emb.rank, seed + t) for t in range(trials)])
        x = hyperplane_round(emb, g)
        rounded = evaluate(inst, x)
        ana = analyze_candidates(inst, emb, g, x, eps)
        x_flip, gain = apply_flips(inst, x, ana, rounded)
        assert x.shape == (trials, inst.n) and x.dtype == np.int8
        assert rounded.shape == gain.shape == (trials,)
        assert ana.part.shape == (trials, len(inst.nbr))
        assert np.array_equal(x_flip, apply_flips(inst, x, ana)[0])
        for t in range(trials):
            x1 = hyperplane_round(emb, g[t])
            ana1 = analyze_candidates(inst, emb, g[t], x1, eps)
            assert np.array_equal(x[t], x1)
            assert rounded[t] == evaluate(inst, x1)
            in_trial = ana.candidates // inst.n == t
            assert np.array_equal(ana.candidates[in_trial] - t * inst.n, ana1.candidates)
            for field in ("flip", "incident_weight", "part"):
                assert np.array_equal(getattr(ana, field)[t], getattr(ana1, field))
            x1_flip, gain1 = apply_flips(inst, x1, ana1)
            assert np.array_equal(x_flip[t], x1_flip) and gain[t] == gain1

    def test_single_calls_keep_their_types(self):
        inst = random_instance(np.random.default_rng(5), 12)
        rows = np.random.default_rng(6).standard_normal((inst.n, 4))
        emb = SdpEmbedding(rows / np.linalg.norm(rows, axis=1, keepdims=True))
        g = sample_gaussian(emb.rank, 11)
        x = hyperplane_round(emb, g)
        assert x.shape == (inst.n,) and x.dtype == np.int8
        assert np.array_equal(x, np.where(emb.vectors @ g >= 0.0, 1, -1))
        value = evaluate(inst, x)
        prod = x[inst.edge_i].astype(np.int32) * x[inst.edge_j]
        assert type(value) is float and value == float(inst.weight[prod == inst.sign].sum())
        ana = analyze_candidates(inst, emb, g, x, 0.5)
        assert np.array_equal(ana.candidates, np.flatnonzero(np.abs(emb.vectors @ g) < 0.5))
        assert ana.candidates.dtype == np.intp
        assert ana.flip.shape == ana.incident_weight.shape == (inst.n,)
        assert (ana.flip.dtype, ana.incident_weight.dtype) == (np.bool_, np.float64)
        assert ana.part.shape == (len(inst.nbr),) and ana.part.dtype == np.int8
        x2, gain = apply_flips(inst, x, ana)
        assert x2.shape == (inst.n,) and x2.dtype == np.int8
        assert type(gain) is float and gain == evaluate(inst, x2) - value

    def test_shape_mismatches_refused(self):
        inst = random_instance(np.random.default_rng(5), 12)
        rows = np.random.default_rng(6).standard_normal((inst.n, 4))
        emb = SdpEmbedding(rows / np.linalg.norm(rows, axis=1, keepdims=True))
        g = np.stack([sample_gaussian(4, s) for s in range(3)])
        x = hyperplane_round(emb, g)
        with pytest.raises(ValueError, match="direction"):
            hyperplane_round(emb, g[:, :3])
        with pytest.raises(ValueError, match="assignment"):
            analyze_candidates(inst, emb, g, x[0], 0.3)
        ana = analyze_candidates(inst, emb, g, x, 0.3)
        with pytest.raises(ValueError, match="analysis"):
            apply_flips(inst, x[0], ana)
        with pytest.raises(ValueError, match="-1 or \\+1"):
            evaluate(inst, np.zeros_like(x))

    def test_memory_bounded_at_n2000(self):
        # 400 trials at n=2000, d=4 in 16-trial chunks peak near 3 MB; one
        # stack of all 400 would take tens of MB
        inst = gen_random_regular(2000, 4, 1.0, "unit", seed=1)
        rows = np.random.default_rng(2).standard_normal((inst.n, 24))
        emb = SdpEmbedding(rows / np.linalg.norm(rows, axis=1, keepdims=True))
        _, peak = traced_peak(lambda: best_of(inst, emb, range(400)))
        assert peak < 5e6


def test_rho_window_fraction_bounds(triangle):
    emb, _ = solve_sdp(triangle, SdpConfig(triangle_mode="all"))
    assert 0.0 <= rho_window_fraction(triangle, emb) <= 1.0
