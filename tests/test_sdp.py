from __future__ import annotations

import math

import numpy as np
import pytest

from cutflip.instance import Max2LinInstance, parse_instance
from cutflip.oracle import brute_force_opt
from cutflip.sdp import (
    SdpConfig,
    SdpEmbedding,
    default_rank,
    enumerate_triples,
    max_triangle_violation,
    sdp_objective,
    solve_sdp,
    triangle_violation,
)

from conftest import random_instance


def planar_120_embedding() -> SdpEmbedding:
    s = math.sqrt(3) / 2
    return SdpEmbedding(np.array([[1.0, 0.0], [-0.5, s], [-0.5, -s]]))


class TestObjective:
    def test_identical_vectors_positive_edge(self):
        inst = Max2LinInstance.from_edges(2, [(0, 1, 1, 3.0)])
        emb = SdpEmbedding(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert sdp_objective(inst, emb) == 3.0

    def test_orthogonal_vectors_negative_edge(self):
        inst = Max2LinInstance.from_edges(2, [(0, 1, -1, 1.0)])
        emb = SdpEmbedding(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert sdp_objective(inst, emb) == 0.5

    def test_antipodal_vectors_positive_edge(self):
        inst = Max2LinInstance.from_edges(2, [(0, 1, 1, 1.0)])
        emb = SdpEmbedding(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert sdp_objective(inst, emb) == 0.0

    def test_dimension_mismatch(self, triangle):
        emb = SdpEmbedding(np.eye(2))
        with pytest.raises(ValueError):
            sdp_objective(triangle, emb)


class TestTriples:
    def test_triangle_all(self, triangle):
        assert enumerate_triples(triangle, "all").tolist() == [[0, 1, 2]]

    def test_star_neighborhood(self):
        star = Max2LinInstance.from_edges(4, [(0, 1, 1, 1.0), (0, 2, 1, 1.0), (0, 3, 1, 1.0)])
        assert enumerate_triples(star, "neighborhood").tolist() == [[0, 1, 2], [0, 1, 3], [0, 2, 3]]

    def test_path_neighborhood(self):
        path = Max2LinInstance.from_edges(3, [(0, 1, 1, 1.0), (1, 2, 1, 1.0)])
        assert enumerate_triples(path, "neighborhood").tolist() == [[0, 1, 2]]

    def test_all_counts(self):
        inst = random_instance(np.random.default_rng(0), 7)
        assert len(enumerate_triples(inst, "all")) == math.comb(7, 3)

    def test_all_refused_above_cap(self):
        # C(1000, 3) ~ 1.66e8 triples; refused before anything is allocated
        inst = Max2LinInstance.from_edges(1000, [])
        with pytest.raises(ValueError, match="refused"):
            enumerate_triples(inst, "all")

    def test_bad_mode(self, triangle):
        with pytest.raises(ValueError):
            enumerate_triples(triangle, "none")


class TestTriangleViolation:
    def test_orthonormal_never_violates(self):
        emb = SdpEmbedding(np.eye(3))
        for pattern in [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (1, 1, -1)]:
            assert triangle_violation(emb, (0, 1, 2), pattern) == 0.0

    def test_planar_120_all_plus(self):
        assert triangle_violation(planar_120_embedding(), (0, 1, 2), (1, 1, 1)) == 0.0

    def test_planar_120_mixed_pattern_violates(self):
        # inner-product form: 1 + r01 + r12 + r02 = -0.5, so the norm-form
        # violation is 1.0; this is the constraint that bites on K3
        v = triangle_violation(planar_120_embedding(), (0, 1, 2), (1, -1, 1))
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_bad_pattern(self):
        with pytest.raises(ValueError):
            triangle_violation(planar_120_embedding(), (0, 1, 2), (1, 0, 1))

    def test_integral_embeddings_always_feasible(self):
        # +-1 rank-1 points satisfy every signed triangle inequality exactly
        rng = np.random.default_rng(5)
        inst = random_instance(rng, 12)
        triples = enumerate_triples(inst, "all")
        for _ in range(100):
            x = rng.choice([-1.0, 1.0], size=12)
            emb = SdpEmbedding(x[:, None])
            assert max_triangle_violation(emb, triples) == 0.0


class TestSolveAnchors:
    def test_single_cut_edge(self, single_edge):
        emb, rep = solve_sdp(single_edge)
        assert abs(rep.objective - 1.0) <= 1e-6
        assert rep.converged

    def test_single_equality_edge(self):
        inst = parse_instance("2 1\n0 1 1 1.0")
        _, rep = solve_sdp(inst)
        assert abs(rep.objective - 1.0) <= 1e-6

    def test_triangle_mode_none(self, triangle):
        # unconstrained optimum is the planar 120-degree embedding:
        # sum of pairwise cosines of any 3 unit vectors is >= -3/2 because
        # ||v1+v2+v3||^2 >= 0, so the objective is at most 3/2 + 3/4 = 2.25
        emb, rep = solve_sdp(triangle, SdpConfig(triangle_mode="none"))
        assert abs(rep.objective - 2.25) <= 1e-4
        assert rep.converged and rep.max_violation == 0.0
        r = emb.vectors @ emb.vectors.T
        assert np.allclose(r[np.triu_indices(3, 1)], -0.5, atol=1e-3)

    def test_triangle_mode_all(self, triangle):
        # the sign class (1,-1,1) forces r01 + r12 + r02 >= -1, capping the
        # objective at 2; the integral assignment (+,+,-) attains 2 and is
        # feasible, so the constrained optimum is exactly 2
        emb, rep = solve_sdp(triangle, SdpConfig(triangle_mode="all"))
        assert abs(rep.objective - 2.0) <= 1e-4
        assert rep.converged
        assert rep.max_violation <= 1e-6

    def test_empty_instance(self):
        inst = Max2LinInstance.from_edges(3, [])
        _, rep = solve_sdp(inst)
        assert rep.objective == 0.0 and rep.converged


class TestSolveProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_relaxation_dominance(self, seed):
        inst = random_instance(np.random.default_rng(seed), 12)
        _, rep = solve_sdp(inst)
        opt = brute_force_opt(inst).opt
        assert rep.objective >= opt - 1e-4

    def test_unit_rows(self):
        inst = random_instance(np.random.default_rng(9), 15)
        emb, _ = solve_sdp(inst)
        norms = np.linalg.norm(emb.vectors, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-8
        emb.validate()

    def test_monotone_and_bounded(self):
        inst = random_instance(np.random.default_rng(10), 15)
        _, rep = solve_sdp(inst)
        assert rep.monotone
        for obj in rep.objective_history:
            assert -1e-9 <= obj <= inst.total_weight + 1e-6

    def test_converged_run_meets_constraint_tol(self):
        inst = random_instance(np.random.default_rng(11), 10)
        cfg = SdpConfig(triangle_mode="all")
        emb, rep = solve_sdp(inst, cfg)
        if rep.converged:
            triples = enumerate_triples(inst, "all")
            assert max_triangle_violation(emb, triples) <= cfg.constraint_tol

    def test_determinism(self):
        inst = random_instance(np.random.default_rng(12), 14)
        emb1, rep1 = solve_sdp(inst)
        emb2, rep2 = solve_sdp(inst)
        assert np.array_equal(emb1.vectors, emb2.vectors)
        assert rep1.objective == rep2.objective

    def test_budget_exhaustion_is_soft(self):
        inst = random_instance(np.random.default_rng(13), 16)
        emb, rep = solve_sdp(inst, SdpConfig(max_outer=1, max_inner=5))
        assert not rep.converged
        emb.validate()  # best iterate still a valid embedding

    def test_rank_default_and_bounds(self):
        assert default_rank(3) == 3
        assert default_rank(50) == 11
        inst = random_instance(np.random.default_rng(14), 6)
        with pytest.raises(ValueError):
            solve_sdp(inst, SdpConfig(rank=7))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SdpConfig(triangle_mode="some")
        with pytest.raises(ValueError):
            SdpConfig(objective_tol=0.0)
        with pytest.raises(ValueError):
            SdpConfig(penalty_growth=1.0)

