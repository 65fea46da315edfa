from __future__ import annotations

import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from cutflip.instance import Max2LinInstance, gen_random_regular, parse_instance
from cutflip.oracle import brute_force_opt
from cutflip import certify
from cutflip.certify import _certified_shift
import cutflip.sdp as sdp_module
from cutflip.sdp import (
    _PATTERNS,
    _RANK_START,
    SdpConfig,
    SdpEmbedding,
    _LBFGS_MEMORY,
    _LS_FTOL,
    _ActiveSet,
    _InverseHessian,
    _lbfgs,
    _matrix,
    _normalize_rows,
    _product,
    _rowdot,
    _signed_adjacency,
    check_solvable,
    default_rank,
    enumerate_triples,
    max_triangle_violation,
    sdp_objective,
    solve_sdp,
)

from conftest import also_at, no_factorization, random_instance, simple_graphs, traced_peak


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

    @staticmethod
    def neighborhood_reference(inst: Max2LinInstance) -> np.ndarray:
        """The set-based loop enumerate_triples(mode="neighborhood") replaced."""
        seen = set()
        for center in range(inst.n):
            nbrs = inst.neighbors(center)[0]
            for a, b in itertools.combinations(sorted(nbrs.tolist()), 2):
                seen.add(tuple(sorted((center, a, b))))
        if not seen:
            return np.empty((0, 3), dtype=np.int64)
        return np.array(sorted(seen), dtype=np.int64)

    @given(graph=simple_graphs())
    @example(graph=(5, []))  # edgeless
    @example(graph=(7, [(2, 1), (1, 0), (3, 1)]))  # a star; 4, 5, 6 isolated
    @settings(max_examples=150, deadline=None)
    def test_neighborhood_matches_set_loop(self, graph):
        n, edges = graph
        inst = Max2LinInstance.from_edges(n, [(i, j, 1, 1.0) for i, j in edges])
        got = enumerate_triples(inst, "neighborhood")
        want = self.neighborhood_reference(inst)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)


class TestTriangleViolation:
    def test_orthonormal_never_violates(self):
        # every sign class has 1 + e1 r01 + e2 r12 + e3 r02 = 1
        emb = SdpEmbedding(np.eye(3))
        assert max_triangle_violation(emb, np.array([[0, 1, 2]])) == 0.0

    def test_planar_120_mixed_pattern_violates(self):
        # inner-product form: 1 + r01 + r12 + r02 = -0.5, so the norm-form
        # violation is 1.0; this is the constraint that bites on K3 (the
        # other three sign classes give 1 + 0.5 = 1.5 > 0)
        v = max_triangle_violation(planar_120_embedding(), np.array([[0, 1, 2]]))
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_integral_embeddings_always_feasible(self):
        # +-1 rank-1 points satisfy every signed triangle inequality exactly
        rng = np.random.default_rng(5)
        inst = random_instance(rng, 12)
        triples = enumerate_triples(inst, "all")
        for _ in range(100):
            x = rng.choice([-1.0, 1.0], size=12)
            emb = SdpEmbedding(x[:, None])
            assert max_triangle_violation(emb, triples) == 0.0

    def test_scan_memory_is_bounded_per_block(self, monkeypatch):
        # 280840 triples at rank 25: each block gathers _SCAN_BLOCK float64
        # per (triples, rank) array, whatever the family's size
        inst = Max2LinInstance.from_edges(120, [(0, 1, -1, 1.0)])
        triples = enumerate_triples(inst, "all")
        rows = np.random.default_rng(3).standard_normal((inst.n, 25))
        emb = SdpEmbedding(rows / np.linalg.norm(rows, axis=1, keepdims=True))
        got, peak = traced_peak(lambda: max_triangle_violation(emb, triples))
        assert peak <= 3 * 8 * sdp_module._SCAN_BLOCK  # three gathered arrays
        monkeypatch.setattr(sdp_module, "_SCAN_BLOCK", 25 * len(triples))  # one block
        assert got == max_triangle_violation(emb, triples) > 0.0


# the block Cholesky's Schur-complement updates inside whole solves, with
# blocks of one row
in_one_row_blocks = also_at(certify, {"_CHOLESKY_BLOCK": 1})
# small graphs take the dense constraint layer at the default, CSR at 0
on_both_layers = also_at(sdp_module, {"_DENSE_LAYER_MAX_N": 0})


def bits(*values):
    """Each value's float64 bit patterns, as lists of int64."""
    return [np.asarray(x, dtype=np.float64).view(np.int64).tolist() for x in values]


def adjacency(inst: Max2LinInstance):
    """The signed adjacency A in vertex order, dense or CSR as the cut-off picks."""
    return _signed_adjacency(inst, np.arange(inst.n))[0]


def as_array(matrix) -> np.ndarray:
    """A, the layer's K, or a multiple of either, as an n x n array, dense or CSR."""
    return matrix if isinstance(matrix, np.ndarray) else matrix.toarray()


def coo_pair_matrix(active: _ActiveSet, f: np.ndarray) -> sp.csr_matrix:
    """M(f), M_ij = M_ji = sum of f_t e_t over the constraints reading r_ij,
    by the per-evaluation COO -> CSR build the fixed-pattern layer replaced."""
    n, idx, fe = active.inst.n, active.idx, f[:, None] * active.pattern
    rows = np.concatenate([idx[:, 0], idx[:, 0], idx[:, 1], idx[:, 1], idx[:, 2], idx[:, 2]])
    cols = np.concatenate([idx[:, 1], idx[:, 2], idx[:, 0], idx[:, 2], idx[:, 1], idx[:, 0]])
    dat = np.concatenate([fe[:, 0], fe[:, 2], fe[:, 0], fe[:, 1], fe[:, 1], fe[:, 2]])
    return sp.csr_matrix((dat, (rows, cols)), shape=(n, n))


def coo_penalty_reference(active: _ActiveSet, v: np.ndarray, mu: float):
    """tr(V^T A V)/4 plus the penalty, and its gradient (A/2) V + M(f) V,
    with M(f) built from COO triplets as before the layer was fused."""
    idx, e = active.idx, active.pattern
    r = [np.einsum("ij,ij->i", v[idx[:, a]], v[idx[:, b]]) for a, b in ((0, 1), (1, 2), (0, 2))]
    c = 1.0 + e[:, 0] * r[0] + e[:, 1] * r[1] + e[:, 2] * r[2]
    q = np.maximum(0.0, active.lam / mu - c)
    f = mu * q
    a_v = 0.5 * (adjacency(active.inst) @ v)
    val = 0.5 * float(np.sum(v * a_v)) - 0.5 * mu * float(q @ q)
    return val, a_v + coo_pair_matrix(active, f) @ v, f


class TestMatrixConstructor:
    """_matrix, the one builder of both solvers' matrices, at both cut-offs:
    dense (n <= 26 by default) and CSR (a cut-off of 0)."""

    @given(graph=simple_graphs(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_forms_match_scipy_and_hand_certify_the_same(self, graph, seed):
        n, edges = graph
        rng = np.random.default_rng(seed)
        inst = Max2LinInstance.from_edges(
            n, [(i, j, int(rng.choice([-1, 1])), float(rng.uniform(0.3, 2.0))) for i, j in edges])
        order = rng.permutation(n)
        # the reference: scipy's fancy indexing of the sorted A, as the
        # mixing method once permuted it into colour order
        ref = sp.csr_matrix((inst.nbr_sign * inst.nbr_weight, inst.nbr, inst.indptr), shape=(n, n))
        ref.sort_indices()
        ref = ref[order][:, order]
        ref_entries = (np.repeat(np.arange(n), np.diff(ref.indptr)), ref.indices, ref.data)
        u = _normalize_rows(rng.standard_normal((n, 3)))
        y = _rowdot(ref @ u, u)
        w_tot = inst.total_weight
        v = rng.standard_normal((n, 2))
        triples = enumerate_triples(inst, "all") if n >= 3 else np.empty((0, 3), dtype=np.int64)
        picks = rng.integers(max(len(triples), 1), size=3 * n), rng.integers(len(_PATTERNS), size=3 * n)
        lam = rng.uniform(0.0, 2.0, 3 * n) * (rng.random(3 * n) < 0.5)
        handed = []
        for cutoff in (sdp_module._DENSE_LAYER_MAX_N, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sdp_module, "_DENSE_LAYER_MAX_N", cutoff)
                adj, entries = _signed_adjacency(inst, order)
                mixing = (*entries, certify.upper_bound(entries, y, w_tot, w_tot / 2),
                          certify.first_shift_bound(entries, y, w_tot, w_tot / 2) or 0.0)
                alm = ()
                if len(triples):
                    layer = _ActiveSet(triples, inst)
                    layer.add(*picks)
                    layer_entries, layer_y = layer.dual(lam[: len(layer)], v)
                    alm = (*layer_entries, layer_y,
                           certify.upper_bound(layer_entries, layer_y, w_tot, w_tot / 2, float(np.sum(lam))))
            assert bits(*entries) == bits(*ref_entries)
            if cutoff:
                assert isinstance(adj, np.ndarray)
                assert bits(adj) == bits(ref.toarray())
            else:
                assert bits(adj.indptr, adj.indices, adj.data) == bits(ref.indptr, ref.indices, ref.data)
            handed.append(bits(*mixing, *alm))
        assert handed[0] == handed[1]

    def test_values_view_and_places(self, monkeypatch):
        # the flat view writes through to the matrix at each entry's place
        rows, cols, values = np.array([0, 0, 2]), np.array([2, 1, 0]), np.array([1.5, -2.0, 0.0])
        for cutoff in (sdp_module._DENSE_LAYER_MAX_N, 0):
            monkeypatch.setattr(sdp_module, "_DENSE_LAYER_MAX_N", cutoff)
            matrix, flat, place = _matrix(3, rows, cols, values)
            assert bits(flat[place]) == bits(values)
            flat[place] = [4.0, 5.0, 6.0]
            assert as_array(matrix)[rows, cols].tolist() == [4.0, 5.0, 6.0]
            assert as_array(matrix).sum() == 15.0


class TestConstraintLayer:
    """_ActiveSet.augmented: the fused constraint layer of the ALM, one
    matrix K = A/2 + M(f) over A's pattern and the active pairs. Every test
    runs on the dense layer, then on the CSR layer."""

    @staticmethod
    def grown_active_set(seed: int):
        """An active set over a random 14-vertex graph, built by two adds, and
        its pair count after the first."""
        inst = gen_random_regular(14, 4, 0.5, ("uniform", 0.3, 2.0), seed=seed)
        triples = enumerate_triples(inst, "neighborhood")
        rng = np.random.default_rng(seed)
        t_idx = rng.integers(len(triples), size=60)
        p_idx = rng.integers(len(_PATTERNS), size=60)
        active = _ActiveSet(triples, inst)
        active.add(t_idx[:20], p_idx[:20])
        first_pairs = len(active.pair_i)
        active.add(t_idx[20:], p_idx[20:])
        return inst, active, first_pairs, rng

    @staticmethod
    def set_multipliers(active: _ActiveSet, rng: np.random.Generator) -> None:
        # half the constraints keep lam = 0, so any with c > 0 get f = 0
        active.lam = rng.uniform(0.0, 2.0, len(active)) * (rng.random(len(active)) < 0.5)

    def assert_matches_reference(self, active, v, mu):
        val, grad = active.augmented(v, mu)
        ref_val, ref_grad, f = coo_penalty_reference(active, v, mu)
        assert val == pytest.approx(ref_val, rel=1e-12, abs=0.0)
        assert np.linalg.norm(grad - ref_grad) <= 1e-12 * np.linalg.norm(ref_grad)
        return f

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @on_both_layers
    def test_matches_coo_build(self, seed):
        inst, active, first_pairs, rng = self.grown_active_set(seed)
        # the second add grew the pattern, and constraints share pairs
        assert len(active.pair_i) > first_pairs
        assert np.bincount(active.slot.ravel()).max() > 1
        self.set_multipliers(active, rng)
        for mu in (0.3, 4.0):
            v = rng.standard_normal((inst.n, 4))
            f = self.assert_matches_reference(active, v, mu)
            assert np.any(f == 0.0) and np.any(f > 0.0)

    @on_both_layers
    def test_matches_coo_build_before_and_after_add(self):
        inst, active, _, rng = self.grown_active_set(3)
        v = rng.standard_normal((inst.n, 3))
        self.set_multipliers(active, rng)
        self.assert_matches_reference(active, v, 2.0)
        before = len(active.pair_i)
        # all four sign classes of every triple: the pattern grows again
        t_all = np.repeat(np.arange(len(active.triples)), len(_PATTERNS))
        p_all = np.tile(np.arange(len(_PATTERNS)), len(active.triples))
        added = active.add(t_all, p_all)
        assert added > 0 and len(active.pair_i) > before
        active.lam = np.concatenate([active.lam[:-added], np.zeros(added)])
        self.assert_matches_reference(active, v, 2.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @on_both_layers
    def test_matrix_is_half_adjacency_plus_pair_matrix(self, seed):
        inst, active, _, rng = self.grown_active_set(seed)
        adj = as_array(adjacency(inst))
        # the active pairs include edges, whose entry K shares with A, and
        # non-edges, which A does not have
        on_edge = adj[active.pair_i, active.pair_j] != 0.0
        assert np.any(on_edge) and not np.all(on_edge)
        f = rng.uniform(-1.0, 2.0, len(active))
        active.refill(f, active.pattern.ravel())
        want = 0.5 * adj + coo_pair_matrix(active, f).toarray()
        got = as_array(active.matrix)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # K's entries hold A's and both mirrors of every pair, and their
        # places hold K's values
        dense = np.zeros((inst.n, inst.n))
        dense[active.rows, active.cols] = 1.0
        assert np.array_equal(got[active.rows, active.cols], active._values[active._place])
        assert np.all(dense[adj != 0.0] == 1.0)
        assert np.all(dense[active.pair_i, active.pair_j] == 1.0)
        assert np.all(dense[active.pair_j, active.pair_i] == 1.0)

    @pytest.mark.parametrize("seed", [0, 1])
    @on_both_layers
    def test_certificate_matrix_is_twice_k(self, seed):
        # the certificate's A' = A + 2 sum_t lam_t e_t is 2 K(lam)
        inst, active, _, rng = self.grown_active_set(seed)
        lam = rng.uniform(0.0, 2.0, len(active)) * (rng.random(len(active)) < 0.5)
        (rows, cols, values), _ = active.dual(lam, rng.standard_normal((inst.n, 3)))
        got = np.zeros((inst.n, inst.n))
        got[rows, cols] = values
        assert np.array_equal(got, as_array(2.0 * active.matrix))
        want = as_array(adjacency(inst)) + 2.0 * coo_pair_matrix(active, lam).toarray()
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("seed", [0, 1])
    @on_both_layers
    def test_gradient_matches_central_differences(self, seed):
        # augmented value W/2 + tr(V^T A V)/4 + penalty, at an arbitrary
        # (not unit-row) V, along random directions
        inst, active, _, rng = self.grown_active_set(seed)
        self.set_multipliers(active, rng)
        mu = 1.5

        def augmented(v):
            val, grad = active.augmented(v, mu)
            return 0.5 * inst.total_weight + val, grad

        v = rng.standard_normal((inst.n, 4))
        grad = augmented(v)[1]
        h = 1e-6
        for _ in range(5):
            d = rng.standard_normal(v.shape)
            fd = (augmented(v + h * d)[0] - augmented(v - h * d)[0]) / (2 * h)
            assert fd == pytest.approx(float(np.sum(grad * d)), rel=1e-6, abs=1e-6)

    @given(n=st.integers(3, sdp_module._DENSE_LAYER_MAX_N), seed=st.integers(0, 2**32 - 1),
           mu=st.floats(0.1, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_dense_layer_gives_the_csr_bits(self, n, seed, mu):
        # einsum sums over j in order, as the CSR product does: on any active
        # set, the dense layer's value, gradient, certificate inputs and
        # bound equal the CSR layer's bit for bit (weights not dyadic, so
        # order shows)
        rng = np.random.default_rng(seed)
        edges = [(i, j, int(rng.choice([-1, 1])), float(rng.uniform(0.3, 2.0)))
                 for i, j in itertools.combinations(range(n), 2) if rng.random() < 6.0 / n]
        inst = Max2LinInstance.from_edges(n, edges)
        triples = enumerate_triples(inst, "all")
        picks = rng.integers(len(triples), size=4 * n), rng.integers(len(_PATTERNS), size=4 * n)
        layers = []
        for cutoff in (sdp_module._DENSE_LAYER_MAX_N, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sdp_module, "_DENSE_LAYER_MAX_N", cutoff)
                layers.append(_ActiveSet(triples, inst))
                layers[-1].add(*picks)  # a rebuild reads the cut-off too
        dense, csr = layers
        assert isinstance(dense.matrix, np.ndarray) and not isinstance(csr.matrix, np.ndarray)
        dense.lam = csr.lam = rng.uniform(0.0, 2.0, len(dense)) * (rng.random(len(dense)) < 0.5)
        v = rng.standard_normal((n, int(rng.integers(1, 8))))
        assert bits(*dense.augmented(v, mu)) == bits(*csr.augmented(v, mu))
        v = v / np.linalg.norm(v, axis=1, keepdims=True)

        def certificate(layer):
            # what _solve_alm hands certify.upper_bound, at A' = 2 K(lam)
            entries, y = layer.dual(layer.lam, v)
            shift = _certified_shift(entries, y, 1e-3)
            bound = certify.upper_bound(entries, y, inst.total_weight, sdp_objective(inst, SdpEmbedding(v)),
                                        float(np.sum(layer.lam)))
            return *entries, y, shift, bound

        assert bits(*certificate(dense)) == bits(*certificate(csr))

    @on_both_layers
    def test_empty_active_set(self):
        triples = np.array([[0, 1, 2]])
        active = _ActiveSet(triples, Max2LinInstance.from_edges(3, []))
        val, grad = active.augmented(np.eye(3), 1.0)
        assert val == 0.0 and not np.any(grad)
        assert active.add(np.array([0]), np.array([1])) == 1
        assert active.add(np.array([0]), np.array([1])) == 0  # already active
        # pairs (0, 1), (0, 2), (1, 2) in key order; slots follow r_ij, r_jk, r_ik
        assert active.slot.tolist() == [[0, 2, 1]]

    @on_both_layers
    def test_pair_repeated_in_one_call_admitted_once(self):
        active = _ActiveSet(np.array([[0, 1, 2], [0, 1, 3]]), Max2LinInstance.from_edges(4, []))
        assert active.add(np.array([0, 0]), np.array([1, 1])) == 1
        assert len(active) == 1
        # later duplicates drop out; the survivors keep their first-seen order
        assert active.add(np.array([1, 0, 1, 0]), np.array([2, 3, 2, 1])) == 2
        assert active.idx.tolist() == [[0, 1, 2], [0, 1, 3], [0, 1, 2]]
        assert active.pattern.tolist() == _PATTERNS[[1, 2, 3]].tolist()


def reference_negative_al(active: _ActiveSet, mu: float):
    """fg of the ALM's inner subproblem written out plainly, one temporary
    per step: lam / mu at every evaluation, fancy-index gathers, nothing in
    place. _ActiveSet.negative_al must give its bits."""
    n, w_tot = active.inst.n, active.inst.total_weight

    def fg(u_flat):
        u = u_flat.reshape(n, -1)
        norms = np.maximum(np.sqrt(_rowdot(u, u)), 1e-30)[:, None]
        v = u / norms
        r = _rowdot(np.take(v, active.pair_i, axis=0), np.take(v, active.pair_j, axis=0))
        c = 1.0 + _rowdot(active.pattern, r[active.slot])
        q = np.maximum(0.0, active.lam / mu - c)
        f = mu * q
        m = np.bincount(active.slot.ravel(), weights=(f[:, None] * active.pattern).ravel(),
                        minlength=len(active.pair_i) + 1)
        np.add(active._base, m[active._entry_pair], out=active._values)
        kv = _product(active.matrix, v)
        val = 0.5 * float(np.vdot(v, kv)) - float(m[:-1] @ r) - 0.5 * mu * float(q @ q)
        g_neg = (_rowdot(kv, v)[:, None] * v - kv) / norms
        return -(0.5 * w_tot + val), g_neg.ravel()

    return fg


class ReferenceInverseHessian:
    """_InverseHessian written plainly, with @ products and a temporary per
    step: the production class must give its directions bit for bit."""

    def __init__(self, n: int) -> None:
        m = _LBFGS_MEMORY
        self.w = np.zeros((2 * m, n))
        self.r_inv = np.zeros((m, m))
        self.yy = np.zeros((m, m))  # Y^T Y
        self.sy = np.zeros((m, m))  # D
        # M with gamma folded into its blocks, rows and columns in w's order
        self.middle = np.zeros((2 * m, 2 * m))
        # views of its blocks: R^-T (D + gamma Y^T Y) R^-1 at (s, s) and
        # -gamma R^-1 at (y, s), transposed at (s, y)
        blocks = self.middle.reshape(m, 2, m, 2)
        self._m_ss, self._m_ys, self._m_sy = blocks[:, 0, :, 0], blocks[:, 1, :, 0], blocks[:, 0, :, 1]
        self.reset()

    def reset(self) -> None:
        self.k = 0
        self.next = 0  # the slot the next pair fills
        self.gamma = 1.0
        self.r_inv[:] = 0.0
        self.middle[:] = 0.0

    def direction(self, g: np.ndarray) -> np.ndarray:
        """-H g."""
        if self.k == 0:
            return -g
        d = (self.middle @ (self.w @ g)) @ self.w
        d += self.gamma * g
        return np.negative(d, out=d)

    def update(self, s: np.ndarray, y: np.ndarray, sy: float) -> None:
        """Add the pair (s, y), with s^T y = sy > 0."""
        t = self.next
        self.next = (t + 1) % _LBFGS_MEMORY
        self.k = min(self.k + 1, _LBFGS_MEMORY)
        self.w[2 * t] = s
        self.w[2 * t + 1] = y
        prods = self.w @ y  # s_u^T y and y_u^T y for every slot u
        r_col, y_row = prods[0::2], prods[1::2]
        # R^-1 of [[R, r], [0, sy]] is [[R^-1, -R^-1 r / sy], [0, 1 / sy]];
        # slot t's old row and r's entry for slot t drop out
        r_inv = self.r_inv
        r_inv[t] = 0.0
        r_col[t] = 0.0
        r_inv[:, t] = r_inv @ r_col * (-1.0 / sy)
        r_inv[t, t] = 1.0 / sy
        self.yy[t] = self.yy[:, t] = y_row
        self.sy[t, t] = sy
        self.gamma = gamma = sy / float(y_row[t])

        inner = self.yy * gamma
        inner += self.sy
        self._m_ss[...] = r_inv.T @ inner @ r_inv
        np.multiply(r_inv, -gamma, out=self._m_ys)
        self._m_sy[...] = self._m_ys.T


class TestInnerEvaluation:
    """_ActiveSet.negative_al, the evaluation L-BFGS calls, gives the bits of
    reference_negative_al on both layers, across the changes between two
    calls that _solve_alm makes: a multiplier step, a penalty step and new
    constraints."""

    @staticmethod
    def assert_same_bits(active, u, mu):
        want = reference_negative_al(active, mu)(u)
        assert bits(*active.negative_al(u, mu)) == bits(*want)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @on_both_layers
    def test_keeps_the_reference_bits(self, seed):
        inst, active, _, rng = TestConstraintLayer.grown_active_set(seed)
        rank, mu = 2, 0.7
        u = rng.standard_normal(inst.n * rank)
        # lam = 0: only violated constraints (c < 0) have q > 0
        assert not np.any(active.lam)
        self.assert_same_bits(active, u, mu)
        # a multiplier step, as _solve_alm takes it, between two calls
        active.lam = np.maximum(0.0, active.lam - mu * active.cvals(_normalize_rows(u.reshape(inst.n, rank))))
        assert np.any(active.lam > 0.0) and not np.all(active.lam > 0.0)
        self.assert_same_bits(active, u, mu)
        self.assert_same_bits(active, rng.standard_normal(u.shape), mu)
        # a penalty step
        mu *= sdp_module._PENALTY_GROWTH
        self.assert_same_bits(active, u, mu)
        # constraints added: lam grows by zeros
        before = len(active)
        t_new = rng.integers(len(active.triples), size=40)
        assert active.add(t_new, rng.integers(len(_PATTERNS), size=40)) > 0
        assert len(active) > before and not np.any(active.lam[before:])
        self.assert_same_bits(active, u, mu)
        # and a multiplier step at a fresh point
        u = rng.standard_normal(u.shape)
        active.lam = np.maximum(0.0, active.lam - mu * active.cvals(_normalize_rows(u.reshape(inst.n, rank))))
        self.assert_same_bits(active, u, mu)

    @pytest.mark.parametrize("seed", [0, 1])
    @on_both_layers
    def test_lbfgs_takes_the_reference_iterates(self, seed):
        inst, active, _, rng = TestConstraintLayer.grown_active_set(seed)
        TestConstraintLayer.set_multipliers(active, rng)
        mu = 1.5
        u0 = rng.standard_normal(inst.n * 3)
        want = _lbfgs(reference_negative_al(active, mu), u0.copy(), 0.0, 50)
        got = _lbfgs(lambda x: active.negative_al(x, mu), u0.copy(), 0.0, 50)
        assert want[2] == got[2] == 50
        assert bits(got[0], got[1]) == bits(want[0], want[1])


class TestWholeSolveBits:
    """Neighborhood-mode solve_sdp takes the same iterates with production's
    evaluation and L-BFGS memory as with the references above: every byte
    of the embedding and every SdpReport field, on desk-sized graphs (the
    dense layer) and on one n = 40 graph (the CSR layer)."""

    @pytest.mark.parametrize("n, d, law, gen_seed", [
        (14, 3, "unit", 0), (18, 4, ("uniform", 0.3, 2.0), 1), (20, 5, "unit", 2),
        (22, 6, ("uniform", 0.3, 2.0), 3), (40, 4, ("uniform", 0.3, 2.0), 4),
    ])
    def test_solve_keeps_the_reference_bits(self, monkeypatch, n, d, law, gen_seed):
        inst = gen_random_regular(n, d, 0.5, law, seed=gen_seed)
        cfg = SdpConfig(seed=gen_seed)
        emb, rep = solve_sdp(inst, cfg)
        monkeypatch.setattr(_ActiveSet, "negative_al",
                            lambda self, u_flat, mu: reference_negative_al(self, mu)(u_flat))
        monkeypatch.setattr(sdp_module, "_InverseHessian", ReferenceInverseHessian)
        ref_emb, ref_rep = solve_sdp(inst, cfg)
        assert rep.n_active > 0 and rep.iterations > 2 * _LBFGS_MEMORY
        assert emb.vectors.tobytes() == ref_emb.vectors.tobytes()
        assert bits(rep.objective, rep.max_violation, rep.upper_bound, rep.objective_history) == bits(
            ref_rep.objective, ref_rep.max_violation, ref_rep.upper_bound, ref_rep.objective_history)
        assert rep == ref_rep


class TestEinsumEntry:
    """_rowdot and _product call np.einsum's undispatched implementation,
    which must give np.einsum's bits, and np.einsum itself where numpy has
    no such attribute."""

    @pytest.mark.parametrize("rows, cols", [(14, 3), (22, 8), (26, 8), (40, 10), (5000, 21)])
    def test_same_bits_as_np_einsum(self, rows, cols):
        rng = np.random.default_rng(rows)
        a, b = rng.standard_normal((rows, cols)), rng.standard_normal((rows, cols))
        assert bits(_rowdot(a, b)) == bits(np.einsum("ij,ij->i", a, b))
        k = rng.standard_normal((rows, rows)) if rows <= 40 else rng.standard_normal((40, 40))
        k = k + k.T
        v = rng.standard_normal((len(k), cols))
        assert bits(_product(k, v)) == bits(np.einsum("ji,jk->ik", k, v))

    def test_falls_back_to_np_einsum(self):
        # a fresh interpreter whose np.einsum has no _implementation attribute
        code = (
            "import numpy as np\n"
            "einsum = np.einsum\n"
            "np.einsum = lambda *args, **kwargs: einsum(*args, **kwargs)\n"
            "import cutflip.sdp as sdp\n"
            "assert sdp._einsum is np.einsum\n"
            "a = np.arange(6.0).reshape(3, 2)\n"
            "assert sdp._rowdot(a, a).tolist() == [1.0, 13.0, 41.0]\n"
        )
        src = str(Path(sdp_module.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
        assert sdp_module._einsum is np.einsum._implementation


def quartic(c: np.ndarray, b: np.ndarray, a: float, offset: float = 0.0):
    """fg for offset + sum_i c_i (x_i^2 / 2 + a x_i^4 / 4) - b.x + 0.1 sum_i x_i x_(i+1)."""

    def fg(x):
        f = offset + float(np.sum(c * (0.5 * x**2 + 0.25 * a * x**4)) - b @ x + 0.1 * np.sum(x[1:] * x[:-1]))
        g = c * (x + a * x**3) - b
        g[1:] += 0.1 * x[:-1]
        g[:-1] += 0.1 * x[1:]
        return f, g

    return fg


def steep_quartic(seed: int, offset: float = 0.0):
    """Curvatures 1 to 100 and a start far out on the quartic: the unit
    steps the line search tries first overshoot and are cut back."""
    rng = np.random.default_rng(seed)
    c = np.logspace(0, 2, 50)
    fg = quartic(c, rng.standard_normal(50) * c, 1.0, offset)
    return fg, 3.0 * rng.standard_normal(50)


def flat_quartic(seed: int):
    """Curvatures 0.01 to 1 from the origin: the first steps fall short of
    the minimizer along them; L-BFGS-B's search stretches them, the Armijo
    search takes them as they are."""
    rng = np.random.default_rng(seed)
    return quartic(np.logspace(-2, 0, 50), 10.0 * rng.standard_normal(50), 1e-3), np.zeros(50)


class TestLbfgs:
    """_lbfgs against scipy's L-BFGS-B with the options it replaced in the
    ALM: the same minima and the same stop, skip and reset rules. The line
    searches differ (Armijo backtracking against Moré-Thuente), so the
    paths do too."""

    @staticmethod
    def run_both(monkeypatch, fg, x0, gtol, max_iter):
        """(ours as (x, f, nit), searches as (d, first trial step, f0,
        result), scipy's result)."""
        searches = []
        search = sdp_module._backtrack

        def recording_search(fg, x, f0, d, gd0, stp):
            out = search(fg, x, f0, d, gd0, stp)
            searches.append((d, stp, f0, out))
            # every step the search returns meets the Armijo condition
            assert out is None or out[2] <= f0 + _LS_FTOL * out[0] * gd0
            return out

        monkeypatch.setattr(sdp_module, "_backtrack", recording_search)
        ours = _lbfgs(fg, x0.copy(), gtol, max_iter)
        assert ours[1] <= fg(x0)[0]  # so no run ends above its start
        ref = minimize(fg, x0, jac=True, method="L-BFGS-B",
                       options={"maxiter": max_iter, "ftol": 1e-16, "gtol": gtol, "maxcor": 12})
        return ours, searches, ref

    @staticmethod
    def assert_same_minimum(fg, ours, ref, gtol):
        x, f, _ = ours
        assert "GRADIENT" in ref.message
        assert np.max(np.abs(fg(x)[1])) <= gtol and np.max(np.abs(ref.jac)) <= gtol
        assert f == fg(x)[0]
        assert f == pytest.approx(ref.fun, rel=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_interpolating_search_matches_scipy(self, monkeypatch, seed):
        fg, x0 = steep_quartic(seed)
        ours, searches, ref = self.run_both(monkeypatch, fg, x0, 1e-4, 1000)
        self.assert_same_minimum(fg, ours, ref, 1e-4)
        assert any(stp == 1.0 and out[0] < 1.0 for _, stp, _, out in searches)  # a unit step cut back
        assert ours[2] > _LBFGS_MEMORY  # the memory wrapped

    @pytest.mark.parametrize("seed", range(3))
    def test_flat_quartic_minimum_matches_scipy(self, monkeypatch, seed):
        fg, x0 = flat_quartic(seed)
        ours, searches, ref = self.run_both(monkeypatch, fg, x0, 1e-4, 1000)
        self.assert_same_minimum(fg, ours, ref, 1e-4)
        # the first trial step is 1/||d|| along d = -g, and no search fails
        d, stp, _, _ = searches[0]
        assert np.array_equal(d, -fg(x0)[1]) and stp == 1.0 / np.linalg.norm(d)
        assert all(out is not None for *_, out in searches)

    @pytest.mark.parametrize("seed", range(2))
    def test_max_iter_stop_matches_scipy(self, monkeypatch, seed):
        for fg, x0 in (steep_quartic(seed), flat_quartic(seed)):
            (x, f, nit), searches, ref = self.run_both(monkeypatch, fg, x0, 1e-4, 20)
            assert nit == ref.nit == 20 and "ITERATIONS" in ref.message
            assert np.max(np.abs(fg(x)[1])) > 1e-4 and f == fg(x)[0]
            assert len(searches) == 20 and all(out is not None for *_, out in searches)

    @pytest.mark.parametrize("seed", range(3))
    def test_relative_reduction_stop_matches_scipy(self, monkeypatch, seed):
        # an offset of 2^40 rounds every value to a multiple of 2^-12, so the
        # value stops moving well before the gradient vanishes
        fg, x0 = steep_quartic(seed, offset=2.0**40)
        (x, f, nit), searches, ref = self.run_both(monkeypatch, fg, x0, 0.0, 1000)
        assert "REDUCTION" in ref.message and nit < 1000
        assert all(out is not None for *_, out in searches)
        # the last step lowered the value by at most _LBFGS_FTOL * max(|f|, |f'|, 1)
        f0 = searches[-1][2]
        assert f0 - f <= sdp_module._LBFGS_FTOL * max(abs(f0), abs(f), 1.0)
        assert abs(f - ref.fun) <= 4 * 2.0**-12

    def test_failed_search_resets_then_stops(self, monkeypatch):
        # the gradient turns to -grad f near the minimizer: a search along
        # the memory's direction fails, the retry along -g fails too
        c = np.logspace(0, 1, 20)

        def fg(x):
            g = c * x
            return 0.5 * float(x @ g), (-g if np.linalg.norm(x) < 0.5 else g)

        x0 = 3.0 * np.random.default_rng(0).standard_normal(20)
        (x, _, _), searches, ref = self.run_both(monkeypatch, fg, x0, 1e-8, 1000)
        failed = [out is None for *_, out in searches]
        assert failed[-2:] == [True, True] and not any(failed[:-2])
        g = fg(x)[1]
        assert not np.array_equal(searches[-2][0], -g) and np.array_equal(searches[-1][0], -g)
        assert np.max(np.abs(g)) > 1e-8
        assert "ABNORMAL" in ref.message

    def test_skipped_updates_match_scipy(self, monkeypatch):
        # a linear function: every step has s^T y = 0, so every update is
        # skipped and each iteration starts along -g again
        c = np.linspace(-1.0, 2.0, 10)
        updates = []
        monkeypatch.setattr(_InverseHessian, "update", lambda self, *args: updates.append(args))
        (_, _, nit), searches, ref = self.run_both(
            monkeypatch, lambda x: (-float(c @ x), -c), np.zeros(10), 1e-8, 5
        )
        assert nit == ref.nit == 5 and "ITERATIONS" in ref.message
        assert not updates
        assert all(np.array_equal(d, c) for d, *_ in searches)
        # the Armijo test holds at every first trial step
        assert [out[0] for *_, out in searches] == [1.0 / np.linalg.norm(c), 1.0, 1.0, 1.0, 1.0]

    def test_direction_keeps_the_reference_bits(self):
        # the same directions as ReferenceInverseHessian, bit for bit, after
        # each update, across the ring's wrap and a reset, at a unit step's
        # pair and a cut step's (s = stp d)
        rng = np.random.default_rng(1)
        n = 40
        memory, reference = _InverseHessian(n), ReferenceInverseHessian(n)
        for step in range(2 * _LBFGS_MEMORY + 5):
            if step == _LBFGS_MEMORY + 7:
                memory.reset()
                reference.reset()
            d = rng.standard_normal(n)
            s = d if step % 3 else 0.25 * d
            y = s * rng.uniform(0.5, 2.0, n) + 0.1 * rng.standard_normal(n)
            sy = float(s @ y)
            memory.update(s, y, sy)
            reference.update(s, y, sy)
            assert memory.k == reference.k and memory.gamma == reference.gamma
            g = rng.standard_normal(n)
            assert bits(memory.direction(g)) == bits(reference.direction(g))
            assert bits(memory.middle) == bits(reference.middle)

    def test_compact_form_matches_recursion(self):
        # -H g against the BFGS recursion over the last _LBFGS_MEMORY pairs,
        # from H0 = gamma I, across the ring's wrap and a reset
        rng = np.random.default_rng(0)
        n = 30
        memory = _InverseHessian(n)
        pairs = []
        for step in range(2 * _LBFGS_MEMORY + 5):
            if step == _LBFGS_MEMORY + 7:
                memory.reset()
                pairs = []
            s = rng.standard_normal(n)
            y = s * rng.uniform(0.5, 2.0, n) + 0.1 * rng.standard_normal(n)
            memory.update(s, y, float(s @ y))
            pairs = (pairs + [(s, y)])[-_LBFGS_MEMORY:]
            s_new, y_new = pairs[-1]
            h = float(s_new @ y_new) / float(y_new @ y_new) * np.eye(n)
            for s_k, y_k in pairs:
                rho = 1.0 / float(s_k @ y_k)
                left = np.eye(n) - rho * np.outer(s_k, y_k)
                h = left @ h @ left.T + rho * np.outer(s_k, s_k)
            g = rng.standard_normal(n)
            want = -h @ g
            assert np.linalg.norm(memory.direction(g) - want) <= 1e-10 * np.linalg.norm(want)
        memory.reset()
        g = rng.standard_normal(n)
        assert np.array_equal(memory.direction(g), -g)


def search_line(f, g, stp):
    """_backtrack from x = 0 along d = 1 on f(t) with slope g(t), first trial
    step stp: (its result, the trial steps). x + t d holds t exactly."""
    trials = []

    def fg(x):
        trials.append(x[0])
        return f(x[0]), np.array([g(x[0])])

    return sdp_module._backtrack(fg, np.zeros(1), f(0.0), np.ones(1), g(0.0), stp), trials


def cut_ratios(trials):
    return (np.array(trials[1:]) / np.array(trials[:-1])).tolist()


class TestBacktrack:
    @pytest.mark.parametrize("f, g", [
        (lambda t: -t + 2.0 * t * t, lambda t: -1.0 + 4.0 * t),
        (lambda t: -t + t**4, lambda t: -1.0 + 4.0 * t**3),
        (lambda t: -t + 1e6 * max(0.0, t - 1e-3) ** 2, lambda t: -1.0 + 2e6 * max(0.0, t - 1e-3)),
        (lambda t: -t if t < 0.3 else math.nan, lambda t: -1.0),
    ])
    @pytest.mark.parametrize("stp", [1.0, 7.5, 100.0])
    def test_armijo_holds_and_cuts_stay_clamped(self, f, g, stp):
        out, trials = search_line(f, g, stp)
        assert out is not None
        step, xt, f_new, g_new, gd = out
        assert f_new <= f(0.0) + sdp_module._LS_FTOL * step * g(0.0)
        assert trials[0] == stp and xt[0] == step == trials[-1]
        assert f_new == f(step) and g_new[0] == gd == g(step)
        # every refused step is cut to between a tenth and a half of itself
        assert all(0.1 <= r <= 0.5 for r in cut_ratios(trials))

    def test_cuts_reach_both_clamps_and_the_quadratic_minimizer(self):
        # -t + 2 t^2 refuses t = 1 and is cut to its minimizer 1/4; a steep
        # quadratic is cut by the lower clamp, a NaN value by the upper one
        _, trials = search_line(lambda t: -t + 2.0 * t * t, lambda t: -1.0 + 4.0 * t, 1.0)
        assert cut_ratios(trials) == [0.25]
        _, trials = search_line(lambda t: -t + 1e6 * t * t, lambda t: -1.0 + 2e6 * t, 1.0)
        assert cut_ratios(trials)[0] == 0.1
        _, trials = search_line(lambda t: math.nan if t > 0.6 else -t, lambda t: -1.0, 1.0)
        assert cut_ratios(trials) == [0.5]

    def test_gives_up_after_max_evals(self):
        # a value above f(0) at every step
        out, trials = search_line(lambda t: 1.0 if t else 0.0, lambda t: -1.0, 1.0)
        assert out is None and len(trials) == sdp_module._LS_MAX_EVALS


class TestSolveAnchors:
    def test_single_cut_edge(self, single_edge):
        emb, rep = solve_sdp(single_edge)
        assert abs(rep.objective - 1.0) <= 1e-6
        assert rep.converged
        assert 1.0 <= rep.upper_bound <= 1.0 + 1e-4

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
        # the certified bound brackets the optimum from above
        assert rep.objective <= 2.25 <= rep.upper_bound <= 2.25 + 1e-3
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
        assert 2.0 <= rep.upper_bound <= 2.0 + 1e-3

    def test_empty_instance(self):
        inst = Max2LinInstance.from_edges(3, [])
        _, rep = solve_sdp(inst)
        assert rep.objective == 0.0 and rep.converged
        assert 0.0 <= rep.upper_bound <= 1e-4

    @pytest.mark.parametrize("mode", ["neighborhood", "none"])
    def test_isolated_vertex(self, mode):
        # no triples either way; vertex 2's neighbour sum is zero, so its row
        # must keep a unit vector rather than become 0/0
        inst = Max2LinInstance.from_edges(3, [(0, 1, -1, 1.0)])
        emb, rep = solve_sdp(inst, SdpConfig(triangle_mode=mode))
        assert np.allclose(np.linalg.norm(emb.vectors, axis=1), 1.0)
        assert rep.converged and abs(rep.objective - 1.0) <= 1e-9

    def test_roundoff_gain_stops_the_sweeps(self):
        # the first sweep leaves this star at its optimum and no later sweep
        # moves a row, yet each read a gain of 1.1e-16 at rate 1, and the
        # solve ran out its 36000 sweeps unconverged
        inst = Max2LinInstance.from_edges(3, [(0, 1, -1, 0.5), (0, 2, -1, 0.3125)])
        _, rep = solve_sdp(inst, SdpConfig(triangle_mode="none", seed=0))
        assert rep.converged and rep.iterations <= 3
        assert rep.objective == rep.upper_bound == inst.total_weight


def assert_sweeps_ascend(inst, emb, rep, start):
    """No mixing sweep lowers the objective by more than 1e-9 W of rounding;
    the column each climb from rank start appends may, once per column."""
    falls = np.diff(rep.objective_history) < -1e-9 * inst.total_weight
    assert np.count_nonzero(falls) <= emb.rank - start


class TestSolveProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_relaxation_dominance(self, seed):
        inst = random_instance(np.random.default_rng(seed), 12)
        _, rep = solve_sdp(inst)
        opt = brute_force_opt(inst).opt
        assert rep.objective >= opt - 1e-4
        # dropping the constraints cannot lower the optimum, so a lower
        # unconstrained value means the mixing method stopped early
        _, rep_none = solve_sdp(inst, SdpConfig(triangle_mode="none"))
        assert rep_none.objective >= opt - 1e-4
        assert rep_none.objective >= rep.objective - 1e-6 * inst.total_weight
        # each certified bound lies above its relaxation's optimum, so above
        # OPT and the objective
        for r in (rep, rep_none):
            assert r.upper_bound >= max(opt, r.objective)

    def test_unit_rows(self):
        inst = random_instance(np.random.default_rng(9), 15)
        emb, _ = solve_sdp(inst)
        norms = np.linalg.norm(emb.vectors, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-8
        emb.validate()
        for bad_row in (2.0, np.nan):  # NaN compares false against any tolerance
            bad = emb.vectors.copy()
            bad[0] = bad_row
            with pytest.raises(ValueError, match="not unit vectors"):
                SdpEmbedding(bad).validate()

    def test_monotone_and_bounded(self):
        inst = random_instance(np.random.default_rng(10), 15)
        w = inst.total_weight
        for mode in ("neighborhood", "none"):
            emb, rep = solve_sdp(inst, SdpConfig(triangle_mode=mode))
            for obj in rep.objective_history:
                assert -1e-9 <= obj <= w + 1e-6
        # the last solve ran the mixing method, one history entry per sweep,
        # and no sweep lowered the objective
        hist = np.array(rep.objective_history)
        assert len(hist) == rep.iterations > 1
        assert_sweeps_ascend(inst, emb, rep, start=default_rank(inst.n))
        assert abs(hist[-1] - rep.objective) <= 1e-9 * w

    def test_converged_run_meets_constraint_tol(self):
        inst = random_instance(np.random.default_rng(11), 10)
        cfg = SdpConfig(triangle_mode="all")
        emb, rep = solve_sdp(inst, cfg)
        if rep.converged:
            triples = enumerate_triples(inst, "all")
            assert max_triangle_violation(emb, triples) <= cfg.constraint_tol

    @pytest.mark.parametrize("max_outer, converged", [(2, False), (60, True)])
    def test_bound_reads_the_last_steps_multipliers(self, monkeypatch, max_outer, converged):
        # the certificate folds in the multipliers of the last round's step,
        # not a step taken again after the loop
        seen = []
        dual = _ActiveSet.dual

        def spy(self, lam, v):
            seen.append((lam.copy(), self.lam.copy()))
            return dual(self, lam, v)

        monkeypatch.setattr(_ActiveSet, "dual", spy)
        inst = gen_random_regular(16, 5, 0.5, "unit", seed=0)
        _, rep = solve_sdp(inst, SdpConfig(seed=0, max_outer=max_outer))
        assert rep.converged == converged
        [(lam, own)] = seen
        assert lam.sum() > 0 and np.array_equal(lam, own)

    def test_determinism(self):
        inst = random_instance(np.random.default_rng(12), 14)
        for mode in ("neighborhood", "none"):
            emb1, rep1 = solve_sdp(inst, SdpConfig(triangle_mode=mode))
            emb2, rep2 = solve_sdp(inst, SdpConfig(triangle_mode=mode))
            assert np.array_equal(emb1.vectors, emb2.vectors)
            assert rep1.objective == rep2.objective

    @pytest.mark.parametrize("max_outer", [1, 2, 4])
    @pytest.mark.parametrize("n, d, law, gen_seed", [
        (16, 5, "unit", 0), (22, 3, ("uniform", 0.3, 2.0), 3), (22, 5, "unit", 4),
        (21, 6, "unit", 8), (16, 3, ("uniform", 0.3, 2.0), 13),
    ])
    def test_budget_exhaustion_is_soft(self, max_outer, n, d, law, gen_seed):
        inst = gen_random_regular(n, d, 0.5, law, seed=gen_seed)
        emb, rep = solve_sdp(inst, SdpConfig(seed=gen_seed, max_outer=max_outer))
        assert not rep.converged and len(rep.objective_history) == max_outer
        emb.validate()  # best iterate still a valid embedding
        # the bound holds whether or not the solve converged (above the
        # value of a feasible iterate; this one need not be feasible)
        assert rep.upper_bound >= brute_force_opt(inst).opt

    def test_truncated_inner_solve_is_soft(self):
        # a non-regular graph with dyadic weights, its one round cut off
        # after 5 L-BFGS iterations
        inst = random_instance(np.random.default_rng(13), 16)
        emb, rep = solve_sdp(inst, SdpConfig(max_outer=1, max_inner=5))
        assert not rep.converged
        emb.validate()
        assert rep.upper_bound >= brute_force_opt(inst).opt
        # the mixing method's budget is max_outer * max_inner sweeps
        emb, rep = solve_sdp(inst, SdpConfig(triangle_mode="none", max_outer=1, max_inner=5))
        assert not rep.converged and rep.iterations == 5
        assert rep.upper_bound >= rep.objective
        emb.validate()

    @pytest.mark.parametrize(
        "n, d, gen_seed, sdp_seed",
        [(14, 4, 861956771, 65), (16, 6, 1191371726120884936, 0)],
        ids=["c2_graph_65", "desk_10"],
    )
    def test_penalty_schedule_converges_with_margin(self, n, d, gen_seed, sdp_seed):
        # a capped penalty left the first unconverged after 60 rounds and the
        # second converged only at round 59
        inst = gen_random_regular(n, d, 0.8, "unit", seed=gen_seed)
        _, rep = solve_sdp(inst, SdpConfig(seed=sdp_seed))
        assert rep.converged
        assert len(rep.objective_history) <= 30

    @pytest.mark.parametrize("seed", [1, 3, 4])
    def test_unbounded_penalty_stays_finite(self, seed):
        # 5 inner iterations never reach feasibility, so the penalty grows
        # 5x in most of the 60 rounds (past 1e30); the iterate stays usable
        inst = gen_random_regular(16, 6, 0.8, ("uniform", 0.3, 2.0), seed=seed)
        emb, rep = solve_sdp(inst, SdpConfig(max_inner=5, seed=seed))
        assert not rep.converged and len(rep.objective_history) == 60
        assert math.isfinite(rep.objective) and math.isfinite(rep.max_violation)
        assert math.isfinite(rep.upper_bound)
        emb.validate()

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
        # each refusal names its field
        bad = [("rank", 2.5), ("rank", 0), ("rank", True), ("max_outer", 1.5),
               ("max_outer", True), ("max_outer", 0), ("max_inner", 2.5), ("seed", -1),
               ("seed", 1.0), ("objective_tol", math.nan), ("objective_tol", math.inf),
               ("objective_tol", -1e-6), ("objective_tol", "1e-6"), ("constraint_tol", math.nan),
               ("constraint_tol", math.inf), ("constraint_tol", 0.0), ("constraint_tol", True)]
        for name, value in bad:
            with pytest.raises(ValueError, match=name):
                SdpConfig(**{name: value})
        ok = SdpConfig(rank=np.int64(3), seed=np.int64(0), objective_tol=np.float64(1e-4))
        assert ok.rank == 3 and SdpConfig(rank=None).rank is None


@st.composite
def signed_instances(draw, max_n: int = 10):
    """A simple graph on 1 to max_n vertices with random signs and U(0.3, 2) weights."""
    n, edges = draw(simple_graphs(max_n))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(edges), max_size=len(edges)))
    weights = draw(st.lists(st.floats(0.3, 2.0), min_size=len(edges), max_size=len(edges)))
    return Max2LinInstance.from_edges(n, [(i, j, b, w) for (i, j), b, w in zip(edges, signs, weights)])


DESK_LIKE = [  # (n, d, sign bias, weights, generator seed)
    (16, 6, 0.8, "unit", 1191371726120884936),  # loose multipliers: UB ~ OPT + 6
    (14, 4, 0.8, "unit", 861956771),
    (18, 3, 0.5, ("uniform", 0.3, 2.0), 1),
    (20, 5, 1.0, "unit", 2),
    (22, 4, 0.5, ("uniform", 0.3, 2.0), 3),
    (16, 3, 1.0, ("uniform", 0.3, 2.0), 4),
]


class TestUpperBound:
    @pytest.mark.parametrize("n, d, bias, law, gen_seed", DESK_LIKE)
    @pytest.mark.parametrize("mode", ["neighborhood", "none"])
    @in_one_row_blocks
    def test_bound_above_opt_and_objective(self, n, d, bias, law, gen_seed, mode):
        inst = gen_random_regular(n, d, bias, law, seed=gen_seed)
        _, rep = solve_sdp(inst, SdpConfig(triangle_mode=mode))
        opt = brute_force_opt(inst).opt
        assert rep.converged
        assert rep.upper_bound >= opt and rep.upper_bound >= rep.objective

    @pytest.mark.parametrize("graph", ["triangle", DESK_LIKE[2], DESK_LIKE[4]])
    def test_alm_reports_its_final_iterate(self, request, graph):
        # the report's objective and violation are the last round's, exactly
        if graph == "triangle":
            inst = request.getfixturevalue("triangle")
        else:
            n, d, bias, law, gen_seed = graph
            inst = gen_random_regular(n, d, bias, law, seed=gen_seed)
        emb, rep = solve_sdp(inst, SdpConfig(triangle_mode="neighborhood"))
        assert rep.objective == sdp_objective(inst, emb)
        assert rep.max_violation == max_triangle_violation(emb, enumerate_triples(inst, "neighborhood"))
        assert rep.objective_history[-1] == rep.objective

    @given(inst=signed_instances(), mode=st.sampled_from(["neighborhood", "none"]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    @in_one_row_blocks
    def test_bound_above_opt_on_random_graphs(self, inst, mode, seed):
        # the bound holds for any multipliers and any iterate, converged or not
        inner = []
        lbfgs = sdp_module._lbfgs

        def recording_lbfgs(fg, x, gtol, max_iter):
            start = fg(x)[0]
            out = lbfgs(fg, x, gtol, max_iter)
            inner.append((start, out[1]))
            return out

        with mock.patch.object(sdp_module, "_lbfgs", recording_lbfgs):
            emb, rep = solve_sdp(inst, SdpConfig(triangle_mode=mode, seed=seed))
        opt = brute_force_opt(inst).opt
        assert rep.upper_bound >= opt - 1e-9 * max(1.0, opt)
        assert rep.upper_bound <= inst.total_weight
        # the ALM's inner solves accept only Armijo steps, so none ends above
        # its start on the augmented objective (minimized negated), and no
        # over-relaxed class update lowers the mixing objective, also where a
        # vertex's neighbour sum is zero (n <= 10 starts at default_rank(n))
        assert all(end <= start for start, end in inner)
        if mode == "none":
            assert not inner
            assert_sweeps_ascend(inst, emb, rep, start=default_rank(inst.n))

    @given(inst=signed_instances(sdp_module._DENSE_LAYER_MAX_N), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    @example(  # every edge holds, and the bound's sums round it an ulp below W
        inst=Max2LinInstance(5, [0, 0, 0, 0], [1, 2, 3, 4], [-1, -1, -1, -1],
                             [1.0, 1.9776537147171076, 1.8474467953799791, 0.9549211841366629]),
        seed=0)
    def test_dense_and_csr_mixing_bound_each_other(self, inst, seed):
        # up to _DENSE_LAYER_MAX_N vertices the mixing method reads a dense A,
        # whose products may sum in another order than CSR's: both paths
        # converge, and each certified bound holds for the other's iterate
        reports = []
        for cutoff, kind in ((sdp_module._DENSE_LAYER_MAX_N, np.ndarray), (0, sp.csr_matrix)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sdp_module, "_DENSE_LAYER_MAX_N", cutoff)
                assert isinstance(adjacency(inst), kind)
                reports.append(solve_sdp(inst, SdpConfig(triangle_mode="none", seed=seed))[1])
        dense, csr = reports
        slack = 1e-12 * inst.total_weight
        opt = brute_force_opt(inst).opt
        assert dense.converged and csr.converged
        assert dense.objective <= csr.upper_bound + slack
        assert csr.objective <= dense.upper_bound + slack
        assert dense.upper_bound >= opt and csr.upper_bound >= opt

    def test_default_start_rank_certifies(self):
        # default_rank(400) = 30: the mixing method starts below it, at 24
        inst = gen_random_regular(400, 3, 1.0, "unit", seed=0)
        emb, rep = solve_sdp(inst, SdpConfig(triangle_mode="none"))
        assert default_rank(inst.n) > _RANK_START
        assert emb.rank >= _RANK_START
        assert rep.converged
        assert 0.0 < rep.upper_bound - rep.objective <= 1e-5 * rep.objective

    @pytest.mark.parametrize("d, bias, law", [(4, 1.0, "unit"), (6, 0.5, ("uniform", 0.3, 2.0))])
    def test_over_relaxed_sweeps_certify_at_start_rank(self, d, bias, law):
        # large-like graphs: exact block updates need 835 and 654 sweeps on
        # them, over-relaxed ones 76 and 70, so the bound tells the two apart
        inst = gen_random_regular(2000, d, bias, law, seed=0)
        emb, rep = solve_sdp(inst, SdpConfig(triangle_mode="none"))
        assert emb.rank == _RANK_START
        assert rep.converged
        assert_sweeps_ascend(inst, emb, rep, start=_RANK_START)
        assert rep.upper_bound - rep.objective <= 1e-5 * rep.objective
        assert rep.iterations <= 150

    def test_low_start_rank_climbs_and_certifies(self):
        inst = gen_random_regular(200, 4, 1.0, "unit", seed=0)
        emb, rep = solve_sdp(inst, SdpConfig(triangle_mode="none", rank=4))
        _, rep_default = solve_sdp(inst, SdpConfig(triangle_mode="none"))
        assert 4 < emb.rank < default_rank(inst.n)
        assert rep.converged
        assert rep.iterations == len(rep.objective_history)
        assert_sweeps_ascend(inst, emb, rep, start=4)
        # certified at the first shift, and the same optimum as the default
        assert rep.upper_bound - rep.objective <= 1e-5 * rep.objective
        assert abs(rep.objective - rep_default.objective) <= 1e-5 * rep.objective

    def test_alm_certificate_is_the_same_on_both_layers(self, monkeypatch):
        # both layers hand certify the same entries, explicit zeros
        # included, so their certificates give the same bits
        n, d, bias, law, gen_seed = DESK_LIKE[0]
        inst = gen_random_regular(n, d, bias, law, seed=gen_seed)
        radii, reports = [], []
        upper_bound = certify.upper_bound

        def recording(*args):
            radii.append(bits(*args[0], certify._radii(args[0], n)))
            return upper_bound(*args)

        monkeypatch.setattr(certify, "upper_bound", recording)
        for cutoff in (sdp_module._DENSE_LAYER_MAX_N, 0):
            monkeypatch.setattr(sdp_module, "_DENSE_LAYER_MAX_N", cutoff)
            reports.append(solve_sdp(inst, SdpConfig(triangle_mode="neighborhood"))[1])
        assert radii[0] == radii[1]
        assert reports[0] == reports[1]

    def test_each_rank_is_factored_once(self, monkeypatch):
        # one factorization per rank climbed from 4, of the rows left once
        # independent sets are eliminated (the sets depend on the pattern
        # alone, so the remainder keeps its size), and the first shift that
        # certifies is not factored again
        inst = gen_random_regular(300, 4, 1.0, "unit", seed=0)
        factored = []
        positive_definite = certify._positive_definite
        monkeypatch.setattr(certify, "_positive_definite", lambda blocks: factored.append(
            sum(block.shape[1] for block in blocks)) or positive_definite(blocks))
        emb, rep = solve_sdp(inst, SdpConfig(triangle_mode="none", rank=4))
        assert rep.converged and emb.rank < default_rank(inst.n)
        entries = _signed_adjacency(inst, np.arange(inst.n))[1]
        blocks = certify._eliminated(entries, certify._radii(entries, inst.n) + 1.0)  # dominant: no pivot refuses
        left = sum(block.shape[1] for block in blocks)
        assert 0 < left < inst.n
        assert factored == [left] * (emb.rank - 4 + 1)

    def test_embedding_validated_at_the_boundary(self, monkeypatch):
        inst = random_instance(np.random.default_rng(1), 8)
        mixing = sdp_module._solve_mixing

        def broken(inst, cfg, v, rng):
            emb, rep = mixing(inst, cfg, v, rng)
            emb.vectors[0] = np.nan
            return emb, rep

        monkeypatch.setattr(sdp_module, "_solve_mixing", broken)
        with pytest.raises(ValueError, match="not unit vectors"):
            solve_sdp(inst, SdpConfig(triangle_mode="none"))


class TestAboveFactorLimit:
    """Above _FACTOR_MAX_N vertices nothing is factored (the limit is lowered
    here so that small graphs cross it)."""

    def test_mixing_runs_at_fixed_rank_with_gershgorin_bound(self, monkeypatch):
        inst = gen_random_regular(200, 4, 1.0, "unit", seed=0)
        rank = default_rank(inst.n)
        ref, _ = solve_sdp(inst, SdpConfig(triangle_mode="none", rank=rank))
        # a certified solve from another start point
        _, certified = solve_sdp(inst, SdpConfig(triangle_mode="none", seed=1))
        assert certified.converged
        assert certified.upper_bound - certified.objective <= 1e-5 * certified.objective
        monkeypatch.setattr(certify, "_FACTOR_MAX_N", inst.n - 1)
        monkeypatch.setattr(certify, "_shift_certificate", no_factorization)
        emb, rep = solve_sdp(inst, SdpConfig(triangle_mode="none"))
        # the same trajectory as a fixed-rank run, stopped by the stop rule
        assert emb.rank == rank
        np.testing.assert_array_equal(emb.vectors, ref.vectors)
        assert rep.converged
        # only the stop rule ended the solve; it stopped at the optimum
        assert abs(rep.objective - certified.objective) <= 1e-6 * certified.objective
        # the Gershgorin shift bound is never below W in none mode: W caps it
        assert rep.upper_bound == inst.total_weight

    def test_mixing_starts_at_the_start_rank_at_every_size(self, monkeypatch):
        # default_rank(600) = 36; with nothing factored the solve stops at the
        # rank it starts at, _RANK_START, and the bound is W
        inst = gen_random_regular(600, 4, 1.0, "unit", seed=0)
        assert default_rank(inst.n) == 36
        monkeypatch.setattr(certify, "_FACTOR_MAX_N", inst.n - 1)
        monkeypatch.setattr(certify, "_shift_certificate", no_factorization)
        emb, rep = solve_sdp(inst, SdpConfig(triangle_mode="none"))
        assert emb.rank == _RANK_START
        assert rep.converged
        assert rep.upper_bound == inst.total_weight

    def test_alm_bound_without_factoring(self, monkeypatch):
        n, d, bias, law, gen_seed = DESK_LIKE[1]
        inst = gen_random_regular(n, d, bias, law, seed=gen_seed)
        monkeypatch.setattr(certify, "_FACTOR_MAX_N", n - 1)
        monkeypatch.setattr(certify, "_shift_certificate", no_factorization)
        _, rep = solve_sdp(inst, SdpConfig(triangle_mode="neighborhood"))
        assert rep.converged
        assert rep.upper_bound >= brute_force_opt(inst).opt


class TestWeightScale:
    """Every tolerance of the solvers is relative to W, so scaling the
    weights scales the solve; W outside the range the solvers can represent
    is refused."""

    @staticmethod
    def signed_graph(scale: float) -> Max2LinInstance:
        # U(0.3, 2) weights times scale: at 1e-8 the absolute floors of 1 made
        # the ALM report converged at 0.66 OPT
        return gen_random_regular(14, 4, 0.5, ("uniform", 0.3 * scale, 2.0 * scale), seed=9)

    @pytest.mark.parametrize("mode", ["neighborhood", "none"])
    @pytest.mark.parametrize("scale", [1e-8, 1e-4])
    def test_small_weights_solve_as_at_unit_scale(self, scale, mode):
        cfg = SdpConfig(triangle_mode=mode)
        unit = self.signed_graph(1.0)
        _, ref = solve_sdp(unit, cfg)
        inst = self.signed_graph(scale)
        _, rep = solve_sdp(inst, cfg)
        w_tot = inst.total_weight
        assert rep.converged
        assert abs(rep.objective / w_tot - ref.objective / unit.total_weight) <= 1e-6
        if mode == "neighborhood":  # the triangle inequalities hold on integral points
            assert rep.objective >= brute_force_opt(inst).opt * (1 - 1e-6)

    @pytest.mark.parametrize("n, d, law", [(22, 5, ("uniform", 0.3, 2.0)), (60, 7, ("uniform", 0.3, 2.0)),
                                           (300, 4, ("uniform", 0.3, 2.0)), (300, 3, "unit"), (2000, 4, "unit")])
    def test_none_mode_answers_are_unit_free(self, n, d, law):
        # a power of two scales every product and sum exactly, and no
        # constant of the mixing method or the certificate is absolute, so
        # weights times 2^k give the same vectors, sweeps and flags, and
        # values exactly 2^k times; the certificates factor one block up to
        # n = 300 and several at n = 2000
        inst = gen_random_regular(n, d, 0.5, law, seed=1)
        emb, ref = solve_sdp(inst, SdpConfig(triangle_mode="none"))
        for k in (-20, 20):
            scaled = Max2LinInstance(n, inst.edge_i, inst.edge_j, inst.sign, inst.weight * 2.0**k)
            emb_k, rep = solve_sdp(scaled, SdpConfig(triangle_mode="none"))
            assert np.array_equal(emb_k.vectors, emb.vectors)
            assert rep.objective == 2.0**k * ref.objective and rep.upper_bound == 2.0**k * ref.upper_bound
            assert rep.objective_history == [2.0**k * x for x in ref.objective_history]
            assert (rep.iterations, rep.converged, rep.max_violation, rep.n_active) == (
                ref.iterations, ref.converged, ref.max_violation, ref.n_active)

    @pytest.mark.parametrize("mode", ["none", "neighborhood", "all"])
    def test_edgeless_graphs_solve_in_every_mode(self, mode):
        for n in (1, 3, 6):
            _, rep = solve_sdp(Max2LinInstance.from_edges(n, []), SdpConfig(triangle_mode=mode))
            assert rep.converged and rep.objective == 0.0 and rep.upper_bound == 0.0

    @pytest.mark.parametrize("weight", [1e308, 1.5e155, 1e-170])
    @pytest.mark.parametrize("mode", ["neighborhood", "none"])
    def test_unrepresentable_total_weight_refused(self, weight, mode):
        inst = Max2LinInstance.from_edges(3, [(0, 1, -1, weight), (1, 2, -1, weight),
                                              (0, 2, 1, weight)])
        with np.errstate(over="ignore"):  # 3e308 sums to inf
            w_tot = inst.total_weight
            with pytest.raises(ValueError, match=re.escape(f"total weight W={w_tot!r}")):
                solve_sdp(inst, SdpConfig(triangle_mode=mode))


class TestCheckSolvable:
    """check_solvable(cfg, inst), the rule solve_sdp and an experiment spec
    apply before anything is allocated."""

    @pytest.mark.parametrize("mode", ["none", "neighborhood", "all"])
    def test_edgeless_graph_passes(self, mode):
        for n in (1, 3, 6):
            inst = Max2LinInstance.from_edges(n, [])
            for rank in (None, 1, n):
                expected = default_rank(n) if rank is None else rank
                assert check_solvable(SdpConfig(rank=rank, triangle_mode=mode), inst) == expected

    @pytest.mark.parametrize("weight, text", [(1e-170, "W=2e-170"), (1e101, "W=2e+101")])
    def test_total_weight_outside_the_range_refused(self, weight, text):
        inst = Max2LinInstance.from_edges(3, [(0, 1, -1, weight), (1, 2, -1, weight)])
        with pytest.raises(ValueError, match=re.escape(f"total weight {text} lies outside")):
            check_solvable(SdpConfig(), inst)

    def test_rank_above_n_refused(self):
        inst = Max2LinInstance.from_edges(3, [(0, 1, -1, 1.0)])
        assert check_solvable(SdpConfig(rank=3), inst) == 3
        with pytest.raises(ValueError, match=re.escape("rank must lie in [1, n]=[1, 3], got 4")):
            check_solvable(SdpConfig(rank=4), inst)
