"""cutflip.certify: its two entries and its one Gershgorin radius function.

The factorization, the elimination and the shift ladder behind them are
tested in test_sdp.py (TestCertificate, TestElimination, TestBlockCholesky,
TestAboveFactorLimit).
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

from cutflip import certify
from cutflip.certify import _certified_shift, _first_shift, _radii, _upper_bound, first_shift_bound, upper_bound
import cutflip.sdp as sdp_module
from cutflip.instance import Max2LinInstance
from cutflip.sdp import _PATTERNS, _ActiveSet, _colour_classes, _signed_adjacency, enumerate_triples

from conftest import no_factorization


def bits(x) -> list:
    return np.asarray(x, dtype=np.float64).view(np.int64).tolist()


def dense_graph(n: int, seed: int) -> Max2LinInstance:
    """A signed graph with U(0.3, 2) weights (not dyadic, so summation order
    shows) and about 0.6 n neighbours per vertex: most rows hold 9 or more
    entries, which numpy sums pairwise."""
    rng = np.random.default_rng(seed)
    edges = [(i, j, int(rng.choice([-1, 1])), float(rng.uniform(0.3, 2.0)))
             for i, j in itertools.combinations(range(n), 2) if rng.random() < 0.6]
    return Max2LinInstance.from_edges(n, edges)


def scipy_radii(adj: sp.csr_matrix) -> np.ndarray:
    """scipy's abs(adj).sum(axis=1), on a copy: abs sorts the indices in place."""
    return np.asarray(abs(adj.copy()).sum(axis=1)).ravel()


class TestRadii:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixing_adjacency_dense_and_csr_give_the_same_bits(self, seed):
        # A permuted into colour classes, as _solve_mixing reads it: the
        # permuted CSR matrix holds its indices out of order
        inst = dense_graph(24, seed)
        order = _colour_classes(inst)[0]
        forms = []
        for cutoff in (sdp_module._DENSE_LAYER_MAX_N, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sdp_module, "_DENSE_LAYER_MAX_N", cutoff)
                forms.append(_signed_adjacency(inst)[order][:, order])
        dense, csr = forms
        assert isinstance(dense, np.ndarray) and not csr.has_sorted_indices
        assert np.diff(csr.indptr).max() >= 9
        assert bits(_radii(dense)) == bits(_radii(csr)) == bits(scipy_radii(csr))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_alm_layer_dense_and_csr_give_the_same_bits(self, seed):
        # 2 K(lam) of the same active set on both layers; half the
        # multipliers are 0, so pairs off A's edges hold explicit zeros
        inst = dense_graph(20, seed)
        rng = np.random.default_rng(seed)
        triples = enumerate_triples(inst, "all")
        picks = rng.integers(len(triples), size=200), rng.integers(len(_PATTERNS), size=200)
        layers = []
        for cutoff in (sdp_module._DENSE_LAYER_MAX_N, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sdp_module, "_DENSE_LAYER_MAX_N", cutoff)
                layers.append(_ActiveSet(triples, inst))
            layers[-1].add(*picks)
        lam = rng.uniform(0.0, 2.0, len(layers[0])) * (rng.random(len(layers[0])) < 0.5)
        for layer in layers:
            layer.refill(lam)
        dense, csr = (2.0 * layer.matrix for layer in layers)
        zero_rows = np.repeat(np.arange(inst.n), np.diff(csr.indptr))[csr.data == 0.0]
        assert np.any(np.diff(csr.indptr)[zero_rows] >= 9)
        stored = layers[0].stored
        assert bits(_radii(dense, stored)) == bits(_radii(csr)) == bits(scipy_radii(csr))
        # the zeros set bits: the dense array's nonzeros alone sum otherwise
        assert bits(_radii(dense)) != bits(_radii(dense, stored))


def diagonal_dual(seed: int, n: int = 30):
    """(adj, y, radius) for a signed graph on n vertices, CSR, with
    y = radius: Diag(y) - adj is diagonally dominant."""
    inst = dense_graph(n, seed)
    adj = sp.csr_matrix((inst.nbr_sign * inst.nbr_weight, inst.nbr, inst.indptr), shape=(n, n))
    radius = _radii(adj)
    return adj, radius.copy(), radius


class TestEntries:
    def test_first_shift_bound_accepts_refuses_and_caps(self, monkeypatch):
        adj, y, radius = diagonal_dual(0)
        n, w_tot, objective = len(y), 50.0, 20.0
        delta = _first_shift(objective, n)
        calls = []
        shift_certificate = certify._shift_certificate
        monkeypatch.setattr(certify, "_shift_certificate", lambda *a: calls.append(a[2]) or shift_certificate(*a))
        # accepted by one factorization at the first shift
        assert first_shift_bound(adj, y, w_tot, objective) == _upper_bound(w_tot, 0.0, y, delta)
        assert calls == [delta]
        # refused by one factorization: no bound (Diag(0) - adj has trace
        # 0, so a positive eigenvalue of adj)
        low = np.zeros(n)
        assert first_shift_bound(adj, low, w_tot, objective) is None
        assert calls == [delta, delta]
        # above _FACTOR_MAX_N nothing is factored, so nothing refuses
        monkeypatch.setattr(certify, "_FACTOR_MAX_N", n - 1)
        monkeypatch.setattr(certify, "_shift_certificate", no_factorization)
        cap = float(np.max(radius - low))
        assert first_shift_bound(adj, low, w_tot, objective) == _upper_bound(w_tot, 0.0, low, cap)

    @pytest.mark.parametrize("w_tot, objective, first", [(50.0, 20.0, 20.0), (50.0, 0.0, 50.0), (0.0, 0.0, 1.0)])
    def test_upper_bound_climbs_from_the_first_shift(self, monkeypatch, w_tot, objective, first):
        # the ladder starts at the first shift of the objective, of W when
        # the objective is 0, and of 1 when W is 0 too
        adj, _, radius = diagonal_dual(1)
        y = 0.25 * radius  # refused at the first shift: the ladder climbs
        starts = []
        certified_shift = certify._certified_shift
        monkeypatch.setattr(certify, "_certified_shift",
                            lambda adj, y, delta, stored=None: starts.append(delta) or certified_shift(adj, y, delta))
        got = upper_bound(adj, y, w_tot, objective, lam_sum=0.75)
        delta = _first_shift(first, len(y))
        assert starts == [delta]
        shift = _certified_shift(adj, y, delta)
        assert shift > delta
        assert got == _upper_bound(w_tot, 0.75, y, shift)

    def test_upper_bound_of_a_non_finite_dual_is_w(self):
        adj, y, _ = diagonal_dual(2)
        y[3] = math.nan
        assert upper_bound(adj, y, 50.0, 20.0) == 50.0
