"""cutflip.certify: its two entries, the Gershgorin radii of the entries
(rows, cols, values) it reads, the shift ladder, the elimination of
independent sets and the block Cholesky behind them. A test that starts from
a matrix hands certify its entries through conftest.stored_entries.
"""

from __future__ import annotations

import itertools
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cutflip import certify
from cutflip.certify import (
    _SHIFT_RTOL,
    _certified_shift,
    _first_shift,
    _radii,
    _shift_certificate,
    _upper_bound,
    first_shift_bound,
    upper_bound,
)
import cutflip.sdp as sdp_module
from cutflip.instance import Max2LinInstance, gen_random_regular
from cutflip.sdp import (
    _PATTERNS,
    SdpConfig,
    _ActiveSet,
    _colour_classes,
    _signed_adjacency,
    enumerate_triples,
    solve_sdp,
)

from conftest import also_at, counted_choleskys, no_factorization, simple_graphs, stored_entries, traced_peak

# small graphs take S itself to the Cholesky at the default (no independent
# set pays); with _ELIMINATE_COST at 0 every row of S is eliminated, one
# independent set at a time, and no rows are left to factor; with blocks of
# 2 rows the block Cholesky runs its Schur-complement updates on every S of
# more than 2 rows
on_both_paths = also_at(certify, {"_ELIMINATE_COST": 0}, {"_CHOLESKY_BLOCK": 2})


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


def stored_order_radii(adj: sp.csr_matrix) -> np.ndarray:
    """sum_j |adj_ij| over each row's stored entries, one term at a time in
    their stored order."""
    return np.array([sum(abs(x) for x in adj.data[lo:hi]) for lo, hi in itertools.pairwise(adj.indptr)])


class TestRadii:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixing_adjacency_sums_in_stored_order(self, seed):
        # A permuted into colour classes, as _solve_mixing reads it: its
        # entries list each row out of column order, the CSR form stores them
        # so, and both forms hand certify the same entries, summed in that order
        inst = dense_graph(24, seed)
        n, order = inst.n, _colour_classes(inst)[0]
        forms = []
        for cutoff in (sdp_module._DENSE_LAYER_MAX_N, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sdp_module, "_DENSE_LAYER_MAX_N", cutoff)
                forms.append(_signed_adjacency(inst, order))
        (dense, entries), (csr, csr_entries) = forms
        assert isinstance(dense, np.ndarray) and not csr.has_sorted_indices
        assert [bits(x) for x in entries] == [bits(x) for x in csr_entries]
        assert np.diff(csr.indptr).max() >= 9
        assert bits(_radii(entries, n)) == bits(stored_order_radii(csr))
        np.testing.assert_allclose(_radii(entries, n), _radii(stored_entries(dense), n),
                                   rtol=n * np.finfo(float).eps, atol=0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_alm_layer_dense_and_csr_give_the_same_bits(self, seed):
        # 2 K(lam) of the same active set on both layers; half the
        # multipliers are 0, so pairs off A's edges hold explicit zeros,
        # which both layers hand certify as entries
        inst = dense_graph(20, seed)
        rng = np.random.default_rng(seed)
        triples = enumerate_triples(inst, "all")
        picks = rng.integers(len(triples), size=200), rng.integers(len(_PATTERNS), size=200)
        layers = []
        for cutoff in (sdp_module._DENSE_LAYER_MAX_N, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sdp_module, "_DENSE_LAYER_MAX_N", cutoff)
                layers.append(_ActiveSet(triples, inst))
                layers[-1].add(*picks)  # a rebuild reads the cut-off too
        lam = rng.uniform(0.0, 2.0, len(layers[0])) * (rng.random(len(layers[0])) < 0.5)
        v = rng.standard_normal((inst.n, 3))
        dense, csr = (layer.dual(lam, v)[0] for layer in layers)
        assert [bits(x) for x in dense] == [bits(x) for x in csr]
        rows, _, values = csr
        assert np.any(np.bincount(rows)[rows[values == 0.0]] >= 9)
        assert bits(_radii(dense, inst.n)) == bits(stored_order_radii(2.0 * layers[1].matrix))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_explicit_zeros_leave_the_bits_alone(self, seed):
        # a zero stored among 9 or more entries of a row, where a pairwise
        # sum would pair the terms otherwise
        inst = dense_graph(24, seed)
        n = inst.n
        adj = sp.csr_matrix((inst.nbr_sign * inst.nbr_weight, inst.nbr, inst.indptr), shape=(n, n))
        # the same entries and a zero on the diagonal of every row, in column order
        rows = np.concatenate([np.repeat(np.arange(n), np.diff(adj.indptr)), np.arange(n)])
        cols = np.concatenate([adj.indices, np.arange(n)])
        order = np.lexsort((cols, rows))
        padded = sp.csr_matrix((np.concatenate([adj.data, np.zeros(n)])[order], cols[order],
                                np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])), shape=(n, n))
        assert adj.has_sorted_indices and padded.nnz == adj.nnz + n and np.diff(adj.indptr).max() >= 9
        radii = (_radii(stored_entries(matrix), n) for matrix in (padded, adj, adj.toarray()))
        assert bits(next(radii)) == bits(next(radii)) == bits(next(radii))


def diagonal_dual(seed: int, n: int = 30):
    """(entries, y, radius) for a signed graph on n vertices with
    y = radius: Diag(y) - A is diagonally dominant."""
    inst = dense_graph(n, seed)
    adj = sp.csr_matrix((inst.nbr_sign * inst.nbr_weight, inst.nbr, inst.indptr), shape=(n, n))
    entries = stored_entries(adj)
    radius = _radii(entries, n)
    return entries, radius.copy(), radius


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
                            lambda entries, y, delta: starts.append(delta) or certified_shift(entries, y, delta))
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

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_diagonal_entry_refused(self, monkeypatch, value):
        # A' comes as its entries off the diagonal, so S's diagonal is
        # y + delta: an entry on it, an explicit zero too, is an error in
        # both entries, also where nothing is factored (a y at or above the
        # radii, or above _FACTOR_MAX_N rows)
        adj, y = dominant_dual(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        rows, cols, values = stored_entries(adj)
        entries = np.append(rows, 2), np.append(cols, 2), np.append(values, value)
        for dual in (np.zeros(5), y + 1.0):
            for entry in (upper_bound, first_shift_bound):
                with pytest.raises(ValueError, match="off the diagonal"):
                    entry(entries, dual, 10.0, 4.0)
        monkeypatch.setattr(certify, "_FACTOR_MAX_N", 4)
        for entry in (upper_bound, first_shift_bound):
            with pytest.raises(ValueError, match="off the diagonal"):
                entry(entries, y, 10.0, 4.0)


def dominant_dual(n: int, edges: list) -> tuple[sp.csr_matrix, np.ndarray]:
    """(adj, y) for a signed weighted graph with y_i = sum_j |adj_ij|, so
    that Diag(y) - adj is diagonally dominant: positive semidefinite. adj is
    CSR at any n, which the certificate takes with or without elimination."""
    inst = Max2LinInstance.from_edges(
        n, [(i, j, 1 if k % 2 else -1, 1.0 + 0.25 * (k % 3)) for k, (i, j) in enumerate(edges)]
    )
    adj = sp.csr_matrix((inst.nbr_sign * inst.nbr_weight, inst.nbr, inst.indptr), shape=(n, n))
    return adj, _radii(stored_entries(adj), n)


class TestCertificate:
    """_shift_certificate (one factorization) and _certified_shift (its ladder),
    each test with S itself factored and with every row eliminated."""

    @given(
        graph=simple_graphs(),
        margin=st.floats(1e-3, 2.0),
        eta=st.floats(1e-6, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    @on_both_paths
    def test_known_negative_eigenvalue_refused(self, graph, margin, eta, seed):
        n, edges = graph
        adj, y = dominant_dual(n, edges)
        s = np.diag(y + margin) - adj.toarray()  # strictly dominant: definite
        assert _shift_certificate(stored_entries(adj), y, margin)
        # S - eps u u^T with u^T S u - eps = -eta: lambda_min <= -eta
        u = np.random.default_rng(seed).standard_normal(n)
        u /= np.linalg.norm(u)
        eps = float(u @ s @ u) + eta
        lowered = s - eps * np.outer(u, u)
        # eigvalsh is backward stable: it may read a few ulps of ||lowered||
        # high (edgeless n=9, margin 2, eta 1e-6, seed 0: -eta + 1.1e-15)
        roundoff = 8 * n * np.finfo(float).eps * float(np.abs(lowered).max())
        assert np.linalg.eigvalsh(lowered)[0] <= -eta * (1 - 1e-9) + roundoff
        # the same S with A' off its diagonal: eps u_i^2 moves into y
        full = adj.toarray() + eps * np.outer(u, u)
        y_lowered = y - full.diagonal()
        np.fill_diagonal(full, 0.0)
        assert not _shift_certificate(stored_entries(sp.csr_matrix(full)), y_lowered, margin)

    @given(graph=simple_graphs(), seed=st.integers(0, 2**32 - 1), delta=st.floats(1e-6, 1.0))
    @settings(max_examples=100, deadline=None)
    @on_both_paths
    def test_certified_shift_is_psd_and_capped(self, graph, seed, delta):
        # y anywhere: the ladder ends at a shift that makes S positive
        # semidefinite, at most the Gershgorin shift
        n, edges = graph
        adj, radius = dominant_dual(n, edges)
        y = np.random.default_rng(seed).uniform(-1.0, 1.0, n) * (1.0 + radius)
        shift = _certified_shift(stored_entries(adj), y, delta)
        assert 0.0 <= shift <= max(0.0, float(np.max(radius - y)))
        s = np.diag(y + shift) - adj.toarray()
        assert np.linalg.eigvalsh(s)[0] >= -1e-9 * (1.0 + np.abs(s).max())


    @given(graph=simple_graphs(), seed=st.integers(0, 2**32 - 1), delta=st.floats(1e-6, 1.0))
    @settings(max_examples=100, deadline=None)
    @on_both_paths
    def test_refused_first_shift_is_bisected_to_the_least(self, graph, seed, delta):
        # the least certifying shift is -lambda_min(Diag(y) - adj); after a
        # refusal the shift lands within _SHIFT_RTOL above it, and a first
        # shift that certifies comes back as it is
        n, edges = graph
        adj, radius = dominant_dual(n, edges)
        y = np.random.default_rng(seed).uniform(-1.0, 1.0, n) * (1.0 + radius)
        least = max(0.0, -float(np.linalg.eigvalsh(np.diag(y) - adj.toarray())[0]))
        shift = _certified_shift(stored_entries(adj), y, delta)
        slack = 1e-9 * (1.0 + float(np.abs(y).max()) + float(radius.max(initial=0.0)))
        assert shift >= least - slack
        if delta < least - slack:
            assert shift <= least / (1.0 - _SHIFT_RTOL) + slack
        elif delta > least + slack:
            assert shift == min(delta, max(0.0, float(np.max(radius - y))))

    @on_both_paths
    def test_nan_dual_refused(self):
        # LAPACK's Cholesky lets a NaN pivot through; the certificate must not
        adj, y = dominant_dual(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        entries = stored_entries(adj)
        assert _shift_certificate(entries, y, 1.0)
        y[2] = math.nan
        assert not _shift_certificate(entries, y, 1.0)

    def test_non_finite_dual_takes_no_shift(self, monkeypatch):
        # no finite shift certifies a y with a NaN: the ladder's cap is NaN,
        # which no comparison passes, so it must not return delta unfactored
        adj, _ = dominant_dual(3, [(0, 1), (1, 2)])
        calls = []
        monkeypatch.setattr(certify, "_shift_certificate", lambda *args: calls.append(args) or True)
        for bad in (math.nan, math.inf, -math.inf):
            assert _certified_shift(stored_entries(adj), np.array([1.0, bad, 1.0]), 0.01) == math.inf
        adj.data[0] = math.nan  # a radius that is not finite
        assert _certified_shift(stored_entries(adj), np.ones(3), 0.01) == math.inf
        assert calls == []

    def test_certified_shift_is_the_gershgorin_cap(self, monkeypatch):
        adj, radius = dominant_dual(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
        y = np.full(6, 0.5)
        monkeypatch.setattr(certify, "_FACTOR_MAX_N", 5)
        monkeypatch.setattr(certify, "_shift_certificate", no_factorization)
        assert _certified_shift(stored_entries(adj), y, 1e-6) == float(np.max(radius - y))

    def test_upper_bound_is_w_unless_finite_and_below(self):
        y = np.array([1.0, 2.0, 3.0])
        assert _upper_bound(10.0, 0.5, y, 0.4) == 5.0 + 0.5 + 0.25 * (6.0 + 3 * 0.4) < 10.0
        assert _upper_bound(10.0, 0.5, y, 40.0) == 10.0
        for y_bad, shift in [([1.0, -math.inf, 3.0], 0.4), ([1.0, math.nan, 3.0], 0.4),
                             ([1.0, 2.0, 3.0], math.inf), ([1.0, -math.inf, 3.0], math.inf)]:
            assert _upper_bound(10.0, 0.5, np.array(y_bad), shift) == 10.0
        assert _upper_bound(10.0, math.nan, y, 0.4) == 10.0
        # a star whose edges all hold: y_i = W, 1, 0.3 sums to 2W, so the bound
        # is W, but y_0 one ulp low rounds the sum's bound an ulp below W
        low = np.array([np.nextafter(1.3, 0.0), 1.0, 0.3])
        assert 0.5 * 1.3 + 0.25 * float(np.sum(low)) < 1.3
        assert _upper_bound(1.3, 0.0, low, 0.0) == 1.3


def symmetric_pattern(edges: list) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of a graph's entries in both directions, sorted by row."""
    pairs = sorted({(i, j) for a, b in edges for i, j in ((a, b), (b, a))})
    rows, cols = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return rows, cols


def indefinite_dual(n: int, d: int) -> tuple[sp.csr_matrix, np.ndarray, float]:
    """(adj, y, lambda_min(Diag(y) - adj)) for a signed U(0.3, 2) d-regular
    graph on n vertices and y uniform in [0, radius]; lambda_min < -0.1."""
    inst = gen_random_regular(n, d, 0.5, ("uniform", 0.3, 2.0), seed=n + d)
    adj = _signed_adjacency(inst, np.arange(n))[0]
    radius = np.asarray(abs(adj).sum(axis=1)).ravel()
    y = np.random.default_rng(d).uniform(0.0, 1.0, n) * radius
    lam = float(np.linalg.eigvalsh(np.diag(y) - adj.toarray())[0])
    assert lam < -0.1
    return adj, y, lam


class TestElimination:
    """_eliminated: the independent sets and the certificate decisions they give."""

    @given(graph=simple_graphs(max_n=40), order=st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_independent_set_is_maximal_and_repeatable(self, graph, order):
        n, edges = graph
        rows, cols = symmetric_pattern(edges)
        chosen = certify._independent_set(rows, cols, n)
        assert chosen.dtype == bool and chosen.shape == (n,)
        assert not np.any(chosen[rows] & chosen[cols])  # independent
        covered = chosen.copy()
        covered[cols[chosen[rows]]] = True
        assert covered.all()  # maximal: every vertex left out has a neighbour in
        np.testing.assert_array_equal(certify._independent_set(rows, cols, n), chosen)
        # the set depends on the pattern, not on the order of its entries
        perm = np.arange(len(rows))
        order.shuffle(perm)
        np.testing.assert_array_equal(certify._independent_set(rows[perm], cols[perm], n), chosen)

    @pytest.mark.parametrize("n", [600, 1000])
    @pytest.mark.parametrize("d", [3, 6])
    def test_decisions_agree_with_eigvalsh(self, n, d, monkeypatch):
        adj, y, lam = indefinite_dual(n, d)
        entries = stored_entries(adj)
        factored = counted_choleskys(monkeypatch)
        assert _shift_certificate(entries, y, -lam + 1e-6 * abs(lam))
        rows = sum(factored)
        assert not _shift_certificate(entries, y, -lam - 1e-6 * abs(lam))
        # the elimination ran: the accepted call's Cholesky blocks cover
        # fewer than n rows
        assert 0 < factored[0] <= rows < n

    @pytest.mark.parametrize("pivot", [-1.0, 0.0, math.nan])
    def test_bad_pivot_refuses_before_any_cholesky(self, pivot, monkeypatch):
        # vertex 0 has the least (degree, index) key of a regular graph, so
        # the first independent set eliminates it, and its pivot y_0 + delta
        inst = gen_random_regular(600, 4, 0.5, ("uniform", 0.3, 2.0), seed=0)
        adj, entries = _signed_adjacency(inst, np.arange(inst.n))
        y = np.asarray(abs(adj).sum(axis=1)).ravel()
        factored = counted_choleskys(monkeypatch)
        assert _shift_certificate(entries, y, 1.0)
        accepted = len(factored)  # one Cholesky per block of the remainder
        assert accepted > 0
        y[0] = pivot - 1.0
        assert not _shift_certificate(entries, y, 1.0)
        assert len(factored) == accepted

    @pytest.mark.parametrize("form", [np.asarray, sp.csr_matrix])
    def test_pattern_without_entries_is_decided_by_its_pivots(self, form, monkeypatch):
        # no entries: one independent set holds every row, so nothing is
        # left to factor, and the pivots y_i + delta decide
        n = 40
        entries, y = stored_entries(form(np.zeros((n, n)))), np.ones(n)
        factored = counted_choleskys(monkeypatch)
        assert certify._eliminated(entries, y) == []
        assert _shift_certificate(entries, y, 0.0)
        for pivot in (-1.0, 0.0, math.nan):
            low = y.copy()
            low[n // 2] += pivot - 1.0
            assert not _shift_certificate(entries, low, 0.0)
        assert factored == []

    def test_none_mode_solve_factors_fewer_rows_than_n(self, monkeypatch):
        # at n = 300, below any size cut-off, the mixing method's
        # certificates eliminate before they factor: each hands its Cholesky
        # blocks fewer than n rows. Climbing from rank 4 they refuse and then
        # accept, as eigvalsh decides
        inst = gen_random_regular(300, 4, 0.5, "unit", seed=0)
        factored = counted_choleskys(monkeypatch)
        decisions = []
        shift_certificate = certify._shift_certificate

        def recording(entries, y, delta):
            before = len(factored)
            definite = shift_certificate(entries, y, delta)
            decisions.append((entries, y.copy(), delta, definite, sum(factored[before:])))
            return definite

        monkeypatch.setattr(certify, "_shift_certificate", recording)
        _, rep = solve_sdp(inst, SdpConfig(triangle_mode="none", rank=4))
        assert rep.converged
        assert [definite for _, _, _, definite, _ in decisions][-2:] == [False, True]
        for (i, j, values), y, delta, definite, rows in decisions:
            assert 0 < rows < inst.n
            s = np.diag(y + delta)
            s[i, j] -= values
            lam = float(np.linalg.eigvalsh(s)[0])
            assert abs(lam) > 1e-9 * np.abs(s).max()  # decided well away from roundoff
            assert definite == (lam > 0.0)


def block_edges(r: int) -> list:
    """The first column of each block of an r-row remainder, then r: blocks
    of _CHOLESKY_BLOCK columns but the last, which takes the rest, up to
    twice that."""
    b = certify._CHOLESKY_BLOCK
    return [*range(0, max(r - b, 1), b), r]


def block_widths(r: int) -> list:
    """The columns of each block of an r-row remainder."""
    return np.diff(block_edges(r)).tolist()


def column_blocks(s: np.ndarray) -> list:
    """Copies of s's column blocks, as _positive_definite reads them: block
    c holds rows lo..r of columns lo..hi, with the upper triangle of its
    leading square as s has it."""
    return [s[lo:, lo:hi].copy() for lo, hi in itertools.pairwise(block_edges(len(s)))]


def recorded_sets(monkeypatch) -> list:
    """Every independent set _eliminated draws from now on, each a mask over
    the rows left when it was drawn."""
    sets = []
    independent_set = certify._independent_set

    def recording(*args):
        sets.append(independent_set(*args))
        return sets[-1]

    monkeypatch.setattr(certify, "_independent_set", recording)
    return sets


def dense_schur(s: np.ndarray, sets: list, r: int) -> np.ndarray:
    """The reference remainder: S_RR - S_RI diag(1 / S_II) S_IR for each
    independent set I of sets in turn (R the rows left), by plain dense
    elimination, until r rows are left."""
    for chosen in sets:
        if len(s) == r:
            break
        keep = ~chosen
        s = s[np.ix_(keep, keep)] - s[np.ix_(keep, chosen)] / s.diagonal()[chosen] @ s[np.ix_(chosen, keep)]
    assert len(s) == r
    return s


class TestRemainder:
    """What _eliminated hands the block Cholesky: the remainder's lower
    triangle in column blocks, and the memory the certificate holds for it."""

    @pytest.mark.parametrize("n, d", [(1000, 3), (2000, 4)])
    def test_blocks_are_the_lower_triangle_of_the_schur_complement(self, n, d, monkeypatch):
        # block c holds rows lo..r of columns lo..hi of the remainder that a
        # plain dense elimination of the same independent sets leaves, and
        # no entry above its diagonal, across every block boundary
        adj, y, lam = indefinite_dual(n, d)
        sets = recorded_sets(monkeypatch)
        blocks = certify._eliminated(stored_entries(adj), y - lam)
        r = len(blocks[0])
        edges = block_edges(r)
        assert [block.shape for block in blocks] == [(r - lo, hi - lo) for lo, hi in itertools.pairwise(edges)]
        assert len(blocks) >= 3
        schur = np.tril(dense_schur(np.diag(y - lam) - adj.toarray(), sets, r))
        scale = float(np.abs(schur).max())
        for (lo, hi), block in zip(itertools.pairwise(edges), blocks):
            assert not np.triu(block[: hi - lo], 1).any()
            np.testing.assert_allclose(block, schur[lo:, lo:hi], rtol=1e-12, atol=1e-12 * scale)

    def test_one_block_is_the_lower_triangle_of_s(self):
        # up to twice _CHOLESKY_BLOCK rows left the remainder is one block,
        # all of S's lower triangle when no set pays, and nothing above it
        entries, y, _ = diagonal_dual(0, n=40)
        rows, cols, values = entries
        s = np.diag(y)
        s[rows, cols] -= values
        assert np.count_nonzero(np.triu(s, 1)) > 40
        blocks = certify._eliminated(entries, y)
        assert len(blocks) == 1 and np.array_equal(blocks[0], np.tril(s))

    @pytest.mark.parametrize("r", [1, 2, 127, 128, 129, 255, 256, 257])
    @on_both_paths
    def test_decisions_agree_with_eigvalsh_at_every_size(self, r):
        # one layout at every size: the blocks of an r-row remainder are cut
        # at 0, b, 2b, ..., r, one block up to 2b rows, and the certificate
        # of S = Diag(y) - A' + delta I, of the blocks alone too, decides as
        # eigvalsh does just above and below -lambda_min(Diag(y) - A')
        rng = np.random.default_rng(r)
        adj = rng.standard_normal((r, r)) * (rng.random((r, r)) < 0.3)
        adj = np.triu(adj, 1) + np.triu(adj, 1).T
        y = rng.uniform(0.0, 1.0, r)
        lam = float(np.linalg.eigvalsh(np.diag(y) - adj)[0])
        entries, upper = stored_entries(adj), np.triu_indices(r, 1)
        for delta, definite in ((-lam + 1e-6 * (1.0 + abs(lam)), True), (-lam - 1e-6 * (1.0 + abs(lam)), False)):
            assert _shift_certificate(entries, y, delta) == definite
            blocks = certify._lower_blocks(*upper, -adj[upper], y + delta)
            assert [block.shape[1] for block in blocks] == block_widths(r)
            assert certify._positive_definite(blocks) == definite

    def test_empty_remainder_certifies(self):
        empty = np.array([], dtype=np.int64)
        assert certify._lower_blocks(empty, empty, np.array([]), np.array([])) == []
        assert certify._positive_definite([])
        assert _shift_certificate((empty, empty, np.array([])), np.array([]), 0.0)

    def test_certificate_holds_less_than_one_dense_copy(self, monkeypatch):
        # the certificate's peak is at most the blocks (r(r + b)/2 floats for
        # r rows left and blocks of b columns), X and one column block of
        # X^T X (b r floats each) and 24 bytes per entry above the
        # remainder's diagonal (row, column and value): below one r x r copy
        adj, y, lam = indefinite_dual(2000, 4)
        entries = stored_entries(adj)
        sets = recorded_sets(monkeypatch)
        factored = counted_choleskys(monkeypatch)
        definite, peak = traced_peak(lambda: _shift_certificate(entries, y, -lam + 1e-6 * abs(lam)))
        r, b = sum(factored), certify._CHOLESKY_BLOCK
        assert definite and len(factored) >= 3
        stored = np.count_nonzero(np.triu(dense_schur(np.diag(y - lam) - adj.toarray(), sets, r), 1))
        assert peak <= 8 * (r * (r + b) / 2 + 2 * b * r) + 24 * stored
        assert peak < 8 * r * r


def spd_factor(r: int, seed: int) -> np.ndarray:
    """A random lower-triangular L with diagonal in [1, 2]; L L^T is
    positive definite, and its Cholesky pivots are the diagonal of L."""
    rng = np.random.default_rng(seed)
    lower = np.tril(rng.standard_normal((r, r)), -1) / math.sqrt(r)
    return lower + np.diag(rng.uniform(1.0, 2.0, r))


class TestBlockCholesky:
    """_positive_definite: column blocks of _CHOLESKY_BLOCK columns, each
    factored once the Schur complement of the blocks before it has
    overwritten it, and dropped once factored."""

    @pytest.mark.parametrize("n, d, blocks", [(1000, 3, 3), (2000, 4, 6)])
    def test_decisions_agree_with_eigvalsh_across_blocks(self, n, d, blocks, monkeypatch):
        # elimination leaves a remainder of three blocks at n = 1000, of six
        # at n = 2000
        adj, y, lam = indefinite_dual(n, d)
        entries = stored_entries(adj)
        factored = counted_choleskys(monkeypatch)
        assert _shift_certificate(entries, y, -lam + 1e-6 * abs(lam))
        assert len(factored) == blocks and factored == block_widths(sum(factored))
        assert not _shift_certificate(entries, y, -lam - 1e-6 * abs(lam))

    @pytest.mark.parametrize("fill", [math.nan, math.inf, 1e3])
    def test_upper_triangle_of_each_square_is_never_read(self, fill):
        # the only entries above the diagonal a block can hold are those of
        # its leading square, which numpy's Cholesky does not read: fill
        # there changes no decision
        adj, y, lam = indefinite_dual(600, 3)
        rng = np.random.default_rng(0)
        for delta, definite in ((-lam + 1e-6 * abs(lam), True), (-lam - 1e-6 * abs(lam), False)):
            blocks = column_blocks(np.diag(y + delta) - adj.toarray())
            assert len(blocks) >= 3
            for block in blocks:
                upper = np.triu_indices(block.shape[1], 1)
                block[upper] = fill * rng.uniform(-1.0, 1.0, len(upper[0]))
            assert certify._positive_definite(blocks) == definite

    @pytest.mark.parametrize("pivot", [-1.0, -1e-6, math.nan])
    def test_bad_pivot_in_the_last_block_refused(self, pivot, monkeypatch):
        # every pivot but the last is in [1, 2]; the last, in the last
        # block, is sqrt(pivot)
        chol = spd_factor(600, 0)
        s = chol @ chol.T
        s[-1, -1] += pivot - chol[-1, -1] ** 2
        factored = counted_choleskys(monkeypatch)
        assert not certify._positive_definite(column_blocks(s))
        assert len(factored) >= 3 and factored == block_widths(600)
        s = chol @ chol.T
        s[-1, -1] += 1e-6 - chol[-1, -1] ** 2
        assert certify._positive_definite(column_blocks(s))

    def test_nan_reaching_only_a_later_pivot_refused(self, monkeypatch):
        # the NaN lies below the first block's square, which factors; the
        # Schur updates carry it to the pivot of row 300, in the block that
        # holds that row, which refuses
        chol = spd_factor(600, 1)
        s = chol @ chol.T
        s[300, 5] = math.nan
        factored = counted_choleskys(monkeypatch)
        assert not certify._positive_definite(column_blocks(s))
        assert len(factored) >= 2 and factored == block_widths(600)[: 300 // certify._CHOLESKY_BLOCK + 1]
        s = chol @ chol.T
        s[5, 300] = math.nan  # above the diagonal, outside every block
        assert certify._positive_definite(column_blocks(s))

    def test_drops_each_block_once_factored(self):
        # beside the blocks the routine holds X and one column block of
        # X^T X, at most b x (r - b) each, and the square's factor, its
        # inverse and LAPACK's working copy, b x b each; when the blocks
        # after a block take its Schur complement, that block is gone
        r, b = 1500, certify._CHOLESKY_BLOCK
        chol = spd_factor(r, 2)
        held, alive = [], []

        class Watched(np.ndarray):
            def __isub__(self, other):
                alive.append(sum(ref() is not None for ref in held))
                return super().__isub__(other)

        blocks = [block.view(Watched) for block in column_blocks(chol @ chol.T)]
        held.extend(weakref.ref(block) for block in blocks)
        bound = 8 * (2 * b * (r - b) + 3 * b * b)
        definite, peak = traced_peak(lambda: certify._positive_definite(blocks))
        k = len(held)
        assert definite and blocks == [] and k >= 3
        assert alive == [k - 1 - c for c in range(k) for _ in range(k - 1 - c)]
        assert peak <= bound < 8 * r * r / 2
