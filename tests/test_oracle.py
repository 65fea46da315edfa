from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutflip.instance import Max2LinInstance, evaluate, gen_random_regular
import cutflip.oracle as oracle
from cutflip.harness import main
from cutflip.oracle import brute_force_opt

from conftest import random_instance, traced_peak


def naive_opt(inst):
    """Independent oracle: plain loop over all assignments, no tricks."""
    best = -1.0
    for tail in itertools.product((-1, 1), repeat=inst.n - 1):
        x = np.array((1,) + tail, dtype=np.int8)
        best = max(best, evaluate(inst, x))
    return best


def in_mask_order(inst):
    """Every assignment the oracle enumerates, in its mask order: vertices
    without edges at +1, and of the k others the first at +1 and the b-th,
    b >= 1, at +1 iff bit b-1 of the mask is set."""
    live = np.flatnonzero(np.diff(inst.indptr))
    for mask in range(1 << max(len(live) - 1, 0)):
        x = np.ones(inst.n, dtype=np.int8)
        x[live[1:]] = [1 if mask >> b & 1 else -1 for b in range(len(live) - 1)]
        yield x


DYADIC = (0.25, 0.5, 1.0, 1.75)
NON_DYADIC = (0.1, 0.3, 0.7, 1 / 3)


@st.composite
def oracle_cases(draw):
    """(instance, block bits, retie limit or None for the default).

    n runs from 1 to 13, edgeless graphs and isolated vertices included, with
    mixed signs. A small retie limit draws dyadic weights only: collapsed
    blocks keep their fast maximum, which is the first exact maximizer only
    when block sums are exact.
    """
    n = draw(st.integers(1, 13))
    retie = draw(st.sampled_from([None, 1, 5]))
    weights = DYADIC if retie else DYADIC + NON_DYADIC
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    edges = [(i, j, draw(st.sampled_from((-1, 1))), draw(st.sampled_from(weights))) for i, j in chosen]
    return Max2LinInstance.from_edges(n, edges), draw(st.integers(2, 6)), retie


def test_single_edge(single_edge):
    res = brute_force_opt(single_edge)
    assert res.opt == 1.0
    assert res.enumerated == 2


def test_triangle(triangle):
    # 4 sign classes: all-equal gets 0, the three 2-1 splits get 2
    res = brute_force_opt(triangle)
    assert res.opt == 2.0
    assert res.enumerated == 4


def test_five_cycle(five_cycle):
    # odd cycle cannot be fully cut
    assert brute_force_opt(five_cycle).opt == 4.0


def test_argmax_achieves_opt(triangle):
    res = brute_force_opt(triangle)
    assert evaluate(triangle, res.argmax) == res.opt


@pytest.mark.parametrize("seed", range(12))
def test_agrees_with_naive_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    inst = random_instance(rng, n)
    assert brute_force_opt(inst).opt == naive_opt(inst)


@given(case=oracle_cases())
# the only satisfiable edge needs the top mask bit: later blocks reset the
# candidates of the first ones
@example(case=(Max2LinInstance.from_edges(13, [(0, 12, 1, 0.3)]), 2, None))
# every assignment ties at 0: the candidates overflow the retie limit
@example(case=(Max2LinInstance.from_edges(13, []), 6, 5))
# isolated vertices, vertex 0 among them, take +1 and are not enumerated
@example(case=(Max2LinInstance.from_edges(13, [(2, 9, -1, 0.3), (4, 9, 1, 0.7), (9, 12, -1, 1 / 3)]), 2, None))
@example(case=(Max2LinInstance.from_edges(12, [(1, 5, -1, 1.0), (5, 11, -1, 1.0), (3, 8, 1, 0.25)]), 2, 1))
@settings(max_examples=60, deadline=None)
def test_split_enumeration_matches_naive(case):
    inst, block_bits, retie = case
    with pytest.MonkeyPatch.context() as mp:
        # blocks of at most 2^block_bits values, so several blocks run
        mp.setattr(oracle, "_BLOCK", 1 << block_bits)
        if retie is not None:
            mp.setattr(oracle, "_RETIE_LIMIT", retie)
        res = brute_force_opt(inst)
    assert res.opt == naive_opt(inst)
    assert res.enumerated == len(list(in_mask_order(inst)))
    first = next(x for x in in_mask_order(inst) if evaluate(inst, x) == res.opt)
    assert res.argmax.tolist() == first.tolist()


def test_bipartite_cycle_at_the_cap():
    # the 26-cycle with unit cut edges is bipartite, so every edge is cut
    n = oracle.DEFAULT_CAP
    inst = Max2LinInstance.from_edges(n, [(v, (v + 1) % n, -1, 1.0) for v in range(n)])
    res = brute_force_opt(inst)
    assert res.opt == inst.m
    assert evaluate(inst, res.argmax) == inst.m
    assert res.enumerated == 1 << (n - 1)


def test_all_ties_at_the_cap_stay_in_bounded_memory(monkeypatch):
    # a unit cut edge and a star of 2^-40 cut edges, far below the re-tie
    # slack: the 2^24 assignments that cut the unit edge tie (vertices
    # without edges would not be enumerated); near-maximal candidates are
    # kept as mask integers, not as one +-1 row of n bytes (and wider
    # temporaries) per tie
    n = oracle.DEFAULT_CAP
    inst = Max2LinInstance.from_edges(n, [(0, 1, -1, 1.0)] + [(1, v, -1, 2.0**-40) for v in range(2, n)])
    rescored = []
    monkeypatch.setattr(oracle, "evaluate", lambda i, x: rescored.append(x) or evaluate(i, x))
    res, peak = traced_peak(lambda: brute_force_opt(inst))
    assert res.enumerated == 1 << (n - 1)
    assert res.opt == inst.total_weight
    assert res.argmax.tolist() == [1, -1] + [1] * (n - 2)
    # once the ties overflow _RETIE_LIMIT, each block keeps only its best row
    assert len(rescored) <= (1 << (inst.n - 1)) // oracle._BLOCK
    # eight blocks of float64, and the retie list: _RETIE_LIMIT int64 masks
    # and as many float64 values
    assert peak <= 8 * 8 * oracle._BLOCK + 16 * oracle._RETIE_LIMIT


def test_ties_are_rescored_in_stacked_chunks(monkeypatch):
    # a unit cut edge and a star of 2^-40 cut edges on n=20 leave 2^18 ties
    # within the re-tie slack, all kept for re-scoring
    inst = Max2LinInstance.from_edges(20, [(0, 1, -1, 1.0)] + [(1, v, -1, 2.0**-40) for v in range(2, 20)])
    calls = []
    monkeypatch.setattr(oracle, "evaluate", lambda i, x: calls.append(len(x)) or evaluate(i, x))
    res = brute_force_opt(inst)
    assert res.opt == inst.total_weight
    assert res.argmax.tolist() == [1, -1] + [1] * 18  # the one maximizer
    assert sum(calls) == 1 << 18
    assert len(calls) == (1 << 18) // oracle._RETIE_CHUNK


def test_isolated_vertices_are_not_enumerated(monkeypatch):
    # 18 of 24 vertices have no edges: 2^5 assignments of the other six are
    # scored, not 2^23, of which 2^20 tie at OPT
    inst = Max2LinInstance.from_edges(24, [(0, 5, -1, 1.0), (3, 20, 1, 0.5), (7, 11, -1, 2.0)])
    calls = []
    monkeypatch.setattr(oracle, "evaluate", lambda i, x: calls.append(len(x)) or evaluate(i, x))
    res = brute_force_opt(inst)
    assert len(calls) <= 2 and sum(calls) <= 1 << 5
    assert res.enumerated == 1 << 5
    assert res.opt == inst.total_weight == evaluate(inst, res.argmax)
    isolated = np.diff(inst.indptr) == 0
    assert isolated.sum() == 18 and np.all(res.argmax[isolated] == 1)


def assert_peak_within_two_blocks(n):
    # the peak is one block of _BLOCK float64 values and tables of tens of
    # KB beside it, whatever n (4.6 MB at n=22 and 6.0 MB at n=26 with
    # blocks of 2^18 values)
    inst = gen_random_regular(n, 4, 0.5, ("uniform", 0.3, 2.0), seed=3)
    res, peak = traced_peak(lambda: brute_force_opt(inst))
    assert evaluate(inst, res.argmax) == res.opt
    assert peak <= 2 * 8 * oracle._BLOCK


def test_desk_size_stays_in_a_few_blocks():
    # n=22 enumerates 2^21 assignments, 32 blocks
    assert_peak_within_two_blocks(22)


def test_cap_size_stays_in_a_few_blocks():
    # n=26 enumerates 2^25 assignments, 512 blocks
    assert_peak_within_two_blocks(oracle.DEFAULT_CAP)


@pytest.mark.parametrize("seed", range(6))
def test_relabeling_invariance(seed):
    rng = np.random.default_rng(1000 + seed)
    inst = random_instance(rng, 10)
    perm = rng.permutation(10)
    relabeled = Max2LinInstance.from_edges(
        10, [(int(perm[i]), int(perm[j]), b, w) for i, j, b, w in inst.edges()]
    )
    # dyadic weights make both enumerations exact
    assert brute_force_opt(inst).opt == brute_force_opt(relabeled).opt


def test_cap_refusal():
    inst = gen_random_regular(30, 3, seed=0)
    with pytest.raises(ValueError, match="cap"):
        brute_force_opt(inst)
    brute_force_opt(gen_random_regular(14, 3, seed=0))  # below cap: fine


def test_near_ties_keep_the_best_row(monkeypatch):
    # five unit cut edges give many exact ties; a 1e-10 cut edge on the last
    # two vertices separates them by far less than the re-tie slack, and the
    # last near-tie row in enumeration order (x_10 = x_11 = +1) violates it
    edges = [(2 * k, 2 * k + 1, -1, 1.0) for k in range(5)] + [(10, 11, -1, 1e-10)]
    inst = Max2LinInstance.from_edges(12, edges)
    exact = brute_force_opt(inst)
    assert exact.opt == 5.0 + 1e-10
    monkeypatch.setattr(oracle, "_RETIE_LIMIT", 4)
    capped = brute_force_opt(inst)
    assert capped.opt == exact.opt
    assert evaluate(inst, capped.argmax) == exact.opt


def test_ratio_zero_opt_flagged(tmp_path, capsys):
    # an edgeless instance has OPT = 0: the ratio is reported as None
    p = tmp_path / "empty.txt"
    p.write_text("3 0\n")
    assert main(["solve", str(p), "--oracle"]) == 0
    assert "oracle_opt=0.0 ratio_vs_opt=None" in capsys.readouterr().out
