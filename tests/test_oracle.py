from __future__ import annotations

import itertools

import numpy as np
import pytest

from cutflip.instance import Max2LinInstance, evaluate, gen_random_regular
import cutflip.oracle as oracle
from cutflip.harness import main
from cutflip.oracle import brute_force_opt

from conftest import random_instance


def naive_opt(inst):
    """Independent oracle: plain loop over all assignments, no tricks."""
    best = -1.0
    for tail in itertools.product((-1, 1), repeat=inst.n - 1):
        x = np.array((1,) + tail, dtype=np.int8)
        best = max(best, evaluate(inst, x))
    return best


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
