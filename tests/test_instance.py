from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutflip.instance import (
    InstanceError,
    Max2LinInstance,
    evaluate,
    gen_random_regular,
    parse_instance,
    write_instance,
)

from conftest import random_instance


class TestParse:
    def test_smallest_instance(self):
        inst = parse_instance("2 1\n0 1 -1 1.0")
        assert inst.n == 2 and inst.m == 1 and inst.max_degree == 1
        assert list(inst.edges()) == [(0, 1, -1, 1.0)]

    def test_unit_triangle(self, triangle):
        assert triangle.n == 3 and triangle.m == 3 and triangle.max_degree == 2
        assert np.all(triangle.sign == -1)

    def test_zero_weight_rejected(self):
        with pytest.raises(InstanceError, match="line 2"):
            parse_instance("2 1\n0 1 -1 0.0")

    def test_negative_weight_rejected(self):
        with pytest.raises(InstanceError, match="> 0"):
            parse_instance("2 1\n0 1 -1 -2.0")

    def test_malformed_line_names_lineno(self):
        with pytest.raises(InstanceError, match="line 3"):
            parse_instance("3 2\n0 1 -1 1.0\n0 2 -1")

    def test_index_out_of_range(self):
        with pytest.raises(InstanceError, match="out of range"):
            parse_instance("2 1\n0 5 -1 1.0")

    def test_duplicate_edge(self):
        with pytest.raises(InstanceError, match="duplicate"):
            parse_instance("3 2\n0 1 -1 1.0\n1 0 1 2.0")

    def test_self_loop(self):
        with pytest.raises(InstanceError, match="self-loop"):
            parse_instance("3 1\n1 1 -1 1.0")

    def test_bad_sign(self):
        with pytest.raises(InstanceError, match="sign"):
            parse_instance("2 1\n0 1 2 1.0")

    def test_edge_count_mismatch(self):
        with pytest.raises(InstanceError, match="m=2"):
            parse_instance("3 2\n0 1 -1 1.0")

    def test_comments_and_blanks_skipped(self):
        inst = parse_instance("# header\n\n2 1\n# edge below\n0 1 -1 1.5\n")
        assert inst.m == 1 and inst.weight[0] == 1.5

    def test_reversed_endpoints_normalized(self):
        inst = parse_instance("3 1\n2 0 1 1.0")
        assert list(inst.edges()) == [(0, 2, 1, 1.0)]


class TestAdjacency:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 12),
        raw=st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11), st.sampled_from([-1, 1]),
                      st.floats(0.1, 4.0)),
            max_size=40,
        ),
    )
    def test_neighbors_follow_stored_edge_order(self, n, raw):
        edges, seen = [], set()
        for i, j, b, w in raw:
            i, j = i % n, j % n
            if i != j and frozenset((i, j)) not in seen:
                seen.add(frozenset((i, j)))
                edges.append((i, j, b, w))
        inst = Max2LinInstance.from_edges(n, edges)
        ref = [[] for _ in range(n)]
        for i, j, b, w in inst.edges():
            ref[i].append((j, b, w))
            ref[j].append((i, b, w))
        for v in range(n):
            nbrs, signs, weights = inst.neighbors(v)
            assert list(zip(nbrs.tolist(), signs.tolist(), weights.tolist())) == ref[v]
            assert not nbrs.flags.writeable
        assert inst.degrees.tolist() == [len(r) for r in ref]
        assert inst.max_degree == max(len(r) for r in ref)


class TestWrite:
    def test_roundtrip_triangle(self, triangle):
        assert parse_instance(write_instance(triangle)) == triangle

    def test_edge_order_preserved(self):
        inst = Max2LinInstance.from_edges(4, [(2, 3, 1, 1.0), (0, 1, -1, 2.0)])
        lines = write_instance(inst).splitlines()
        assert lines[1].startswith("2 3") and lines[2].startswith("0 1")

    def test_full_precision_weights(self):
        w = 0.1 + 0.2  # not exactly representable in decimal
        inst = Max2LinInstance.from_edges(2, [(0, 1, -1, w)])
        out = parse_instance(write_instance(inst))
        assert out.weight[0] == w

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 15))
    def test_roundtrip_random(self, seed, n):
        inst = random_instance(np.random.default_rng(seed), n)
        assert parse_instance(write_instance(inst)) == inst


class TestGenerator:
    def test_k4_is_unique_cubic_graph(self):
        inst = gen_random_regular(4, 3, sign_bias=1.0, weight_law="unit", seed=7)
        assert inst.m == 6 and np.all(inst.sign == -1) and np.all(inst.weight == 1.0)
        assert sorted((i, j) for i, j, _, _ in inst.edges()) == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
        ]

    def test_regularity(self):
        inst = gen_random_regular(10, 3, seed=11)
        assert np.all(inst.degrees == 3)

    def test_determinism(self):
        a = gen_random_regular(10, 3, 0.5, ("uniform", 0.5, 2.0), seed=42)
        b = gen_random_regular(10, 3, 0.5, ("uniform", 0.5, 2.0), seed=42)
        assert a == b

    def test_odd_nd_rejected(self):
        with pytest.raises(InstanceError, match="even"):
            gen_random_regular(5, 3, seed=0)

    def test_infeasible_degree(self):
        with pytest.raises(InstanceError):
            gen_random_regular(4, 4, seed=0)

    def test_uniform_weights_in_range(self):
        inst = gen_random_regular(12, 4, 0.5, ("uniform", 0.25, 0.75), seed=3)
        assert np.all((inst.weight >= 0.25) & (inst.weight <= 0.75))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.sampled_from([6, 8, 10, 12]), d=st.sampled_from([2, 3, 4, 5]))
    def test_output_always_valid(self, seed, n, d):
        if (n * d) % 2:
            n += 1
        inst = gen_random_regular(n, d, 0.5, "unit", seed=seed)
        # constructor re-validates all invariants; regularity on top
        assert np.all(inst.degrees == d)
        assert inst.max_degree == d


class TestEvaluate:
    def test_triangle_two_cut(self, triangle):
        assert evaluate(triangle, [1, 1, -1]) == 2.0

    def test_triangle_uncut(self, triangle):
        assert evaluate(triangle, [1, 1, 1]) == 0.0

    def test_positive_edge(self):
        inst = Max2LinInstance.from_edges(2, [(0, 1, 1, 2.5)])
        assert evaluate(inst, [1, 1]) == 2.5
        assert evaluate(inst, [1, -1]) == 0.0

    def test_length_mismatch(self, triangle):
        with pytest.raises(ValueError, match="length"):
            evaluate(triangle, [1, 1])

    def test_non_pm1_rejected(self, triangle):
        with pytest.raises(ValueError, match="-1 or \\+1"):
            evaluate(triangle, [1, 0, 1])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 20))
    def test_satisfied_plus_violated_is_total(self, seed, n):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n)
        x = rng.choice([-1, 1], size=n).astype(np.int8)
        sat = evaluate(inst, x)
        # violated weight computed directly, not as W - evaluate
        vio = sum(w for i, j, b, w in inst.edges() if x[i] * x[j] != b)
        assert abs(sat + vio - inst.total_weight) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 20))
    def test_global_flip_invariance(self, seed, n):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n)
        x = rng.choice([-1, 1], size=n).astype(np.int8)
        assert evaluate(inst, x) == evaluate(inst, -x)
