from __future__ import annotations

import math
import warnings

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
        assert np.diff(inst.indptr).tolist() == [len(r) for r in ref]
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


_BLANKS = st.text(" \t", max_size=3)
_GAPS = st.text(" \t", min_size=1, max_size=3)
# tokens no edge line on at most 12 vertices accepts at positions i, j, b, w
# ("" drops the field, "1 2" adds one)
_BAD_TOKENS = [["x", "", "1 2", "1.5", "-1", "99", "nan"]] * 2 + [
    ["x", "", "1 2", "0", "2", "1.0", "nan"],
    ["x", "", "1 2", "0", "-1", "-0.5", "nan", "inf", "1e400"],
]


@st.composite
def instance_and_text(draw):
    """A random instance with arbitrary positive finite weights, and valid text
    for it: comment and blank lines, uneven whitespace, CRLF or LF line ends,
    reversed endpoints, weights in exponent form."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20)) if pairs else []
    weight = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    edges = [(i, j, draw(st.sampled_from([-1, 1])), draw(weight)) for i, j in chosen]
    inst = Max2LinInstance.from_edges(n, edges)

    def line(tokens):
        sep = [draw(_GAPS) for _ in tokens[1:]] + [draw(_BLANKS)]
        return draw(_BLANKS) + "".join(t + g for t, g in zip(tokens, sep))

    def filler():
        return [draw(_BLANKS) + "#" + draw(st.text("abc 0123#\t.-", max_size=8)) if draw(st.booleans())
                else draw(_BLANKS) for _ in range(draw(st.integers(0, 2)))]

    lines = filler() + [line([str(n), str(len(edges))])]
    for i, j, b, w in edges:
        if draw(st.booleans()):
            i, j = j, i
        sign = "+1" if b == 1 and draw(st.booleans()) else str(b)
        w_text = draw(st.sampled_from([repr(w), f"{w:.17e}", f"{w:.16E}"]))
        lines += filler() + [line([str(i), str(j), sign, w_text])]
    lines += filler()
    return inst, draw(st.sampled_from(["\n", "\r\n"])).join(lines), len(edges)


class TestTextRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(case=instance_and_text(), data=st.data())
    def test_adversarial_text(self, case, data):
        inst, text, m = case
        assert parse_instance(text) == inst
        written = write_instance(inst)
        assert parse_instance(written) == inst
        assert write_instance(parse_instance(written)) == written
        if not m:
            return
        # one corrupted token on one edge line: InstanceError and nothing else
        rows = written.splitlines()
        k = data.draw(st.integers(1, m))
        tokens = rows[k].split()
        pos = data.draw(st.integers(0, 3))
        tokens[pos] = data.draw(st.sampled_from(_BAD_TOKENS[pos]))
        rows[k] = " ".join(tokens)
        with pytest.raises(InstanceError):
            parse_instance("\n".join(rows))


# a value per edge field that breaks one edge rule, as (field, value) with
# field 0, 1 an endpoint, 2 the sign, 3 the weight; None puts j = i
_RULE_BREAKS = st.sampled_from(
    [(0, "-1"), (1, "-7"), (0, "12"), (1, "40"), (1, None), (2, "0"), (2, "2"), (2, "-3"),
     (3, "0.0"), (3, "-1.5"), (3, "nan"), (3, "inf"), (3, "-inf"), (3, "1e400")]
)


class TestParserAndConstructorAgree:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 12), data=st.data())
    def test_one_fault_named_at_its_line_and_edge(self, seed, n, data):
        # one corrupted field, or one line repeated, in a written instance:
        # parse_instance names its line, and the constructor, given the same
        # arrays, the same edge for the same reason
        rows = write_instance(random_instance(np.random.default_rng(seed), n)).splitlines()
        edges = [line.split() for line in rows[1:]]
        k = data.draw(st.integers(0, len(edges) - 1))
        if data.draw(st.booleans()):
            at = data.draw(st.integers(0, len(edges)))
            edges.insert(at, list(edges[k]))
            k = max(at, k + 1)  # the later copy of the pair is the duplicate
        else:
            field, value = data.draw(_RULE_BREAKS)
            edges[k][field] = edges[k][0] if value is None else value
        text = "\n".join([f"{n} {len(edges)}"] + [" ".join(e) for e in edges])
        with pytest.raises(InstanceError) as parsed:
            parse_instance(text)
        ends = np.array([(int(e[0]), int(e[1])) for e in edges]).reshape(-1, 2)
        with pytest.raises(InstanceError) as built:
            Max2LinInstance(n, ends.min(axis=1), ends.max(axis=1),
                            np.array([int(e[2]) for e in edges]),
                            np.array([float(e[3]) for e in edges]))
        assert built.value.edge == k
        assert str(built.value) == f"edge {k}: {built.value.reason}"
        assert str(parsed.value) == f"line {k + 2}: {built.value.reason}"

    @pytest.mark.parametrize("line3, line5", [
        ("0 1 -1 1.0", "0 2 -1"),  # a duplicate before a missing field
        ("0 2 -1 0", "0 3 x 1.0"),  # a weight before a malformed field
        ("0 2 -1", "9 3 -1 1.0"),  # a missing field before a range fault
        ("0 2 2 1.0", "3 3 -1 1.0"),  # a sign before a self-loop
        ("0 2 -1 1.0 7", "0 1 -1 1.0"),  # an extra field before a duplicate
    ])
    def test_first_faulty_line_wins(self, line3, line5):
        text = f"4 4\n0 1 -1 1.0\n{line3}\n1 2 -1 1.0\n{line5}\n"
        with pytest.raises(InstanceError, match="^line 3: "):
            parse_instance(text)

    @pytest.mark.parametrize("text, reason", [
        ("3 1\n0 " + "9" * 25 + " -1 1.0", "vertex index out of range [0, 3)"),
        ("3 1\n-" + "9" * 25 + " 1 -1 1.0", "vertex index out of range [0, 3)"),
        ("3 1\n0 1 " + "9" * 25 + " 1.0", "sign must be -1 or +1"),
        ("3 1\n0 " + "9" * 400 + " -1 1.0", "vertex index out of range [0, 3)"),
        ("3 1\n2 2 -1 1.0", "self-loop at vertex 2"),
        ("3 2\n0 1 -1 1.0\n1 0 1 2.0", "duplicate edge {0, 1}"),
        ("3 1\n0 1 -1 -0.0", "weight must be finite and > 0, got -0.0"),
        ("3 1\n0 1 -1", "expected 'i j b w'"),
        ("3 1\n0 1 -1.0 1.0", "malformed edge fields"),
    ])
    def test_refusal_messages(self, text, reason):
        with pytest.raises(InstanceError) as refused:
            parse_instance(text)
        assert str(refused.value) == f"line {text.count(chr(10)) + 1}: {reason}"

    def test_tokens_follow_python_int_and_float(self):
        inst = parse_instance("3 1\n+2 0_0 +1 1_0.5\n")
        assert list(inst.edges()) == [(0, 2, 1, 10.5)]

    def test_constructor_refuses_a_reversed_pair_as_such(self):
        with pytest.raises(InstanceError) as refused:
            Max2LinInstance(3, np.array([0, 2]), np.array([1, 0]), np.array([-1, 1]),
                            np.array([1.0, 1.0]))
        assert str(refused.value) == "edge 1: edges must be stored with i < j, got (2, 0)"

    @pytest.mark.parametrize("sign", [257, 1.5, -255])
    def test_sign_checked_before_the_int8_cast(self, sign):
        # int8 read 257 and -255 as 1 and 1.5 as 1, and accepted them
        with pytest.raises(InstanceError, match="^edge 0: sign must be -1 or \\+1$"):
            Max2LinInstance(2, np.array([0]), np.array([1]), np.array([sign]), np.array([1.0]))

    def test_caller_arrays_stay_writeable(self):
        # the instance copies what it is given and freezes only its copies
        given = (np.array([0, 1]), np.array([1, 2]), np.array([-1, 1], dtype=np.int8), np.array([1.0, 2.5]))
        inst = Max2LinInstance(3, *given)
        owned = (inst.edge_i, inst.edge_j, inst.sign, inst.weight)
        for theirs, ours in zip(given, owned):
            assert theirs.flags.writeable and not ours.flags.writeable
            assert not np.shares_memory(theirs, ours)
        given[0][0] = 2
        assert list(inst.edges()) == [(0, 1, -1, 1.0), (1, 2, 1, 2.5)]

    @pytest.mark.parametrize("i, j, got", [(0.5, 1.7, "0.5"), (0, 1.5, "1.5"), (0, float("nan"), "nan")])
    def test_endpoint_checked_before_the_int64_cast(self, i, j, got):
        # int64 read 0.5 and 1.7 as 0 and 1, and built the edge (0, 1)
        message = f"^edge 0: vertex index must be an integer, got {got}$"
        with pytest.raises(InstanceError, match=message):
            Max2LinInstance(3, np.array([i]), np.array([j]), np.array([1]), np.array([1.0]))
        with pytest.raises(InstanceError, match=message):
            Max2LinInstance.from_edges(3, [(i, j, 1, 1.0)])

    @pytest.mark.parametrize("edge, reason", [
        ((0.5, 1.7, True, 1.0), "vertex index must be an integer, got 0.5"),
        ((0.5, 1, 1, "1.0"), "vertex index must be an integer, got 0.5"),
        (("0.5", "1", "1", "1.0"), "vertex index must be an integer, got 0.5"),
        ((0, 1, 1.5, "1.0"), "sign must be -1 or \\+1"),
        ((0, 1, "1.5", 1.0), "sign must be -1 or \\+1"),
    ])
    def test_from_edges_checks_each_field_whatever_the_others_hold(self, edge, reason):
        # a bool or a string in one field once sent every field through int()
        with pytest.raises(InstanceError, match=f"^edge 0: {reason}$"):
            Max2LinInstance.from_edges(3, [edge])

    def test_number_strings_and_bools_read_as_their_values(self):
        want = Max2LinInstance(3, np.array([0, 0]), np.array([2, 1]), np.array([-1, 1]), np.array([1.5, 2.0]))
        assert Max2LinInstance.from_edges(3, [("2", "0", "-1", "1.5"), ("0", 1, "1", 2)]) == want
        assert Max2LinInstance.from_edges(3, [(2, 0, -1, 1.5), (False, True, True, 2)]) == want

    @pytest.mark.parametrize("field, reason", [(0, "vertex index out of range \\[0, 3\\)"),
                                               (1, "vertex index out of range \\[0, 3\\)"),
                                               (2, "sign must be -1 or \\+1")])
    @pytest.mark.parametrize("big", [10**25, -10**25, 10**400])
    def test_python_int_beyond_int64_is_refused(self, field, reason, big):
        # the int64 cast raised OverflowError before any edge rule was checked
        arrays = [[0], [1], [1], [1.0]]
        arrays[field] = [big]
        with pytest.raises(InstanceError, match=f"^edge 0: {reason}$"):
            Max2LinInstance(3, *arrays)
        with pytest.raises(InstanceError, match=f"^edge 0: {reason}$"):
            Max2LinInstance.from_edges(3, [[a[0] for a in arrays]])

    def test_whole_float_endpoints_accepted(self):
        want = Max2LinInstance(3, np.array([0, 1]), np.array([2, 2]), np.array([1, -1]), np.array([1.0, 2.0]))
        assert Max2LinInstance(3, np.array([0.0, 1.0]), np.array([2.0, 2.0]), np.array([1, -1]),
                               np.array([1.0, 2.0])) == want
        assert Max2LinInstance.from_edges(3, [(2.0, 0.0, 1, 1.0), (1, 2.0, -1, 2)]) == want
        # an infinite endpoint is out of range, a fault in the first edge wins
        with pytest.raises(InstanceError, match="^edge 0: vertex index out of range"):
            Max2LinInstance.from_edges(3, [(0, math.inf, 1, 1.0)])
        with pytest.raises(InstanceError, match="^edge 0: sign must be -1 or \\+1$"):
            Max2LinInstance.from_edges(3, [(0, 1, 2, 1.0), (0.5, 2, 1, 1.0)])

    def test_from_edges_names_the_edge(self):
        with pytest.raises(InstanceError, match="^edge 2: duplicate edge {0, 2}$"):
            Max2LinInstance.from_edges(3, [(0, 1, -1, 1.0), (2, 0, 1, 1.0), (0, 2, 1, 1.0)])
        with pytest.raises(ValueError):
            Max2LinInstance.from_edges(3, [(0, 1, -1)])


class TestGenerator:
    def test_k4_is_unique_cubic_graph(self):
        inst = gen_random_regular(4, 3, sign_bias=1.0, weight_law="unit", seed=7)
        assert inst.m == 6 and np.all(inst.sign == -1) and np.all(inst.weight == 1.0)
        assert sorted((i, j) for i, j, _, _ in inst.edges()) == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
        ]

    def test_regularity(self):
        inst = gen_random_regular(10, 3, seed=11)
        assert np.all(np.diff(inst.indptr) == 3)

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
        assert np.all(np.diff(inst.indptr) == d)
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
        bads = ([1, 0, 1], [1, 2, 1], [1, -1, 0.5], [1.0, np.nan, 1.0],
                [1.0, np.inf, 1.0], [-np.inf, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a non-finite entry is refused, not cast
            for bad in bads:
                with pytest.raises(ValueError, match="-1 or \\+1"):
                    evaluate(triangle, bad)
        assert evaluate(triangle, [-1.0, 1.0, 1.0]) == 2.0

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
