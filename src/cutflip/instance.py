"""Weighted Max-2LIN instances: data model, validation, file IO, generators.

An instance is a simple undirected graph on vertices 0..n-1 where each edge
{i, j} carries a sign b in {-1, +1} and a strictly positive weight w.  The
constraint on the edge is x_i * x_j == b over +-1 assignments; Max-Cut is the
all-signs-negative special case and gets no separate code path.  Objective
values are unnormalized satisfied weight.

Instances are immutable after construction (arrays are write-protected) and
safe to share across threads; generators are deterministic in their seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

__all__ = ["InstanceError", "Max2LinInstance", "as_assignment", "check_generator_laws",
           "check_regular_size", "evaluate", "gen_random_regular", "parse_instance",
           "write_instance"]


_GEN_ATTEMPTS = 200  # pairing-model attempts before gen_random_regular gives up


class InstanceError(ValueError):
    """Malformed instance file or invalid instance data; an edge that breaks a
    rule gives its index as edge and the rule's message as reason."""

    def __init__(self, message: str, edge: int | None = None, reason: str | None = None):
        super().__init__(message)
        self.edge, self.reason = edge, reason


def _edge_arrays(flat) -> tuple[np.ndarray, ...]:
    """Constructor arrays of the edges (i, j, b, w) laid end to end in flat,
    read by int() and float(), each edge's endpoints in order."""
    try:
        i, j, b = (np.fromiter(map(int, flat[k::4]), np.int64) for k in range(3))
    except OverflowError:  # beyond int64: Python ints, which the constructor refuses
        i, j, b = (np.array(list(map(int, flat[k::4])), dtype=object) for k in range(3))
    return np.minimum(i, j), np.maximum(i, j), b, np.fromiter(map(float, flat[3::4]), np.float64)


def _numbers(x) -> np.ndarray:
    """x as numbers: strings and objects as float64 (exact below 2^53), after a
    Python int beyond int64 is moved to its nearer int64 end, which no rule accepts."""
    a = np.asarray(x)
    a = np.clip(a, -2**63, 2**63 - 1) if a.dtype.kind == "O" else a
    return a.astype(np.float64) if a.dtype.kind in "OUS" else a


def _first_fault(n: int, ends, ei, ej, b, w) -> tuple[int, str] | None:
    """(index, reason) of the first edge that breaks a rule, and the first of
    the rules below, in their order, that it breaks; None if none does. ends
    are the endpoints as given, ei and ej their int64 casts."""
    frac = [x != np.trunc(x) if x.dtype.kind == "f" else np.broadcast_to(False, len(x)) for x in ends]
    lo, hi = np.minimum(ei, ej), np.maximum(ei, ej)
    order = np.lexsort((hi, lo))  # stable: a repeat sorts after its first copy
    dup = np.zeros(len(lo), dtype=bool)
    dup[order[1:]] = (lo[order[1:]] == lo[order[:-1]]) & (hi[order[1:]] == hi[order[:-1]])
    rules = [
        (frac[0] | frac[1], lambda k: f"vertex index must be an integer, got {ends[not frac[0][k]][k]}"),
        ((lo < 0) | (hi >= n), lambda k: f"vertex index out of range [0, {n})"),
        (ei == ej, lambda k: f"self-loop at vertex {ei[k]}"),
        (ei > ej, lambda k: f"edges must be stored with i < j, got ({ei[k]}, {ej[k]})"),
        ((b != 1) & (b != -1), lambda k: "sign must be -1 or +1"),
        (~(np.isfinite(w) & (w > 0)), lambda k: f"weight must be finite and > 0, got {w[k]}"),
        (dup, lambda k: f"duplicate edge {{{lo[k]}, {hi[k]}}}"),
    ]
    bad = np.logical_or.reduce([mask for mask, _ in rules], axis=0)
    if not bad.any():
        return None
    k = int(bad.argmax())
    return k, next(reason(k) for mask, reason in rules if mask[k])


@dataclass(frozen=True, eq=False)
class Max2LinInstance:
    """Validated weighted signed graph.

    Edge arrays are parallel; endpoints are normalized so edge_i < edge_j.
    Edge order is whatever the constructor received.
    """

    n: int
    edge_i: np.ndarray
    edge_j: np.ndarray
    sign: np.ndarray
    weight: np.ndarray
    # derived CSR adjacency, filled in __post_init__: the neighbors of vertex
    # i are nbr[indptr[i]:indptr[i + 1]], in stored edge order
    max_degree: int = field(init=False, repr=False)
    indptr: np.ndarray = field(init=False, repr=False)
    nbr: np.ndarray = field(init=False, repr=False)
    nbr_sign: np.ndarray = field(init=False, repr=False)
    nbr_weight: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise InstanceError(f"vertex count must be >= 1, got {n}")
        # copies the instance owns: the caller's arrays stay as they were
        ends = _numbers(self.edge_i), _numbers(self.edge_j)
        with np.errstate(invalid="ignore"):  # NaN and inf cast to any int64; refused below
            ei, ej = (np.array(x, dtype=np.int64) for x in ends)
        b = _numbers(self.sign)
        w = np.array(self.weight, dtype=np.float64)
        if not (len(ei) == len(ej) == len(b) == len(w)):
            raise InstanceError("edge arrays must have equal length")
        if (fault := _first_fault(n, ends, ei, ej, b, w)) is not None:
            raise InstanceError(f"edge {fault[0]}: {fault[1]}", *fault)
        b = b.astype(np.int8)

        # each edge appears once under each endpoint; a stable sort by vertex
        # keeps every adjacency list in stored edge order
        ends = np.column_stack([ei, ej]).ravel()
        order = np.argsort(ends, kind="stable")
        edge_of = order // 2
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=n), out=indptr[1:])
        derived = {
            "indptr": indptr,
            "nbr": np.column_stack([ej, ei]).ravel()[order],
            "nbr_sign": b[edge_of],
            "nbr_weight": w[edge_of],
        }
        for name, arr in {"edge_i": ei, "edge_j": ej, "sign": b, "weight": w, **derived}.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "max_degree", int(np.diff(indptr).max()))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Max2LinInstance":
        """Build from an iterable of (i, j, b, w); endpoint order is normalized.
        Each field keeps its type, so the constructor checks every value."""
        rows = list(edges)
        flat = np.array(rows, dtype=object).reshape(4 * len(rows)).tolist()
        i, j = _numbers(flat[0::4]), _numbers(flat[1::4])
        return cls(n, np.minimum(i, j), np.maximum(i, j), flat[2::4], flat[3::4])

    @property
    def m(self) -> int:
        return len(self.edge_i)

    @property
    def total_weight(self) -> float:
        return float(self.weight.sum())

    def neighbors(self, i: int):
        """(neighbor ids, signs, weights) of vertex i, as read-only arrays."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.nbr[lo:hi], self.nbr_sign[lo:hi], self.nbr_weight[lo:hi]

    def edges(self):
        """Iterate (i, j, b, w) in stored order."""
        return zip(self.edge_i.tolist(), self.edge_j.tolist(), self.sign.tolist(),
                   self.weight.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Max2LinInstance):
            return NotImplemented
        return self.n == other.n and all(np.array_equal(getattr(self, k), getattr(other, k))
                                         for k in ("edge_i", "edge_j", "sign", "weight"))


def as_assignment(inst: Max2LinInstance, x) -> np.ndarray:
    """Validate x as an assignment for inst, entries exactly +-1: one of
    length n, or a (T, n) stack of T of them, as int8."""
    arr = np.asarray(x)
    if arr.ndim not in (1, 2) or arr.shape[-1] != inst.n:
        raise ValueError(f"assignment length {arr.shape} does not match n={inst.n}")
    not_pm1 = "assignment entries must be exactly -1 or +1"
    # NaN and +-inf have no int8 value, so they are refused before the cast
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise ValueError(not_pm1)
    out = arr.astype(np.int8)
    if np.any(out.astype(arr.dtype) != arr) or not np.all((out == 1) | (out == -1)):
        raise ValueError(not_pm1)
    return out


def _satisfied_weight(inst: Max2LinInstance, xs: np.ndarray) -> float | np.ndarray:
    """evaluate() of an assignment or a stack of them already validated."""
    sat = xs[..., inst.edge_i] * xs[..., inst.edge_j] == inst.sign
    if xs.ndim == 1:
        return float(inst.weight.compress(sat).sum())
    # one sum per row keeps a lone assignment's summation order
    return np.array([inst.weight.compress(row).sum() for row in sat])


def evaluate(inst: Max2LinInstance, x) -> float | np.ndarray:
    """Total weight of satisfied constraints: sum of w over edges with
    x_i*x_j == b, as a float; for a (T, n) stack, a length-T array whose
    entries equal the float of each row's own call."""
    return _satisfied_weight(inst, as_assignment(inst, x))


def _line_fault(line: str) -> str | None:
    """Why an edge line is not four fields that int() and float() read, or None."""
    parts = line.split()
    if len(parts) != 4:
        return "expected 'i j b w'"
    try:
        _edge_arrays(parts)
    except ValueError:
        return "malformed edge fields"
    return None


def parse_instance(text: str) -> Max2LinInstance:
    """Parse the text instance format.

    First data line is "n m"; then m lines "i j b w" with b in {-1, 1} and
    w a positive decimal, each token read by Python's int() or float().
    Lines whose first non-blank character is '#' are comments. An error
    names the first faulty 1-based line: one without four fields that
    convert, or an edge the constructor refuses, with the constructor's
    reason; then a count other than m.
    """
    lines = text.splitlines()
    lineno = [k for k, line in enumerate(lines, 1) if line.strip()[:1] not in ("", "#")]
    data = [lines[k - 1] for k in lineno]
    if not data:
        raise InstanceError("empty instance: no header line")
    head, body = data[0].split(), data[1:]
    if len(head) != 2:
        raise InstanceError(f"line {lineno[0]}: expected header 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise InstanceError(f"line {lineno[0]}: header fields must be integers") from None
    if not (1 <= n < 2**63 - 1 and m >= 0):
        raise InstanceError(f"line {lineno[0]}: need 1 <= n < 2^63 - 1 and m >= 0")
    try:  # the edges before the first line that is not four fields that convert
        if set(map(len, map(str.split, body))) - {4}:
            raise ValueError
        stop, edges = len(body), _edge_arrays(" ".join(body).split())
    except ValueError:
        stop = next(k for k, line in enumerate(body) if _line_fault(line))
        edges = _edge_arrays(" ".join(body[:stop]).split())
    try:
        inst = Max2LinInstance(n, *edges)
    except InstanceError as exc:
        raise InstanceError(f"line {lineno[exc.edge + 1]}: {exc.reason}") from None
    if stop < len(body):
        raise InstanceError(f"line {lineno[stop + 1]}: {_line_fault(body[stop])}")
    if len(body) != m:
        raise InstanceError(f"header declares m={m} edges but file has {len(body)}")
    return inst


def write_instance(inst: Max2LinInstance) -> str:
    """Serialize; round-trips bit-exactly through parse_instance.

    Weights use repr(), the shortest decimal that round-trips the float.
    """
    out = [f"{inst.n} {inst.m}"]
    for i, j, b, w in inst.edges():
        out.append(f"{i} {j} {b} {w!r}")
    return "\n".join(out) + "\n"


def _pair_stubs(n: int, d: int, rng: np.random.Generator, max_rounds: int) -> set | None:
    """One pairing-model attempt: shuffle stubs, keep simple pairs, re-pair the rest."""
    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * d
    rounds = 0
    while stubs:
        rounds += 1
        if rounds > max_rounds:
            return None
        perm = rng.permutation(len(stubs))
        shuffled = [stubs[k] for k in perm]
        leftover: list[int] = []
        it = iter(shuffled)
        for s1, s2 in zip(it, it):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                leftover += (s1, s2)
        # stall check: if no leftover pair can ever be placed, this attempt is dead
        if leftover and all(pair in edges for pair in combinations(sorted(set(leftover)), 2)):
            return None
        stubs = leftover
    return edges


def check_generator_laws(sign_bias: float, weight_law) -> tuple[float, float] | None:
    """Validate gen_random_regular's sign_bias and weight_law.

    Returns (lo, hi) for ("uniform", lo, hi) with finite 0 < lo <= hi and
    None for "unit"; raises InstanceError for a sign_bias outside [0, 1] or
    any other weight law.
    """
    if not 0.0 <= sign_bias <= 1.0:
        raise InstanceError(f"sign_bias must be in [0, 1], got {sign_bias}")
    if weight_law == "unit":
        return None
    if isinstance(weight_law, (tuple, list)) and len(weight_law) == 3 and weight_law[0] == "uniform":
        try:
            lo, hi = float(weight_law[1]), float(weight_law[2])
        except (TypeError, ValueError):
            raise InstanceError(f"unknown weight law: {weight_law!r}") from None
        if not 0.0 < lo <= hi < math.inf:
            raise InstanceError(f"uniform weight law needs finite 0 < lo <= hi, got ({lo}, {hi})")
        return lo, hi
    raise InstanceError(f"unknown weight law: {weight_law!r}")


def check_regular_size(n: int, d: int) -> None:
    """Refuse (InstanceError) a size with no simple d-regular graph on n
    vertices: d < 1, d >= n or an odd n*d."""
    if not 1 <= d < n:
        raise InstanceError(f"a {d}-regular graph on {n} vertices needs 1 <= d < n")
    if (n * d) % 2 != 0:
        raise InstanceError(f"n*d must be even, got n={n}, d={d}")


def gen_random_regular(
    n: int,
    d: int,
    sign_bias: float = 1.0,
    weight_law="unit",
    seed: int = 0,
) -> Max2LinInstance:
    """Random simple d-regular Max-2LIN instance via the pairing model.

    sign_bias is the probability an edge gets b = -1 (1.0 gives Max-Cut).
    weight_law is "unit" or ("uniform", lo, hi). Deterministic given seed;
    raises InstanceError when n*d is odd, parameters are infeasible, seed is
    negative, or the rejection budget is exceeded.
    """
    check_regular_size(n, d)
    bounds = check_generator_laws(sign_bias, weight_law)
    if seed < 0:
        raise InstanceError(f"seed must be >= 0, got {seed}")

    rng = np.random.default_rng(seed)
    edges = None
    for _ in range(_GEN_ATTEMPTS):
        edges = _pair_stubs(n, d, rng, max_rounds=50 * d)
        if edges is not None:
            break
    if edges is None:
        raise InstanceError(
            f"rejection budget exceeded generating a simple {d}-regular graph on {n} vertices"
        )

    ordered = sorted(edges)
    m = len(ordered)
    if sign_bias >= 1.0:
        signs = np.full(m, -1, dtype=np.int8)
    elif sign_bias <= 0.0:
        signs = np.full(m, 1, dtype=np.int8)
    else:
        signs = np.where(rng.random(m) < sign_bias, -1, 1).astype(np.int8)

    weights = np.ones(m, dtype=np.float64) if bounds is None else rng.uniform(*bounds, m)

    ei = np.array([e[0] for e in ordered], dtype=np.int64)
    ej = np.array([e[1] for e in ordered], dtype=np.int64)
    return Max2LinInstance(n=n, edge_i=ei, edge_j=ej, sign=signs, weight=weights)
