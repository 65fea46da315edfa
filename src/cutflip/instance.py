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

import numpy as np

__all__ = [
    "InstanceError",
    "Max2LinInstance",
    "as_assignment",
    "evaluate",
    "gen_random_regular",
    "parse_instance",
    "write_instance",
]


class InstanceError(ValueError):
    """Malformed instance file or invalid instance data."""


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
    max_degree: int = field(init=False, compare=False, repr=False)
    indptr: np.ndarray = field(init=False, compare=False, repr=False)
    nbr: np.ndarray = field(init=False, compare=False, repr=False)
    nbr_sign: np.ndarray = field(init=False, compare=False, repr=False)
    nbr_weight: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise InstanceError(f"vertex count must be >= 1, got {n}")
        ei = np.asarray(self.edge_i, dtype=np.int64)
        ej = np.asarray(self.edge_j, dtype=np.int64)
        b = np.asarray(self.sign, dtype=np.int8)
        w = np.asarray(self.weight, dtype=np.float64)
        if not (len(ei) == len(ej) == len(b) == len(w)):
            raise InstanceError("edge arrays must have equal length")
        if len(ei) and (ei.min() < 0 or ej.max() >= n):
            raise InstanceError("edge endpoint out of range")
        if np.any(ei >= ej):
            raise InstanceError("edges must satisfy i < j (no self-loops)")
        if not np.all(np.isin(b, (-1, 1))):
            raise InstanceError("edge signs must be -1 or +1")
        if np.any(~np.isfinite(w)) or np.any(w <= 0.0):
            raise InstanceError("edge weights must be finite and > 0")
        if len(np.unique(ei * n + ej)) != len(ei):
            raise InstanceError("duplicate edge")

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
        """Build from an iterable of (i, j, b, w); endpoint order is normalized."""
        ei, ej, sg, wt = [], [], [], []
        for i, j, b, w in edges:
            if i == j:
                raise InstanceError(f"self-loop at vertex {i}")
            if i > j:
                i, j = j, i
            ei.append(i)
            ej.append(j)
            sg.append(b)
            wt.append(w)
        return cls(
            n=n,
            edge_i=np.array(ei, dtype=np.int64),
            edge_j=np.array(ej, dtype=np.int64),
            sign=np.array(sg, dtype=np.int8),
            weight=np.array(wt, dtype=np.float64),
        )

    @property
    def m(self) -> int:
        return len(self.edge_i)

    @property
    def total_weight(self) -> float:
        return float(self.weight.sum())

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, i: int):
        """(neighbor ids, signs, weights) of vertex i, as read-only arrays."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.nbr[lo:hi], self.nbr_sign[lo:hi], self.nbr_weight[lo:hi]

    def edges(self):
        """Iterate (i, j, b, w) in stored order."""
        for i, j, b, w in zip(
            self.edge_i.tolist(), self.edge_j.tolist(), self.sign.tolist(), self.weight.tolist()
        ):
            yield i, j, b, w

    def __eq__(self, other) -> bool:
        if not isinstance(other, Max2LinInstance):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and np.array_equal(self.edge_i, other.edge_i)
            and np.array_equal(self.edge_j, other.edge_j)
            and np.array_equal(self.sign, other.sign)
            and np.array_equal(self.weight, other.weight)
        )


def as_assignment(inst: Max2LinInstance, x) -> np.ndarray:
    """Validate x as an assignment for inst: length n, entries exactly +-1."""
    arr = np.asarray(x)
    if arr.shape != (inst.n,):
        raise ValueError(f"assignment length {arr.shape} does not match n={inst.n}")
    out = arr.astype(np.int8)
    if np.any(out.astype(arr.dtype) != arr) or not np.all(np.isin(out, (-1, 1))):
        raise ValueError("assignment entries must be exactly -1 or +1")
    return out


def evaluate(inst: Max2LinInstance, x) -> float:
    """Total weight of satisfied constraints: sum of w over edges with x_i*x_j == b."""
    xs = as_assignment(inst, x)
    prod = xs[inst.edge_i].astype(np.int32) * xs[inst.edge_j]
    return float(inst.weight[prod == inst.sign].sum())


def parse_instance(text: str) -> Max2LinInstance:
    """Parse the text instance format.

    First data line is "n m"; then m lines "i j b w" with b in {-1, 1} and
    w a positive decimal. Lines whose first non-blank character is '#' are
    comments. Errors name the offending 1-based line number.
    """
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise InstanceError(f"line {lineno}: expected header 'n m'")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise InstanceError(f"line {lineno}: header fields must be integers") from None
            if n < 1 or m < 0:
                raise InstanceError(f"line {lineno}: need n >= 1 and m >= 0")
            header = (n, m)
            continue
        if len(parts) != 4:
            raise InstanceError(f"line {lineno}: expected 'i j b w'")
        try:
            i, j, b = int(parts[0]), int(parts[1]), int(parts[2])
            w = float(parts[3])
        except ValueError:
            raise InstanceError(f"line {lineno}: malformed edge fields") from None
        n = header[0]
        if not (0 <= i < n and 0 <= j < n):
            raise InstanceError(f"line {lineno}: vertex index out of range [0, {n})")
        if i == j:
            raise InstanceError(f"line {lineno}: self-loop at vertex {i}")
        if b not in (-1, 1):
            raise InstanceError(f"line {lineno}: sign must be -1 or 1, got {b}")
        if not math.isfinite(w) or w <= 0.0:
            raise InstanceError(f"line {lineno}: weight must be finite and > 0, got {parts[3]}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise InstanceError(f"line {lineno}: duplicate edge {{{key[0]}, {key[1]}}}")
        seen.add(key)
        edges.append((i, j, b, w))

    if header is None:
        raise InstanceError("empty instance: no header line")
    n, m = header
    if len(edges) != m:
        raise InstanceError(f"header declares m={m} edges but file has {len(edges)}")
    return Max2LinInstance.from_edges(n, edges)


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
                leftover.append(s1)
                leftover.append(s2)
        if leftover:
            # Stall check: if no leftover pair can ever be placed, this attempt is dead.
            placeable = False
            uniq = sorted(set(leftover))
            for a_idx in range(len(uniq)):
                for b_idx in range(a_idx + 1, len(uniq)):
                    if (uniq[a_idx], uniq[b_idx]) not in edges:
                        placeable = True
                        break
                if placeable:
                    break
            if not placeable:
                return None
        stubs = leftover
    return edges


def gen_random_regular(
    n: int,
    d: int,
    sign_bias: float = 1.0,
    weight_law="unit",
    seed: int = 0,
    max_attempts: int = 200,
) -> Max2LinInstance:
    """Random simple d-regular Max-2LIN instance via the pairing model.

    sign_bias is the probability an edge gets b = -1 (1.0 gives Max-Cut).
    weight_law is "unit" or ("uniform", lo, hi). Deterministic given seed;
    raises InstanceError when n*d is odd, parameters are infeasible, or the
    rejection budget is exceeded.
    """
    if d < 1 or d >= n:
        raise InstanceError(f"need 1 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise InstanceError(f"n*d must be even, got n={n}, d={d}")
    if not 0.0 <= sign_bias <= 1.0:
        raise InstanceError(f"sign_bias must be in [0, 1], got {sign_bias}")

    rng = np.random.default_rng(seed)
    edges = None
    for _ in range(max_attempts):
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

    if weight_law == "unit":
        weights = np.ones(m, dtype=np.float64)
    elif isinstance(weight_law, (tuple, list)) and len(weight_law) == 3 and weight_law[0] == "uniform":
        lo, hi = float(weight_law[1]), float(weight_law[2])
        if not (0.0 < lo <= hi):
            raise InstanceError(f"uniform weight law needs 0 < lo <= hi, got ({lo}, {hi})")
        weights = rng.uniform(lo, hi, m)
    else:
        raise InstanceError(f"unknown weight law: {weight_law!r}")

    ei = np.array([e[0] for e in ordered], dtype=np.int64)
    ej = np.array([e[1] for e in ordered], dtype=np.int64)
    return Max2LinInstance(n=n, edge_i=ei, edge_j=ej, sign=signs, weight=weights)
