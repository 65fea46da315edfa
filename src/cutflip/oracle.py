"""Exact brute-force Max-2LIN optimum for small instances.

Vertices without edges never change the value, so they take +1, and only the
n' others, renumbered in order, are enumerated (an edgeless graph keeps vertex
0): all 2^(n'-1) sign classes (x_0 pinned to +1 by global-flip symmetry) by a
meet-in-the-middle split (Horowitz-Sahni). Assignment mask =
l + 2^k (r + 2^b t) sets x_v = +1 iff bit v-1 is set; vertices 0..k form
part L, the next b part R and the rest part T. A value is W/2 + x^T A x with
A the halved signed weights, so for a fixed t the values of all (r, l) are
one small matrix product: the R-L edges as a GEMM of width b + 2, the edges
inside L and T's edges to L as a column term, and those inside R and T and
T's edges to R as a row term. That block, flattened, is in mask order; the
tables it is built from are computed once per call, with 2^k, 2^b or
2^(n-1-k-b) rows. Block arithmetic reorders float sums, so every
near-maximal assignment is re-scored with evaluate(): the optimum is exact
in its arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Max2LinInstance, evaluate

__all__ = ["OracleResult", "brute_force_opt", "check_oracle_size"]

DEFAULT_CAP = 26

# fast-path float error is ~1e-13 * W; anything within this slack of the fast
# maximum might be the true argmax under evaluate()'s summation order
_RETIE_SLACK = 1e-9
_RETIE_LIMIT = 1 << 20
# masks re-scored by one stacked evaluate() call
_RETIE_CHUNK = 4096
# float64 values (512 KB) in one block, 2^(k+b) <= _BLOCK; the tables
# beside it are tens of KB. The traced peak of a random 4-regular graph is
# 0.70 MB at n=22 and 0.76 MB at n=26 (4.6 and 6.0 MB with blocks of 2^18
# values). A first call in a fresh process takes about 1.0 ms at n=22 and
# 10 ms at n=26 (3.5 and 26 ms) on a 2-vCPU AMD EPYC box
_BLOCK = 1 << 16


@dataclass
class OracleResult:
    opt: float
    argmax: np.ndarray
    enumerated: int


def _signs(masks: np.ndarray, nbits: int, dtype=np.float64) -> np.ndarray:
    """(len(masks), nbits) matrix of +-1, column b from bit b of each mask."""
    as_bytes = masks.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)
    out = np.unpackbits(as_bytes, axis=1, count=nbits, bitorder="little").astype(dtype)
    out *= 2
    out -= 1
    return out


def _inside(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """x_i^T a x_i for each row x_i of x."""
    return np.einsum("ij,ij->i", x @ a, x)


def check_oracle_size(n: int, cap: int = DEFAULT_CAP) -> None:
    """ValueError when brute_force_opt refuses n vertices: n > cap."""
    if n > cap:
        raise ValueError(
            f"brute force refused: n={n} exceeds the cap of {cap} "
            f"(2^{n - 1} assignments); raise cap explicitly if you mean it"
        )


def brute_force_opt(inst: Max2LinInstance, cap: int = DEFAULT_CAP) -> OracleResult:
    """Exact optimum by split enumeration; refuses instances with n > cap.

    Vertices without edges take +1 in argmax, and enumerated counts the
    assignments of the others: enumerating them too took 1.08 s on a
    24-vertex graph with 3 edges, re-scoring the ties they make (2-vCPU AMD
    EPYC box)."""
    check_oracle_size(inst.n, cap)
    full = inst
    live = np.flatnonzero(np.diff(inst.indptr)) if inst.m else np.arange(1)
    if len(live) < full.n:
        label = np.zeros(full.n, dtype=np.int64)
        label[live] = np.arange(len(live))
        inst = Max2LinInstance(len(live), label[full.edge_i], label[full.edge_j], full.sign, full.weight)
    n = inst.n
    w_tot = inst.total_weight
    slack = _RETIE_SLACK * (w_tot or 1.0)
    # A[i, j], i < j, is edge ij's halved signed weight; L = {0..k} takes
    # its signs from 2l + 1 (x_0 = +1), R from r and T from t
    a = np.zeros((n, n))
    a[inst.edge_i, inst.edge_j] = 0.5 * inst.weight * inst.sign
    bits = min(n - 1, _BLOCK.bit_length() - 1)
    k = bits // 2
    part_l, part_r, part_t = slice(0, k + 1), slice(k + 1, bits + 1), slice(bits + 1, n)
    x_l = _signs(2 * np.arange(1 << k) + 1, k + 1)
    x_r = _signs(np.arange(1 << (bits - k)), bits - k)
    x_t = _signs(np.arange(1 << (n - 1 - bits)), n - 1 - bits)
    f_l = 0.5 * w_tot + _inside(x_l, a[part_l, part_l])
    f_r, f_t = _inside(x_r, a[part_r, part_r]), _inside(x_t, a[part_t, part_t])
    # T's edges to L and R, as a row of its signs times these
    t_l, t_r = a[part_l, part_t].T @ x_l.T, a[part_r, part_t].T @ x_r.T
    # a block is one product left @ right, in mask order when flattened:
    # left = [x_R, 1, the row terms], right = [R-L edge sums, the column
    # terms, 1]
    left = np.hstack([x_r, np.ones((len(x_r), 2))])
    right = np.vstack([a[part_l, part_r].T @ x_l.T, np.ones((2, 1 << k))])
    block = np.empty((len(x_r), 1 << k))

    best_fast = -np.inf
    # (masks, fast values) per block of near-maximal assignments
    candidates: list[tuple[np.ndarray, np.ndarray]] = []
    collapsed = False  # did they overflow _RETIE_LIMIT since the last new maximum?

    for t, s in enumerate(x_t):
        right[-2] = f_l + s @ t_l
        left[:, -1] = f_r + (f_t[t] + s @ t_r)
        vals = np.matmul(left, right, out=block).ravel()
        hi = float(vals.max())
        if hi > best_fast + slack:
            candidates, collapsed = [], False
        if hi >= best_fast - slack:
            best_fast = max(best_fast, hi)
            if collapsed:
                near = vals.argmax(keepdims=True)
            else:
                near = np.flatnonzero(vals >= best_fast - slack)
            candidates.append(((t << bits) + near, vals[near]))
            if not collapsed and sum(len(v) for _, v in candidates) > _RETIE_LIMIT:
                # from here on keep only the single best row per block;
                # exactness is then limited to the fast path, which is still
                # ~1e-13 * W accurate
                candidates = [(c[[v.argmax()]], v[[v.argmax()]]) for c, v in candidates]
                collapsed = True

    # candidates are in mask order, and argmax() takes the first of equal
    # values, so the first exact maximizer wins
    opt, argmax = -np.inf, None
    for masks, _ in candidates:
        for c0 in range(0, len(masks), _RETIE_CHUNK):
            chunk = masks[c0:c0 + _RETIE_CHUNK]
            xs = _signs(2 * chunk + 1, n, np.int8)
            vals = evaluate(inst, xs)
            j = int(vals.argmax())
            if vals[j] > opt:
                opt, argmax = vals[j], xs[j].copy()
    x = np.ones(full.n, dtype=np.int8)
    x[live] = argmax
    return OracleResult(opt=float(opt), argmax=x, enumerated=1 << (n - 1))
