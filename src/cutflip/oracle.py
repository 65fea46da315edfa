"""Exact brute-force Max-2LIN optimum for small instances.

Vertices without edges never change the value, so they take +1, and only the
n' others, renumbered in order, are enumerated (an edgeless graph keeps vertex
0): all 2^(n'-1) sign classes (x_0 pinned to +1 by global-flip symmetry) by a
meet-in-the-middle split (Horowitz-Sahni). Assignment mask =
l + 2^k h sets x_v = +1 iff bit v-1 is set; vertices 0..k form half L, the
rest half H, and its value is (W + f_L[l] + f_H[h] + x_H(h)^T C x_L(l)) / 2,
where f_L, f_H sum the signed edges inside each half and C holds those across.
A block of H rows is one GEMM plus two broadcast adds, in mask order when
flattened. Block arithmetic reorders float sums, so every near-maximal
assignment is re-scored with evaluate(): the optimum is exact in its arithmetic.
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
# float64 entries (2 MB) in one block of assignment values; 2^k <= _BLOCK
# keeps every block within it. The traced peak at n=22 is 4.6 MB (19.3 MB
# at 2^22), at n=26 6.0 MB (68.9 MB). A first call in a fresh process
# takes the same time at n=22 (about 3.6 ms) and less at n=26 (21 ms, 51 ms
# at 2^22) on a 2-vCPU Xeon box
_BLOCK = 1 << 18


@dataclass
class OracleResult:
    opt: float
    argmax: np.ndarray
    enumerated: int


def _signs(masks: np.ndarray, nbits: int) -> np.ndarray:
    """(len(masks), nbits) matrix of +-1.0, column b from bit b of each mask."""
    return ((masks[:, None] >> np.arange(nbits)) & 1) * 2.0 - 1.0


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
    sw, ei, ej = 0.5 * inst.weight * inst.sign, inst.edge_i, inst.edge_j

    # L = {0..k} holds x_0 = +1 as its first column; edges have i < j, so an
    # edge is inside L, inside H or crosses with i in L and j in H. With the
    # halved weights sw a value is W/2 + sum of sw_e x_i x_j
    k = min(n // 2, _BLOCK.bit_length() - 1)
    h_bits, rows = n - 1 - k, max(1, _BLOCK >> k)
    x_l = np.hstack([np.ones((1 << k, 1)), _signs(np.arange(1 << k), k)])
    in_l, in_h = ej <= k, ei > k
    f_l = 0.5 * w_tot + (x_l[:, ei[in_l]] * x_l[:, ej[in_l]]) @ sw[in_l]
    ei_h, ej_h = ei[in_h] - k - 1, ej[in_h] - k - 1
    cross, across = np.zeros((h_bits, k + 1)), ~in_l & ~in_h
    cross[ej[across] - k - 1, ei[across]] = sw[across]
    cross_l = cross @ x_l.T

    best_fast = -np.inf
    # (masks, fast values) per block of near-maximal assignments
    candidates: list[tuple[np.ndarray, np.ndarray]] = []
    collapsed = False  # did they overflow _RETIE_LIMIT since the last new maximum?

    for h0 in range(0, 1 << h_bits, rows):
        x_h = _signs(np.arange(h0, min(h0 + rows, 1 << h_bits)), h_bits)
        vals = x_h @ cross_l
        vals += f_l
        vals += ((x_h[:, ei_h] * x_h[:, ej_h]) @ sw[in_h])[:, None]
        vals = vals.ravel()
        hi = float(vals.max())
        if hi > best_fast + slack:
            candidates, collapsed = [], False
        if hi >= best_fast - slack:
            best_fast = max(best_fast, hi)
            if collapsed:
                near = vals.argmax(keepdims=True)
            else:
                near = np.flatnonzero(vals >= best_fast - slack)
            candidates.append(((h0 << k) + near, vals[near]))
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
            xs = np.ones((len(chunk), n), dtype=np.int8)
            xs[:, 1:] = _signs(chunk, n - 1)
            vals = evaluate(inst, xs)
            j = int(vals.argmax())
            if vals[j] > opt:
                opt, argmax = vals[j], xs[j].copy()
    x = np.ones(full.n, dtype=np.int8)
    x[live] = argmax
    return OracleResult(opt=float(opt), argmax=x, enumerated=1 << (n - 1))
