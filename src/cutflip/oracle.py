"""Exact brute-force Max-2LIN optimum for small instances.

Enumerates all 2^(n-1) sign classes (x_0 pinned to +1 by global-flip
symmetry) with a vectorized chunked scan. Chunk arithmetic can reorder float
sums, so every near-maximal assignment is re-scored with evaluate() and the
reported optimum is exact in evaluate()'s arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Max2LinInstance, evaluate

__all__ = ["OracleResult", "brute_force_opt"]

DEFAULT_CAP = 26

# fast-path float error is ~1e-13 * W; anything within this slack of the fast
# maximum might be the true argmax under evaluate()'s summation order
_RETIE_SLACK = 1e-9
_RETIE_LIMIT = 1 << 20


@dataclass
class OracleResult:
    opt: float
    argmax: np.ndarray
    enumerated: int


def brute_force_opt(inst: Max2LinInstance, cap: int = DEFAULT_CAP) -> OracleResult:
    """Exact optimum by bitmask enumeration; refuses instances with n > cap."""
    n = inst.n
    if n > cap:
        raise ValueError(
            f"brute force refused: n={n} exceeds the cap of {cap} "
            f"(2^{n - 1} assignments); raise cap explicitly if you mean it"
        )
    total = 1 << (n - 1)
    signed_w = inst.weight * inst.sign
    w_tot = inst.total_weight
    bits = np.arange(max(n - 1, 1), dtype=np.uint64)

    chunk = max(1024, (1 << 22) // max(inst.m, 1))
    best_fast = -np.inf
    # (rows, fast values) per block of near-maximal assignments
    candidates: list[tuple[np.ndarray, np.ndarray]] = []

    for start in range(0, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        x = np.ones((len(masks), n), dtype=np.int8)
        if n > 1:
            x[:, 1:] = (((masks[:, None] >> bits[None, :]) & np.uint64(1)) * 2 - 1).astype(np.int8)
        prod = (x[:, inst.edge_i] * x[:, inst.edge_j]).astype(np.float64)
        vals = 0.5 * (w_tot + prod @ signed_w)
        hi = float(vals.max())
        if hi > best_fast + _RETIE_SLACK * max(1.0, w_tot):
            candidates = []
        if hi >= best_fast - _RETIE_SLACK * max(1.0, w_tot):
            best_fast = max(best_fast, hi)
            near = vals >= best_fast - _RETIE_SLACK * max(1.0, w_tot)
            candidates.append((x[near], vals[near]))
            if sum(len(v) for _, v in candidates) > _RETIE_LIMIT:
                # keep only the single best row per block; exactness is then
                # limited to the fast path, which is still ~1e-13 * W accurate
                candidates = [(c[[v.argmax()]], v[[v.argmax()]]) for c, v in candidates]

    opt = -np.inf
    argmax = None
    for block, _ in candidates:
        for row in block:
            v = evaluate(inst, row)
            if v > opt:
                opt, argmax = v, row.copy()
    return OracleResult(opt=float(opt), argmax=argmax, enumerated=total)

