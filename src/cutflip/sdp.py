"""Low-rank solver for the triangle-strengthened Max-2LIN relaxation.

Maximizes sum_e w_e (1 + b_e <v_i, v_j>)/2 over unit vectors v_1..v_n,
optionally subject to the signed l2^2 triangle inequalities

    ||a_i v_i - a_j v_j||^2 + ||a_j v_j - a_k v_k||^2 >= ||a_i v_i - a_k v_k||^2

for all sign patterns (a_i, a_j, a_k) in {+-1}^3 over a configurable triple
family. In inner-product form, each triple {i, j, k} contributes exactly four
distinct constraints (rotating the middle vertex and negating globally both
collapse into the same family):

    1 + e1 r_ij + e2 r_jk + e3 r_ik >= 0   for e1*e2*e3 = +1.

The solver is a row-normalized low-rank factorization (n x r matrix of unit
rows) driven by projected gradient ascent with an Armijo line search, plus an
augmented-Lagrangian treatment of the inequality constraints. Violated
triples enter the working set lazily; the full family is only scanned between
inner phases. Independent solves are safe to run concurrently; one solve
mutates only its own iterate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize

from .instance import Max2LinInstance

__all__ = [
    "SdpConfig",
    "SdpEmbedding",
    "SdpReport",
    "default_rank",
    "enumerate_triples",
    "max_triangle_violation",
    "sdp_objective",
    "solve_sdp",
    "triangle_violation",
]

TRIANGLE_MODES = ("none", "neighborhood", "all")

# coefficient triples on (r_ij, r_jk, r_ik) with product +1; c >= 0 required
_PATTERNS = np.array(
    [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
)

_SCAN_CHUNK = 200_000

# mode="all" refuses instances whose C(n, 3) triple array would exceed ~100 MB
# (24 bytes per triple); n = 289 is the largest instance it accepts
_ALL_TRIPLES_CAP = 4_000_000


def default_rank(n: int) -> int:
    """ceil(sqrt(2n)) + 1, capped at n."""
    return max(1, min(n, math.isqrt(max(2 * n - 1, 0)) + 2))


@dataclass
class SdpConfig:
    rank: int | None = None
    triangle_mode: str = "neighborhood"
    max_outer: int = 60
    max_inner: int = 600
    objective_tol: float = 1e-6
    constraint_tol: float = 1e-6
    penalty_growth: float = 5.0
    penalty_init: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.triangle_mode not in TRIANGLE_MODES:
            raise ValueError(f"triangle_mode must be one of {TRIANGLE_MODES}")
        if self.objective_tol <= 0 or self.constraint_tol <= 0:
            raise ValueError("tolerances must be > 0")
        if self.max_outer < 1 or self.max_inner < 1:
            raise ValueError("iteration budgets must be >= 1")
        if self.penalty_growth <= 1.0:
            raise ValueError("penalty growth factor must be > 1")
        if self.rank is not None and self.rank < 1:
            raise ValueError("rank must be >= 1")


@dataclass
class SdpEmbedding:
    """Unit vectors as rows of an (n, rank) matrix."""

    vectors: np.ndarray

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def rank(self) -> int:
        return self.vectors.shape[1]

    def validate(self, tol: float = 1e-8) -> None:
        norms = np.linalg.norm(self.vectors, axis=1)
        err = float(np.max(np.abs(norms - 1.0))) if len(norms) else 0.0
        if err > tol:
            raise ValueError(f"embedding rows are not unit vectors (max error {err:.2e})")
        if not 1 <= self.rank <= self.n:
            raise ValueError(f"rank must lie in [1, n], got {self.rank} with n={self.n}")


@dataclass
class SdpReport:
    objective: float
    max_violation: float
    iterations: int
    converged: bool
    monotone: bool = True
    n_active: int = 0
    rank: int = 0
    objective_history: list = field(default_factory=list)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def _normalize_rows(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def sdp_objective(inst: Max2LinInstance, emb: SdpEmbedding) -> float:
    """sum_e w_e (1 + b_e <v_i, v_j>) / 2 for the given embedding."""
    if emb.n != inst.n:
        raise ValueError(f"embedding has {emb.n} rows but instance has n={inst.n}")
    if inst.m == 0:
        return 0.0
    r = _rowdot(emb.vectors[inst.edge_i], emb.vectors[inst.edge_j])
    return float(0.5 * (inst.total_weight + (inst.weight * inst.sign) @ r))


def enumerate_triples(inst: Max2LinInstance, mode: str) -> np.ndarray:
    """Triple family as an (t, 3) array of sorted vertex ids.

    mode="all": every C(n, 3) triple, refused (ValueError) above
    _ALL_TRIPLES_CAP triples. mode="neighborhood": every {i, j, k}
    with j, k neighbors of a common center, deduplicated as unordered sets
    (the family the local-gain analysis actually invokes).
    """
    if mode == "all":
        t = math.comb(inst.n, 3)
        if t > _ALL_TRIPLES_CAP:
            raise ValueError(
                f"triangle mode 'all' refused: C({inst.n}, 3) = {t} triples exceeds "
                f"the cap of {_ALL_TRIPLES_CAP}; use 'neighborhood'"
            )
        flat = itertools.chain.from_iterable(itertools.combinations(range(inst.n), 3))
        return np.fromiter(flat, dtype=np.int64, count=3 * t).reshape(-1, 3)
    if mode == "neighborhood":
        seen: set[tuple[int, int, int]] = set()
        for center in range(inst.n):
            nbrs = inst.neighbors(center)[0]
            for a, b in itertools.combinations(sorted(nbrs.tolist()), 2):
                seen.add(tuple(sorted((center, a, b))))
        if not seen:
            return np.empty((0, 3), dtype=np.int64)
        return np.array(sorted(seen), dtype=np.int64)
    raise ValueError(f"mode must be 'neighborhood' or 'all', got {mode!r}")


def triangle_violation(emb: SdpEmbedding, triple, sign_pattern) -> float:
    """Norm-form violation of one signed triangle inequality (middle = second vertex).

    Returns max(0, ||a_i v_i - a_k v_k||^2 - ||a_i v_i - a_j v_j||^2
                   - ||a_j v_j - a_k v_k||^2).
    """
    i, j, k = triple
    ai, aj, ak = sign_pattern
    if not all(a in (-1, 1) for a in (ai, aj, ak)):
        raise ValueError("sign pattern entries must be -1 or +1")
    vi, vj, vk = ai * emb.vectors[i], aj * emb.vectors[j], ak * emb.vectors[k]
    d_ij = float(np.sum((vi - vj) ** 2))
    d_jk = float(np.sum((vj - vk) ** 2))
    d_ik = float(np.sum((vi - vk) ** 2))
    return max(0.0, d_ik - d_ij - d_jk)


def _scan_constraints(v: np.ndarray, triples: np.ndarray, chunk: int = _SCAN_CHUNK):
    """Yield (offset, c) blocks: c[t, p] = 1 + sum_q pattern[p, q] * r_q(t)."""
    for start in range(0, len(triples), chunk):
        t = triples[start : start + chunk]
        r = np.empty((len(t), 3))
        r[:, 0] = _rowdot(v[t[:, 0]], v[t[:, 1]])
        r[:, 1] = _rowdot(v[t[:, 1]], v[t[:, 2]])
        r[:, 2] = _rowdot(v[t[:, 0]], v[t[:, 2]])
        yield start, 1.0 + r @ _PATTERNS.T


def max_triangle_violation(emb: SdpEmbedding, triples: np.ndarray) -> float:
    """Max norm-form violation over the family and all four sign classes."""
    if len(triples) == 0:
        return 0.0
    cmin = math.inf
    for _, c in _scan_constraints(emb.vectors, triples):
        cmin = min(cmin, float(c.min()))
    return max(0.0, -2.0 * cmin)


class _ActiveSet:
    """Lazily activated (triple, sign-class) constraints with multipliers."""

    def __init__(self) -> None:
        self.keys: set[int] = set()
        self.idx = np.empty((0, 3), dtype=np.int64)
        self.pattern = np.empty((0, 3))
        self.lam = np.empty(0)

    def __len__(self) -> int:
        return len(self.lam)

    def add(self, triples: np.ndarray, t_idx: np.ndarray, p_idx: np.ndarray) -> int:
        fresh = [
            (t, p) for t, p in zip(t_idx.tolist(), p_idx.tolist()) if (t * 4 + p) not in self.keys
        ]
        if not fresh:
            return 0
        for t, p in fresh:
            self.keys.add(t * 4 + p)
        t_new = np.array([t for t, _ in fresh], dtype=np.int64)
        p_new = np.array([p for _, p in fresh], dtype=np.int64)
        self.idx = np.vstack([self.idx, triples[t_new]])
        self.pattern = np.vstack([self.pattern, _PATTERNS[p_new]])
        self.lam = np.concatenate([self.lam, np.zeros(len(fresh))])
        return len(fresh)

    def cvals(self, v: np.ndarray) -> np.ndarray:
        if not len(self.lam):
            return np.empty(0)
        r0 = _rowdot(v[self.idx[:, 0]], v[self.idx[:, 1]])
        r1 = _rowdot(v[self.idx[:, 1]], v[self.idx[:, 2]])
        r2 = _rowdot(v[self.idx[:, 0]], v[self.idx[:, 2]])
        return 1.0 + self.pattern[:, 0] * r0 + self.pattern[:, 1] * r1 + self.pattern[:, 2] * r2


def _smooth_grad_matrix(inst: Max2LinInstance) -> sp.csr_matrix:
    half = 0.5 * inst.weight * inst.sign
    rows = np.concatenate([inst.edge_i, inst.edge_j])
    cols = np.concatenate([inst.edge_j, inst.edge_i])
    data = np.concatenate([half, half])
    return sp.csr_matrix((data, (rows, cols)), shape=(inst.n, inst.n))


def solve_sdp(inst: Max2LinInstance, cfg: SdpConfig | None = None) -> tuple[SdpEmbedding, SdpReport]:
    """Solve the relaxation; non-convergence returns the best iterate flagged.

    Convergence means the relative objective change over an outer round fell
    below objective_tol while the max norm-form violation over the configured
    triple family is below constraint_tol.
    """
    cfg = cfg or SdpConfig()
    n = inst.n
    rank = default_rank(n) if cfg.rank is None else cfg.rank
    if not 1 <= rank <= n:
        raise ValueError(f"rank must lie in [1, n]=[1, {n}], got {rank}")

    w_tot = inst.total_weight
    scale = max(1.0, w_tot)
    rng = np.random.default_rng(cfg.seed)
    v = _normalize_rows(rng.standard_normal((n, rank)))

    a_half = _smooth_grad_matrix(inst)
    signed_w = inst.weight * inst.sign

    triples = (
        np.empty((0, 3), dtype=np.int64)
        if cfg.triangle_mode == "none"
        else enumerate_triples(inst, cfg.triangle_mode)
    )
    active = _ActiveSet()
    mu = cfg.penalty_init if cfg.penalty_init is not None else max(
        1e-2, w_tot / max(inst.m, 1)
    )
    # c-form threshold: norm-form violation is -2c, keep activation strictly
    # inside the reporting tolerance
    c_tol = 0.5 * cfg.constraint_tol
    act_thresh = 0.25 * c_tol

    def smooth_obj(mat: np.ndarray) -> float:
        if inst.m == 0:
            return 0.0
        return float(0.5 * (w_tot + signed_w @ _rowdot(mat[inst.edge_i], mat[inst.edge_j])))

    def al_and_grad(mat: np.ndarray) -> tuple[float, np.ndarray]:
        """Augmented objective and its ambient gradient, one constraint pass.

        tr(V^T A V) = sum_e w_e b_e <v_i, v_j> makes the smooth objective a
        byproduct of the gradient matrix.
        """
        g = a_half @ mat
        val = 0.5 * w_tot + 0.5 * float(np.sum(mat * g))
        if len(active):
            c = active.cvals(mat)
            q = np.maximum(0.0, active.lam / mu - c)
            val -= 0.5 * mu * float(q @ q)
            f = mu * q
            nz = f > 0.0
            if np.any(nz):
                idx = active.idx[nz]
                e = active.pattern[nz]
                fe = f[nz][:, None] * e
                rows = np.concatenate([idx[:, 0], idx[:, 0], idx[:, 1], idx[:, 1], idx[:, 2], idx[:, 2]])
                cols = np.concatenate([idx[:, 1], idx[:, 2], idx[:, 0], idx[:, 2], idx[:, 1], idx[:, 0]])
                dat = np.concatenate([fe[:, 0], fe[:, 2], fe[:, 0], fe[:, 1], fe[:, 1], fe[:, 2]])
                g = g + sp.csr_matrix((dat, (rows, cols)), shape=(n, n)) @ mat
        return val, g

    def al_value(mat: np.ndarray) -> float:
        return al_and_grad(mat)[0]

    def gradient(mat: np.ndarray) -> np.ndarray:
        return al_and_grad(mat)[1]

    def scan_full(mat: np.ndarray):
        """(min c over the family, activation candidates)."""
        if len(triples) == 0:
            return math.inf, None
        cmin = math.inf
        t_hits, p_hits = [], []
        for off, c in _scan_constraints(mat, triples):
            cmin = min(cmin, float(c.min()))
            t_loc, p_loc = np.nonzero(c < -act_thresh)
            if len(t_loc):
                t_hits.append(t_loc + off)
                p_hits.append(p_loc)
        hits = (np.concatenate(t_hits), np.concatenate(p_hits)) if t_hits else None
        return cmin, hits

    def negative_al(u_flat: np.ndarray):
        # inner subproblem over the unnormalized factor: V(U) has unit rows,
        # so the sphere constraints vanish and L-BFGS runs unconstrained
        u = u_flat.reshape(n, rank)
        norms = np.linalg.norm(u, axis=1, keepdims=True)
        norms = np.maximum(norms, 1e-30)
        mat = u / norms
        val, g = al_and_grad(mat)
        gt = (g - _rowdot(g, mat)[:, None] * mat) / norms
        return -val, -gt.ravel()

    gtol_floor = 1e-9 * scale
    mu_cap = 1e3 * max(w_tot / max(inst.m, 1), 1e-2)
    total_inner = 0
    monotone = True
    history: list[float] = []
    prev_obj = -math.inf
    prev_viol = math.inf
    converged = False
    stagnant = 0

    cmin, hits = scan_full(v)
    for _ in range(cfg.max_outer):
        if hits is not None:
            active.add(triples, hits[0], hits[1])

        if len(active) and float(active.cvals(v).min()) < -c_tol:
            g = gradient(v)
            gt = g - _rowdot(g, v)[:, None] * v
            if float(np.sum(gt * gt)) <= gtol_floor * gtol_floor * 1e4:
                # stationary but infeasible: symmetric configurations are
                # saddles of the penalized objective (the penalty gradient is
                # radial there); nudge off deterministically
                v = _normalize_rows(v + 1e-4 * rng.standard_normal(v.shape))

        # loose subproblems while infeasibility is large, tight at the end
        gtol = float(np.clip(prev_viol * 1e-2, gtol_floor, 1e-5 * scale)) if math.isfinite(
            prev_viol
        ) else 1e-5 * scale
        al_start = al_value(v)
        res = minimize(
            negative_al,
            v.ravel(),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": cfg.max_inner, "ftol": 1e-16, "gtol": gtol, "maxcor": 12},
        )
        v = _normalize_rows(res.x.reshape(n, rank))
        total_inner += int(res.nit)
        if -res.fun < al_start - 1e-9 * scale:
            monotone = False

        obj = smooth_obj(v)
        history.append(obj)

        cmin, hits = scan_full(v)
        viol = max(0.0, -2.0 * cmin) if len(triples) else 0.0
        rel_change = abs(obj - prev_obj) / max(1.0, abs(obj))
        if rel_change <= cfg.objective_tol and viol <= cfg.constraint_tol:
            converged = True
            break

        # inexact ALM: multiplier step every round (the dual proximal update
        # tolerates inexact subproblems at moderate mu); capped penalty growth
        # when feasibility stalls
        if len(active):
            active.lam = np.maximum(0.0, active.lam - mu * active.cvals(v))
            if viol > cfg.constraint_tol and viol > 0.5 * prev_viol:
                mu = min(mu * cfg.penalty_growth, mu_cap)

        stagnant = stagnant + 1 if rel_change == 0.0 else 0
        if stagnant >= 3:
            break
        prev_obj, prev_viol = obj, viol

    v = _normalize_rows(v)
    emb = SdpEmbedding(vectors=v)
    report = SdpReport(
        objective=smooth_obj(v),
        max_violation=max_triangle_violation(emb, triples),
        iterations=total_inner,
        converged=converged,
        monotone=monotone,
        n_active=len(active),
        rank=rank,
        objective_history=history,
    )
    return emb, report
