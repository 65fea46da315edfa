"""Low-rank solver for the triangle-strengthened Max-2LIN relaxation.

Maximizes sum_e w_e (1 + b_e <v_i, v_j>)/2 over unit vectors v_1..v_n,
optionally subject to the signed l2^2 triangle inequalities

    ||a_i v_i - a_j v_j||^2 + ||a_j v_j - a_k v_k||^2 >= ||a_i v_i - a_k v_k||^2

for all sign patterns (a_i, a_j, a_k) in {+-1}^3 over a configurable triple
family. In inner-product form, each triple {i, j, k} contributes exactly four
distinct constraints (rotating the middle vertex and negating globally both
collapse into the same family):

    1 + e1 r_ij + e2 r_jk + e3 r_ik >= 0   for e1*e2*e3 = +1.

The iterate is an n x r matrix of unit rows (a Burer-Monteiro factorization).
Each solver reads one matrix, built from its entries by _matrix, the one place
that picks a dense array (up to _DENSE_LAYER_MAX_N vertices) or CSR (above).
solve_sdp picks the solver by whether the triple family is empty:

- Empty family (triangle_mode="none", or a graph with no triples): the
  mixing method (_solve_mixing), block-coordinate ascent on the product of
  spheres over the signed adjacency A_ij = w_ij b_ij. A greedy colouring
  splits the vertices into at most
  max_degree + 1 independent sets, and one sweep moves every row of each
  class in turn toward its normalized neighbour sum, the exact maximizer
  over that class, over-relaxed by a factor omega in [1, 2) that rises from
  1 by Young's SOR rule as the sweeps' rate is measured. It runs as a rank
  staircase: it starts at a low rank and adds a column only when the dual
  certificate (cutflip.certify) refuses the iterate.
- Otherwise (_solve_alm): an augmented Lagrangian over the inequality
  constraints. Each inner subproblem runs L-BFGS (_lbfgs, a compact
  inverse Hessian and an Armijo backtracking line search, in numpy) on an
  unnormalized factor U with V = U row-normalized, so the sphere constraints
  vanish; no accepted step lowers the augmented objective. Violated triples
  enter the working set lazily; the full family is only scanned between
  inner phases. The active set owns one matrix K = A/2 + M over A's pattern
  and the vertex pairs its constraints touch; the pattern is built once per
  active-set change, and each evaluation refills K's values and makes one
  product K V, which is the gradient.

Every solve reports a certified upper bound on its relaxation's optimum
(SdpReport.upper_bound), which cutflip.certify proves from the entries
(rows, cols, values) the solver built its matrix from, never the matrix:
certify.upper_bound at the end of each solve, and certify.first_shift_bound
at each rank of the mixing method's staircase below its cap.

Independent solves are safe to run concurrently; one solve mutates only its
own iterate.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import certify
from .instance import Max2LinInstance

__all__ = [
    "SdpConfig",
    "SdpEmbedding",
    "SdpReport",
    "check_all_triples",
    "check_solvable",
    "default_rank",
    "enumerate_triples",
    "max_triangle_violation",
    "sdp_objective",
    "solve_sdp",
]

TRIANGLE_MODES = ("none", "neighborhood", "all")

# coefficient triples on (r_ij, r_jk, r_ik) with product +1; c >= 0 required
_PATTERNS = np.array(
    [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
)

# float64 entries in one gathered (triples, rank) array of the full-family
# scan; a block takes _SCAN_BLOCK // rank triples, bounding its memory
_SCAN_BLOCK = 1 << 20
_UNIT_TOL = 1e-8  # SdpEmbedding.validate's tolerance on row norms

# the mixing method stops once its estimate of the ascent still to come is
# below this share of objective_tol * |objective|: the estimate
# assumes a fixed rate, and in the tail the rate drifts toward 1, so it runs
# up to about 2x low (random 4-regular graphs, n=2000)
_MIXING_STOP_SHARE = 0.1

# the mixing method's over-relaxation factor omega never exceeds this
_OMEGA_MAX = 1.9

# the mixing method starts at rank min(default_rank(n), _RANK_START) and
# climbs one column at a time, up to default_rank(n), while the certificate
# refuses its converged iterate
_RANK_START = 24

# _matrix builds both solvers' matrices dense up to this n, the oracle's
# DEFAULT_CAP: the mixing method's signed adjacency A and the ALM's layer K.
# Small solves in every mode then never import scipy.sparse: a fresh
# `cutflip solve --triangle-mode none --oracle --trials 50` on a 20-vertex
# 4-regular graph takes about 90 ms and 43 MB instead of 157 ms and 57.5 MB
# (medians of 11 interleaved runs on a 2-vCPU Xeon box). One K V, dense
# einsum vs CSR, medians of 10 interleaved timings on the same box: n=14
# 2.24 vs 2.55 us, n=22 3.35 vs 3.26 us, n=26 4.41 vs 3.87 us, n=32 7.38
# vs 5.67 us
_DENSE_LAYER_MAX_N = 26

# the ALM multiplies its penalty by this factor when feasibility stalls
_PENALTY_GROWTH = 5.0

# the inner L-BFGS keeps this many (s, y) pairs and stops once an iteration
# lowers its function by at most _LBFGS_FTOL * max(|f|, |f'|); its
# backtracking line search accepts the first step with sufficient decrease
# _LS_FTOL (Armijo) and gives up after _LS_MAX_EVALS evaluations
_LBFGS_MEMORY = 12
_LBFGS_FTOL = 1e-16
_LS_FTOL = 1e-3
_LS_MAX_EVALS = 20

# solve_sdp refuses a graph with edges whose total weight W lies outside this
# range: the solvers square W-sized values (objectives, gradients, the
# certificate's matrix), which overflow or underflow float64 beyond it
_WEIGHT_RANGE = (1e-100, 1e100)

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
    seed: int = 0

    def __post_init__(self) -> None:
        if self.triangle_mode not in TRIANGLE_MODES:
            raise ValueError(f"triangle_mode must be one of {TRIANGLE_MODES}")
        for name, minimum in (("rank", 1), ("max_outer", 1), ("max_inner", 1), ("seed", 0)):
            value = getattr(self, name)
            if value is None and name == "rank":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < minimum:
                raise ValueError(f"{name} must be >= {minimum}, got {value}")
        for name in ("objective_tol", "constraint_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


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

    def validate(self) -> None:
        norms = np.linalg.norm(self.vectors, axis=1)
        err = float(np.max(np.abs(norms - 1.0))) if len(norms) else 0.0
        if not err <= _UNIT_TOL:  # NaN rows fail too
            raise ValueError(f"embedding rows are not unit vectors (max error {err:.2e})")
        if not 1 <= self.rank <= self.n:
            raise ValueError(f"rank must lie in [1, n], got {self.rank} with n={self.n}")


@dataclass
class SdpReport:
    """Outcome of one solve.

    upper_bound is a certified upper bound on the relaxation's optimum (see
    cutflip.certify); the objective is a lower bound on it when the
    iterate is feasible. Mixing method (empty triple family): iterations
    counts sweeps over every rank of the staircase, and objective_history
    holds the objective after each sweep. Augmented Lagrangian: iterations
    counts the inner L-BFGS iterations (_lbfgs) over all rounds, and
    objective_history holds the objective after each outer round.
    """

    objective: float
    max_violation: float
    iterations: int
    converged: bool
    upper_bound: float
    n_active: int = 0
    objective_history: list = field(default_factory=list)


# np.einsum without its __array_function__ dispatch, the same C routine, so
# the same bits: the dispatch costs about 0.6 of a 2.1 us row-dot at n = 22,
# rank 8 (2-vCPU Xeon box), and every ALM evaluation makes five einsum calls
_einsum = getattr(np.einsum, "_implementation", np.einsum)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _einsum("ij,ij->i", a, b)


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


def check_solvable(cfg: SdpConfig, inst: Max2LinInstance) -> int:
    """The start rank of solve_sdp on inst, or the ValueError it raises: a
    start rank outside [1, n], mode "all" above _ALL_TRIPLES_CAP triples, or a
    total weight W outside _WEIGHT_RANGE (NaN is too; a graph without edges
    has no W to check). It is the one rule solve_sdp and an experiment spec
    apply before anything is allocated, and it reads the instance, not only
    its n and W, so that a rule on m or the triple family can join it."""
    n = inst.n
    rank = default_rank(n) if cfg.rank is None else cfg.rank
    if not 1 <= rank <= n:
        raise ValueError(f"rank must lie in [1, n]=[1, {n}], got {rank}")
    if cfg.triangle_mode == "all":
        check_all_triples(n)
    lo, hi = _WEIGHT_RANGE
    w_tot = inst.total_weight
    if inst.m and not lo <= w_tot <= hi:
        raise ValueError(f"total weight W={w_tot!r} lies outside [{lo:g}, {hi:g}], "
                         "the range the SDP solver can represent")
    return rank


def check_all_triples(n: int) -> int:
    """C(n, 3), the size of mode "all" on n vertices; ValueError above _ALL_TRIPLES_CAP."""
    t = math.comb(n, 3)
    if t > _ALL_TRIPLES_CAP:
        raise ValueError(
            f"triangle mode 'all' refused: C({n}, 3) = {t} triples exceeds "
            f"the cap of {_ALL_TRIPLES_CAP}; use 'neighborhood'"
        )
    return t


def enumerate_triples(inst: Max2LinInstance, mode: str) -> np.ndarray:
    """Triple family as an (t, 3) array of sorted vertex ids.

    mode="all": every C(n, 3) triple, refused (ValueError) above
    _ALL_TRIPLES_CAP triples. mode="neighborhood": every {i, j, k}
    with j, k neighbors of a common center, deduplicated as unordered sets
    (the family the local-gain analysis actually invokes).
    """
    if mode == "all":
        t = check_all_triples(inst.n)
        flat = itertools.chain.from_iterable(itertools.combinations(range(inst.n), 3))
        return np.fromiter(flat, dtype=np.int64, count=3 * t).reshape(-1, 3)
    if mode == "neighborhood":
        # CSR slot s pairs with every later slot of its centre's row
        deg = np.diff(inst.indptr)
        later = np.repeat(inst.indptr[1:], deg) - 1 - np.arange(len(inst.nbr))
        first = np.repeat(np.arange(len(inst.nbr)), later)
        step = np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
        centre = np.repeat(np.arange(inst.n), deg)[first]
        rows = np.stack([centre, inst.nbr[first], inst.nbr[first + 1 + step]], axis=1)
        return np.unique(np.sort(rows, axis=1), axis=0).astype(np.int64, copy=False)
    raise ValueError(f"mode must be 'neighborhood' or 'all', got {mode!r}")


def _scan(v: np.ndarray, triples: np.ndarray, below: float = -math.inf):
    """(min c over the family, (triple ids, sign classes) with c < below),
    with c[t, p] = 1 + sum_q pattern[p, q] * r_q(t) taken _SCAN_BLOCK // rank
    triples at a time; min c is inf over an empty family."""
    chunk = max(1, _SCAN_BLOCK // v.shape[1])
    cmin = math.inf
    t_hits, p_hits = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for start in range(0, len(triples), chunk):
        t = triples[start : start + chunk]
        r = np.empty((len(t), 3))
        r[:, 0] = _rowdot(v[t[:, 0]], v[t[:, 1]])
        r[:, 1] = _rowdot(v[t[:, 1]], v[t[:, 2]])
        r[:, 2] = _rowdot(v[t[:, 0]], v[t[:, 2]])
        c = 1.0 + r @ _PATTERNS.T
        cmin = min(cmin, float(c.min()))
        t_loc, p_loc = np.nonzero(c < below)
        t_hits.append(t_loc + start)
        p_hits.append(p_loc)
    return cmin, (np.concatenate(t_hits), np.concatenate(p_hits))


def max_triangle_violation(emb: SdpEmbedding, triples: np.ndarray) -> float:
    """Max norm-form violation over the family and all four sign classes."""
    return max(0.0, -2.0 * _scan(emb.vectors, triples)[0])


class _ActiveSet:
    """Lazily activated (triple, sign-class) constraints with multipliers,
    kept in activation order, and the fused layer that evaluates them with
    the objective.

    Constraint t reads the inner products r_ij, r_jk, r_ik of its sorted
    triple. Every add() that admits constraints rebuilds the layer: pair_i,
    pair_j list the unique vertex pairs the active constraints touch, slot[t]
    holds the pair indices of constraint t's three inner products, and
    matrix K is one symmetric matrix (_matrix) whose entries (rows, cols),
    in row-major order, are the union of the pattern of the signed
    adjacency A and those pairs. K = A/2 + M(f), where M(f)_ij = M(f)_ji is
    the sum of f_t e_t over the constraints reading r_ij; refill(f) only
    rewrites K's values, from A/2 as fixed base values, and explicit zeros
    stay. Both forms of K give the same bits (_product) and hand the
    certificate the same entries (dual).

    An evaluation (augmented) reads lam / mu and mu times the constraints'
    signs, which are computed at most once per round: assigning lam (the
    multiplier step, add) or passing a new mu drops them, and the next
    evaluation computes them again.
    """

    def __init__(self, triples: np.ndarray, inst: Max2LinInstance) -> None:
        self.triples = triples
        self.inst = inst
        self._half_w = 0.5 * inst.total_weight
        self.seen = np.zeros((len(triples), len(_PATTERNS)), dtype=bool)
        self.idx = np.empty((0, 3), dtype=np.int64)
        self.pattern = np.empty((0, 3))
        self.lam = np.empty(0)
        self._build_layer()

    @property
    def lam(self) -> np.ndarray:
        return self._lam

    @lam.setter
    def lam(self, value: np.ndarray) -> None:
        self._lam = value
        self._lam_mu = None  # lam / mu, computed by the next evaluation

    def __len__(self) -> int:
        return len(self.lam)

    def add(self, t_idx: np.ndarray, p_idx: np.ndarray) -> int:
        fresh = ~self.seen[t_idx, p_idx]
        t_new, p_new = t_idx[fresh], p_idx[fresh]
        # a pair listed twice in one call is admitted once, at its first place
        first = np.sort(np.unique(t_new * len(_PATTERNS) + p_new, return_index=True)[1])
        t_new, p_new = t_new[first], p_new[first]
        if not len(t_new):
            return 0
        self.seen[t_new, p_new] = True
        self.idx = np.vstack([self.idx, self.triples[t_new]])
        self.pattern = np.vstack([self.pattern, _PATTERNS[p_new]])
        self.lam = np.concatenate([self.lam, np.zeros(len(t_new))])
        self._build_layer()
        return len(t_new)

    def _build_layer(self) -> None:
        inst, n = self.inst, self.inst.n
        i, j, k = self.idx.T
        keys = np.stack([i * n + j, j * n + k, i * n + k], axis=1)
        pair_keys, slot = np.unique(keys.ravel(), return_inverse=True)
        self._slot_flat = slot.ravel()
        self.slot = self._slot_flat.reshape(-1, 3)
        # per slot in that flat order: its constraint and its sign
        self._owner = np.repeat(np.arange(len(self.idx)), 3)
        self._signs = self.pattern.ravel()
        # slots and signs by column, r_ij, r_ik, r_jk, for _cvals
        self._slot_cols = self.slot.T[[0, 2, 1]].copy()
        self._sign_cols = self.pattern.T[[0, 2, 1]].copy()
        self.pair_i, self.pair_j = np.divmod(pair_keys, n)
        n_pairs = len(pair_keys)
        self._bins = n_pairs + 1
        # K's entries: A's, then pair p at (i, j) and its mirror (j, i); an
        # edge pair shares its entry with A. Entries off the pairs read the
        # zero that refill's bincount leaves at index n_pairs. unique sorts
        # the keys, the instance's entries among them, into row-major order
        adj_keys = np.repeat(np.arange(n), np.diff(inst.indptr)) * n + inst.nbr
        entry_keys, where = np.unique(
            np.concatenate([adj_keys, pair_keys, self.pair_j * n + self.pair_i]), return_inverse=True
        )
        base = np.zeros(len(entry_keys))
        base[where[: len(adj_keys)]] = 0.5 * (inst.nbr_sign * inst.nbr_weight)
        self.rows, self.cols = np.divmod(entry_keys, n)
        self.matrix, self._values, self._place = _matrix(n, self.rows, self.cols, base)
        self._base = self._values.copy()
        self._entry_pair = np.full(len(self._base), n_pairs)
        self._entry_pair[self._place[where[len(adj_keys) :]]] = np.tile(np.arange(n_pairs), 2)

    def _pair_products(self, v: np.ndarray) -> np.ndarray:
        return _rowdot(v.take(self.pair_i, axis=0), v.take(self.pair_j, axis=0))

    def _cvals(self, r: np.ndarray) -> np.ndarray:
        # by column, einsum adds each constraint's three terms in row order:
        # (e1 r_ij + e3 r_ik) + e2 r_jk, the order in which its row-dot over
        # a (T, 3) array sums on two-lane SIMD, here in loops T long, not 3
        c = _einsum("ij,ij->j", self._sign_cols, r.take(self._slot_cols))
        c += 1.0
        return c

    def cvals(self, v: np.ndarray) -> np.ndarray:
        """c[t] = 1 + e1 r_ij + e2 r_jk + e3 r_ik, one row-dot per active pair."""
        return self._cvals(self._pair_products(v))

    def refill(self, f: np.ndarray, signs: np.ndarray) -> np.ndarray:
        """Refill K = A/2 + M in place, M_ij the sum of f_t s over the
        constraints t that read r_ij, s the sign of that slot in signs (one
        per slot, in slot order: the constraints' signs, or mu times them);
        M's value per pair, then a zero."""
        m = np.bincount(self._slot_flat, weights=np.multiply(f.take(self._owner), signs), minlength=self._bins)
        np.add(self._base, m.take(self._entry_pair), out=self._values)
        return m

    def dual(self, lam: np.ndarray, v: np.ndarray):
        """Refill K with lam; what the certificate reads: the entries (rows, cols,
        values) of A' = 2 K(lam) (cutflip.certify), and y_i = <(A' V)_i, v_i>."""
        self.refill(lam, self._signs)
        y = _rowdot(_product(2.0 * self.matrix, v), v)
        return (self.rows, self.cols, 2.0 * self._values.take(self._place)), y

    def augmented(self, v: np.ndarray, mu: float) -> tuple[float, np.ndarray]:
        """tr(V^T A V)/4 plus the penalty -mu/2 ||max(0, lam/mu - c)||^2, and
        its gradient in v, with one product K V.

        With f = mu * max(0, lam/mu - c), the gradient is (A/2 + M(f)) V = K V,
        and <V, M(f) V> = 2 sum_p m_p r_p over the pairs, so the smooth term
        is <V, K V>/2 - sum_p m_p r_p.
        """
        if self._lam_mu is None or mu != self._mu:
            # (mu q) e is q (mu e) bit for bit: e is +-1
            self._lam_mu, self._mu_signs, self._mu = self._lam / mu, mu * self._signs, mu
        r = self._pair_products(v)
        q = self._cvals(r)
        np.subtract(self._lam_mu, q, out=q)
        np.maximum(0.0, q, out=q)
        m = self.refill(q, self._mu_signs)
        kv = _product(self.matrix, v)
        val = 0.5 * float(np.vdot(v, kv)) - float(m[:-1].dot(r)) - 0.5 * mu * float(q.dot(q))
        return val, kv

    def negative_al(self, u_flat: np.ndarray, mu: float) -> tuple[float, np.ndarray]:
        """Minus the augmented objective W/2 + augmented(V, mu) at V = U
        row-normalized, and its gradient in U, with U the flattened (n, rank)
        u_flat: the ALM's inner subproblem, over which the sphere constraints
        vanish and L-BFGS runs unconstrained."""
        u = u_flat.reshape(self.inst.n, -1)
        norms = _rowdot(u, u)
        norms = np.maximum(np.sqrt(norms, out=norms), 1e-30, out=norms)[:, None]
        mat = u / norms
        val, g = self.augmented(mat, mu)
        # minus the gradient in u: the part of g across each row, over its norm
        g_neg = _rowdot(g, mat)[:, None] * mat
        g_neg -= g
        g_neg /= norms
        return -(self._half_w + val), g_neg.ravel()


def _matrix(n: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray):
    """The n x n matrix with entries (rows, cols, values), rows grouped in
    ascending order and each row's entries in the order given: a dense array
    up to _DENSE_LAYER_MAX_N vertices, zero off the entries, and CSR above.
    Returns (matrix, its stored values as one flat view, each entry's index
    in that view). The only place that picks the form."""
    if n <= _DENSE_LAYER_MAX_N:
        matrix, place = np.zeros((n, n)), rows * n + cols
        matrix.flat[place] = values
        return matrix, matrix.reshape(-1), place
    import scipy.sparse as sp  # only the CSR matrices need it

    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    matrix = sp.csr_matrix((values, cols, indptr), shape=(n, n))
    return matrix, matrix.data, np.arange(len(values))


def _product(matrix, v: np.ndarray) -> np.ndarray:
    """matrix V for K or 2K. einsum, unlike BLAS, sums over j in order as CSR does
    while j is not its inner loop; reading the symmetric K as "ji" keeps it outer at rank 1."""
    return _einsum("ji,jk->ik", matrix, v) if isinstance(matrix, np.ndarray) else matrix @ v


def _signed_adjacency(inst: Max2LinInstance, order: np.ndarray):
    """(A, its entries (rows, cols, values)) for A_ij = A_ji = w_ij b_ij with
    rows and columns permuted into order: row p is vertex order[p]'s. Rows
    come in that order, and each row's entries in ascending original column,
    relabelled, as scipy's csr[order][:, order] orders them."""
    pos = np.argsort(order)
    rows = pos[np.repeat(np.arange(inst.n), np.diff(inst.indptr))]
    by = np.lexsort((inst.nbr, rows))
    entries = rows[by], pos[inst.nbr[by]], (inst.nbr_sign * inst.nbr_weight)[by]
    return _matrix(inst.n, *entries)[0], entries


def _climb(u: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """u with one more column of standard normal entries, row-normalized.

    The new coordinate has unit variance, so the rows move far (34 degrees
    on average) and the sweeps that follow settle anew. Smaller steps fail:
    a column at 1% of that scale, or one along the direction of negative
    curvature that a refused LDL^T factorization gives (L^-T e_k at its most
    negative pivot k), leaves the sweeps near the same saddle, and the stop
    rule fires there again (random 4-regular graphs, n=2000, start rank 12
    or 16).
    """
    return _normalize_rows(np.hstack([u, rng.standard_normal((len(u), 1))]))


def _colour_classes(inst: Max2LinInstance) -> tuple[np.ndarray, np.ndarray]:
    """Greedy colouring in vertex order: (vertices sorted by colour, class sizes).

    Each vertex takes the smallest colour no neighbour already holds, so no
    class contains an edge and there are at most max_degree + 1 classes.
    """
    indptr, nbr = inst.indptr.tolist(), inst.nbr.tolist()
    colour = [-1] * inst.n
    for i in range(inst.n):
        used = {colour[j] for j in nbr[indptr[i] : indptr[i + 1]]}
        c = 0
        while c in used:
            c += 1
        colour[i] = c
    colours = np.array(colour, dtype=np.int64)
    return np.argsort(colours, kind="stable"), np.bincount(colours)


def _raised_omega(omega: float, rho: float) -> float:
    """Young's optimal relaxation factor for a sweep rate rho measured at
    omega, capped at _OMEGA_MAX and never below omega; omega itself where no
    Jacobi rate mu < 1 fits rho."""
    mu2 = (rho + omega - 1.0) ** 2 / (rho * omega * omega)
    if not mu2 < 1.0:
        return omega
    return min(_OMEGA_MAX, max(omega, 2.0 / (1.0 + math.sqrt(1.0 - mu2))))


def _solve_mixing(
    inst: Max2LinInstance, cfg: SdpConfig, v: np.ndarray, rng: np.random.Generator
) -> tuple[SdpEmbedding, SdpReport]:
    """Mixing method: sweeps of over-relaxed block updates over the colour
    classes, as a certified rank staircase.

    Rows are permuted so that each class is a contiguous block. A class is
    an independent set, so its row block of A has no entry in the class's
    own columns: one product of the block with the iterate gives
    every g_i = sum_j w_ij b_ij v_j from vectors of other classes, and
    the exact step v_i <- g_i / ||g_i|| maximizes the objective over all its
    rows at once. The sweeps take the over-relaxed (SOR) step instead:
    v_i <- (1 - omega) v_i + omega g_i / ||g_i||, renormalized, for omega in
    [1, _OMEGA_MAX]; a row with g_i = 0 keeps its vector. With
    c = <v_i, g_i> / ||g_i||, the new row has <v_i', g_i> / ||g_i|| > 0 and
    its square exceeds c^2 by a multiple of
    omega (1 - c^2)(2 (1 - omega) c + omega) >= 0 for omega < 2, so no step
    lowers the objective, and v_i' = v_i only where v_i = g_i / ||g_i||,
    the exact step's fixed points. A class update raises the objective by
    1/2 sum_i <v_i' - v_i, g_i>; the sweep's gain sums that over the classes,
    taken as the difference of two inner products. Once a sweep leaves
    every row as it was, the two still differ by the roundoff of their
    sums, which can repeat sweep after sweep (a 3-vertex star with weights
    0.5 and 0.3125 gained 1.1e-16 per sweep until the budget ran out).

    omega is 1 on the first three sweeps of each rank: a graph the exact
    step solves in one sweep (a single edge) stops after the second, where a
    fixed omega = 1.8 overshoots, converges linearly and stops 6e-8 short of
    the optimum. From the third on, each sweep with a gain ratio
    rho = gain / previous gain below 1 raises omega by Young's rule for SOR,
    as if rho were the rate of SOR at omega on a linear system: the Jacobi
    rate mu follows from mu^2 = (rho + omega - 1)^2 / (rho omega^2), and the
    optimal factor is 2 / (1 + sqrt(1 - mu^2)) (_raised_omega). omega never
    falls within a rank, and a climb resets it to 1. On random 4-regular
    graphs at n=2000 this cuts the sweeps from about 800 to about 80 (omega
    ends at or near _OMEGA_MAX, and the tail gain ratio falls from about
    0.993 to about 0.9), at the same certified objective.

    A rank stops once a sweep gains nothing, that is at most n * eps * W
    (eps the float64 machine epsilon; 1 stands in for W on an edgeless
    graph), or once the ascent still to come, extrapolated from the last two
    gains at a fixed rate, falls below
    _MIXING_STOP_SHARE * objective_tol * |objective|. At the rank
    cap, max(default_rank(n), start rank), the solve converges there. Below
    it, certify.first_shift_bound decides with one factorization of
    S = Diag(y) - A + delta I at the first shift: the solve converges with
    that bound when S is positive definite, and otherwise appends a random
    column (_climb) and sweeps on. Above the size certify factors nothing
    refuses, so the solve converges at its start rank.
    An iterate that stopped without that bound gets it from certify.upper_bound.
    Sweeps over every rank share the budget of max_outer * max_inner.
    """
    n = inst.n
    max_rank = max(v.shape[1], default_rank(n))
    order, sizes = _colour_classes(inst)
    adj, entries = _signed_adjacency(inst, order)
    bounds = np.concatenate([[0], np.cumsum(sizes)]).tolist()
    blocks = [(lo, hi, adj[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    u = v[order]

    w_tot = inst.total_weight
    unit = w_tot or 1.0  # the scale of every tolerance: W, or 1 on an edgeless graph
    no_gain = n * np.finfo(float).eps * unit  # the roundoff of a sweep's gain
    obj = 0.5 * w_tot + 0.25 * float(np.vdot(u, adj @ u))
    prev_gain = 0.0  # no rate estimate yet
    fresh = True  # the next sweep is the first at this rank
    omega = 1.0
    history: list[float] = []
    converged = False
    bound = None  # the first shift's, once it certifies below the rank cap
    while len(history) < cfg.max_outer * cfg.max_inner:
        gain = 0.0
        for lo, hi, rows in blocks:
            g = rows @ u
            block = u[lo:hi]
            vg = _rowdot(block, g)
            norms = np.sqrt(_rowdot(g, g))
            # v_i' = a_i v_i + b_i g_i is (1 - omega) v_i + omega g_i / ||g_i||
            # over its size, which a unit row gives from c = <v_i, g_i> / ||g_i||:
            # sqrt((1 - omega)^2 + omega^2 + 2 omega (1 - omega) c). A row with
            # g_i = 0 keeps its vector: its infinite norm makes c = b_i = 0
            zero = np.flatnonzero(norms == 0.0)
            norms[zero] = np.inf
            size = np.sqrt(vg / norms * (2.0 * omega * (1.0 - omega)) + ((1.0 - omega) ** 2 + omega**2))
            a = (1.0 - omega) / size
            a[zero] = 1.0
            block *= a[:, None]
            block += (omega / (norms * size))[:, None] * g
            gain += 0.5 * float(np.vdot(block, g) - vg.sum())
        obj += gain
        history.append(obj)
        # at rate rho = gain / prev_gain, gain * rho / (1 - rho) is still to come
        rest = gain * gain / (prev_gain - gain) if gain < prev_gain else math.inf
        if gain <= no_gain or rest <= _MIXING_STOP_SHARE * cfg.objective_tol * abs(obj):
            if u.shape[1] < max_rank:
                bound = certify.first_shift_bound(entries, _rowdot(adj @ u, u), w_tot, obj)
                if bound is None:
                    u = _climb(u, rng)
                    obj = 0.5 * w_tot + 0.25 * float(np.vdot(u, adj @ u))
                    prev_gain, fresh, omega = 0.0, True, 1.0
                    continue
            converged = True
            break
        if gain < prev_gain:
            omega = _raised_omega(omega, gain / prev_gain)
        # the first sweep at a rank leaves a start point; its gain says
        # nothing of the rate
        prev_gain = 0.0 if fresh else gain
        fresh = False

    if bound is None:  # at the rank cap, or the sweep budget ran out
        bound = certify.upper_bound(entries, _rowdot(adj @ u, u), w_tot, obj)
    v = np.empty_like(u)
    v[order] = u
    emb = SdpEmbedding(vectors=v)
    report = SdpReport(
        objective=sdp_objective(inst, emb),
        max_violation=0.0,
        iterations=len(history),
        converged=converged,
        upper_bound=bound,
        objective_history=history,
    )
    return emb, report


def _backtrack(fg, x: np.ndarray, f0: float, d: np.ndarray, gd0: float, stp: float):
    """Armijo backtracking from x along the descent direction d
    (Nocedal-Wright, Numerical Optimization, 3.1 and 3.5).

    f0 and gd0 < 0 are the value and directional derivative at x, stp the
    first trial step. Returns (stp, x + stp d, value, gradient, directional
    derivative) at the first step with f <= f0 + _LS_FTOL stp gd0, or None
    after _LS_MAX_EVALS refusals. A refused step is cut to the minimizer of
    the quadratic through f0, gd0 and its value, kept within [0.1, 0.5] of
    it (a NaN value takes 0.5).
    """
    for _ in range(_LS_MAX_EVALS):
        xt = x + d if stp == 1.0 else x + stp * d  # 1.0 * d is d, bit for bit
        f, g = fg(xt)
        if f <= f0 + _LS_FTOL * stp * gd0:
            return stp, xt, f, g, float(g.dot(d))
        stp *= max(0.1, min(0.5, -0.5 * gd0 * stp / (f - f0 - gd0 * stp)))
    return None


class _InverseHessian:
    """The L-BFGS inverse-Hessian approximation in compact form
    (Byrd-Nocedal-Schnabel 1994) over the last k <= _LBFGS_MEMORY pairs
    s = x' - x, y = g' - g:

        H = gamma I + [S  gamma Y] M [S  gamma Y]^T,
        M = [[R^-T (D + gamma Y^T Y) R^-1, -R^-T], [-R^-1, 0]],

    with the pairs oldest first in the columns of S and Y, R the upper
    triangle of S^T Y, D its diagonal and gamma = s^T y / y^T y of the newest
    pair (H = I while empty).

    The pairs sit in a ring of _LBFGS_MEMORY slots, s and y of slot t at
    rows 2t and 2t + 1 of w, and every matrix is kept in slot order: a slot
    not in use has a zero row and column in R^-1, hence in M, so a direction
    is one product with w and one with its transpose, whatever k is. Each
    update empties the slot it fills, which drops the oldest pair once the
    ring is full (the trailing block of an upper triangular inverse is the
    inverse of the trailing block), extends R^-1 by the new pair's column
    and rebuilds M in place.
    """

    def __init__(self, n: int) -> None:
        m = _LBFGS_MEMORY
        self.w = np.zeros((2 * m, n))
        self.r_inv = np.zeros((m, m))
        self.yy = np.zeros((m, m))  # Y^T Y
        self.sy = np.zeros((m, m))  # D
        self._inner = np.empty((m, m))  # D + gamma Y^T Y
        # s_u^T y and y_u^T y for every slot u, interleaved as w's rows
        self._prods = np.empty(2 * m)
        self._r_col, self._y_row = self._prods[0::2], self._prods[1::2]
        # M with gamma folded into its blocks, rows and columns in w's order
        self.middle = np.zeros((2 * m, 2 * m))
        # views of its blocks: R^-T (D + gamma Y^T Y) R^-1 at (s, s) and
        # -gamma R^-1 at (y, s), transposed at (s, y)
        blocks = self.middle.reshape(m, 2, m, 2)
        self._m_ss, self._m_ys, self._m_sy = blocks[:, 0, :, 0], blocks[:, 1, :, 0], blocks[:, 0, :, 1]
        self.reset()

    def reset(self) -> None:
        self.k = 0
        self.next = 0  # the slot the next pair fills
        self.gamma = 1.0
        self.r_inv[:] = 0.0
        self.middle[:] = 0.0

    def direction(self, g: np.ndarray) -> np.ndarray:
        """-H g."""
        if self.k == 0:
            return -g
        d = self.middle.dot(self.w.dot(g)).dot(self.w)
        d += self.gamma * g
        return np.negative(d, out=d)

    def update(self, s: np.ndarray, y: np.ndarray, sy: float) -> None:
        """Add the pair (s, y), with s^T y = sy > 0."""
        t = self.next
        self.next = (t + 1) % _LBFGS_MEMORY
        self.k = min(self.k + 1, _LBFGS_MEMORY)
        w = self.w
        w[2 * t] = s
        w[2 * t + 1] = y
        w.dot(y, out=self._prods)
        r_col, y_row = self._r_col, self._y_row
        # R^-1 of [[R, r], [0, sy]] is [[R^-1, -R^-1 r / sy], [0, 1 / sy]];
        # slot t's old row and r's entry for slot t drop out
        r_inv = self.r_inv
        r_inv[t] = 0.0
        r_col[t] = 0.0
        np.multiply(r_inv.dot(r_col), -1.0 / sy, out=r_inv[:, t])
        r_inv[t, t] = 1.0 / sy
        self.yy[t] = self.yy[:, t] = y_row
        self.sy[t, t] = sy
        self.gamma = gamma = sy / float(y_row[t])

        inner = np.multiply(self.yy, gamma, out=self._inner)
        inner += self.sy
        self._m_ss[...] = r_inv.T.dot(inner).dot(r_inv)
        np.multiply(r_inv, -gamma, out=self._m_ys)
        self._m_sy[...] = self._m_ys.T


def _lbfgs(fg, x: np.ndarray, gtol: float, max_iter: int) -> tuple[np.ndarray, float, int]:
    """Minimize fg (x -> (value, gradient)) from x: (x, value, iterations).

    Limited-memory BFGS (Liu-Nocedal 1989): direction -H g
    (_InverseHessian), first trial step 1/||d|| on the first iteration and
    1 after, Armijo backtracking (_backtrack), so no accepted step raises
    the value. The update is skipped when s^T y <= eps * (-g^T s); a failed
    search or an ascent direction clears the memory and retries along -g,
    and ends the run when the memory was already empty. Stops once
    max|g| <= gtol, once an iteration lowers the value by at most
    _LBFGS_FTOL * max(|f|, |f'|), or after max_iter iterations.

    Per iteration it makes one direction (two products with the stored
    pairs, one with the 2k x 2k middle matrix), calls fg once per trial step
    of the search (x + d at a unit step, the common case, since 1.0 * d is d
    bit for bit) and makes one update, which writes the middle matrix's
    blocks through views made once per run. Every product here and in
    _InverseHessian is ndarray.dot: it calls the BLAS routine that @ calls
    (ddot, dgemv or dgemm, so the same bits) without the matmul ufunc's
    overhead, 0.3-0.4 us a call at desk sizes.
    """
    f, g = fg(x)
    memory = _InverseHessian(len(x))
    eps = np.finfo(float).eps
    nit = 0
    # max|g| > gtol, without the temporary |g| (a NaN stops it, as it did)
    while nit < max_iter and (g.max() > gtol or g.min() < -gtol):
        d = memory.direction(g)
        gd0 = float(g.dot(d))
        step = None
        if gd0 < 0.0:
            stp = 1.0 / math.sqrt(float(d.dot(d))) if nit == 0 else 1.0
            step = _backtrack(fg, x, f, d, gd0, stp)
        if step is None:
            if memory.k == 0:
                break
            memory.reset()
            continue
        stp, x, f_new, g_new, gd = step
        nit += 1
        f_old, f = f, f_new
        y, g = g_new - g, g_new
        if f_old - f <= _LBFGS_FTOL * max(abs(f_old), abs(f)):
            break
        sy = (gd - gd0) * stp
        if sy > eps * (-gd0 * stp):
            memory.update(d if stp == 1.0 else stp * d, y, sy)
    return x, f, nit


def _solve_alm(
    inst: Max2LinInstance,
    cfg: SdpConfig,
    v: np.ndarray,
    rng: np.random.Generator,
    triples: np.ndarray,
) -> tuple[SdpEmbedding, SdpReport]:
    """Augmented Lagrangian over the signed triangle inequalities of triples.

    Each round admits the constraints the last scan found violated, nudges
    the iterate (rng) off a stationary point the scan found infeasible, then
    takes the inner solve (_lbfgs on the augmented objective over the
    unnormalized factor, at most max_inner iterations), the scan over the
    family, the multiplier step lam <- max(0, lam - mu c), the stop test and
    penalty growth. The step runs every round, as the inexact ALM's dual
    proximal update tolerates inexact subproblems at moderate mu; the
    certificate reads the last step's multipliers, for which the final
    iterate is stationary up to the inner tolerance. Converges once the
    relative objective change over a round falls below objective_tol while
    the max norm-form violation is below constraint_tol; otherwise stops
    after max_outer rounds. The penalty starts at W/m (1 on an edgeless
    graph) and grows by _PENALTY_GROWTH whenever a round leaves the
    violation above constraint_tol without halving it; it has no ceiling.

    Work per active-set change: the layer's pattern, its map from K's
    entries to the pairs and the constraints' pair slots (_ActiveSet.add).
    Per round: lam / mu, after the multiplier step, a penalty step or new
    constraints, computed by the round's first evaluation. Per evaluation
    (_ActiveSet.negative_al): the row norms of U, one inner product per
    pair, the penalty terms and K's values in place, one product K V and the
    gradient in U in place. None of it changes a bit of the iterates. At
    desk sizes (n = 14-22, rank <= 8) an L-BFGS iteration is mostly the
    fixed cost of its numpy calls, about 63 of them, on arrays of 8 to 933
    entries. Solve time per iteration, in one process on a 2-vCPU Xeon box
    whose speed varies by up to 2x from hour to hour: 59-70 us at desk
    sizes (105-110 us at a slow hour) and 350-420 us at nbhd sizes
    (n = 150-200).
    """
    n, rank = v.shape
    w_tot = inst.total_weight
    unit = w_tot or 1.0  # the scale of every tolerance: W, or 1 on an edgeless graph
    active = _ActiveSet(triples, inst)
    mu = unit / max(inst.m, 1)
    # c-form threshold: norm-form violation is -2c, keep activation strictly
    # inside the reporting tolerance
    c_tol = 0.5 * cfg.constraint_tol
    act_thresh = 0.25 * c_tol

    def negative_al(u_flat: np.ndarray):
        return active.negative_al(u_flat, mu)  # at the current round's mu

    gtol_floor = 1e-9 * unit
    total_inner = 0
    history: list[float] = []
    prev_obj = -math.inf
    prev_viol = math.inf
    converged = False

    cmin, hits = _scan(v, triples, -act_thresh)
    for _ in range(cfg.max_outer):
        active.add(*hits)

        # the scan's cmin, below -act_thresh, so the constraint at it is
        # active; the test follows the scan's arithmetic, which also decides
        # admission (active.cvals(v) may differ from it in the last bits)
        if cmin < -c_tol:
            g = active.augmented(v, mu)[1]
            gt = g - _rowdot(g, v)[:, None] * v
            if float(np.sum(gt * gt)) <= gtol_floor * gtol_floor * 1e4:
                # stationary but infeasible: symmetric configurations are
                # saddles of the penalized objective (the penalty gradient is
                # radial there); nudge off deterministically
                v = _normalize_rows(v + 1e-4 * rng.standard_normal(v.shape))

        # loose subproblems while infeasibility is large (the first round,
        # at prev_viol = inf, takes the upper end), tight at the end
        gtol = float(np.clip(prev_viol * 1e-2, gtol_floor, 1e-5 * unit))
        u, _, nit = _lbfgs(negative_al, v.ravel(), gtol, cfg.max_inner)
        v = _normalize_rows(u.reshape(n, rank))
        total_inner += nit

        obj = sdp_objective(inst, SdpEmbedding(vectors=v))
        history.append(obj)

        cmin, hits = _scan(v, triples, -act_thresh)
        viol = max(0.0, -2.0 * cmin)
        active.lam = np.maximum(0.0, active.lam - mu * active.cvals(v))
        rel_change = abs(obj - prev_obj) / (abs(obj) or unit)
        if rel_change <= cfg.objective_tol and viol <= cfg.constraint_tol:
            converged = True
            break
        if len(active) and viol > cfg.constraint_tol and viol > 0.5 * prev_viol:
            mu *= _PENALTY_GROWTH
        prev_obj, prev_viol = obj, viol

    # the last round's v, obj, viol and multipliers are the final iterate's;
    # the multipliers fold into A' = 2 K(lam) (cutflip.certify)
    emb = SdpEmbedding(vectors=v)
    upper = certify.upper_bound(*active.dual(active.lam, v), w_tot, obj, float(np.sum(active.lam)))
    report = SdpReport(
        objective=obj,
        max_violation=viol,
        iterations=total_inner,
        converged=converged,
        upper_bound=upper,
        n_active=len(active),
        objective_history=history,
    )
    return emb, report


def solve_sdp(inst: Max2LinInstance, cfg: SdpConfig | None = None) -> tuple[SdpEmbedding, SdpReport]:
    """Solve the relaxation; non-convergence returns the last iterate flagged.

    Both solvers start from seeded random unit rows: the augmented
    Lagrangian (see _solve_alm) at rank default_rank(n), for at most
    max_outer rounds; with an empty triple family the mixing method (see
    _solve_mixing) at rank min(default_rank(n), _RANK_START) at every n, for
    at most max_outer * max_inner sweeps. cfg.rank, when set, is the start
    rank of either. The returned embedding is validated
    (SdpEmbedding.validate). What check_solvable refuses is refused first
    (ValueError).
    """
    cfg = cfg or SdpConfig()
    n = inst.n
    rank = check_solvable(cfg, inst)

    rng = np.random.default_rng(cfg.seed)
    mode = cfg.triangle_mode
    triples = np.empty((0, 3), dtype=np.int64) if mode == "none" else enumerate_triples(inst, mode)
    if len(triples) == 0:
        start = min(rank, _RANK_START) if cfg.rank is None else rank
        emb, report = _solve_mixing(inst, cfg, _normalize_rows(rng.standard_normal((n, start))), rng)
    else:
        v = _normalize_rows(rng.standard_normal((n, rank)))
        emb, report = _solve_alm(inst, cfg, v, rng, triples)
    emb.validate()
    return emb, report
