"""The certified upper bound on the SDP relaxation's optimum (SdpReport.upper_bound).

Weak duality gives one from any y with Diag(y) - A' positive semidefinite: the
optimum is at most W/2 + sum(lam) + (sum(y) + n delta)/4 when
Diag(y) - A' + delta I is, where A' = A + 2 sum_t lam_t e_t folds multipliers
lam >= 0 of the triangle constraints into the signed adjacency A (A' = A
without them; with them, A' = 2 K(lam), the ALM's matrix K = A/2 + M refilled
with the multipliers). y_i = <(A' V)_i, v_i> makes the bound equal the
objective plus n delta / 4 at a stationary iterate V.
A' is read as the entries the solver built it from, (rows, cols, values)
grouped by row over n = len(y) rows: those off its diagonal only (a
diagonal one raises ValueError, so S's diagonal is y + delta), each
(row, col) once, explicit zeros allowed, each with its mirror, of the same
value, since A' is symmetric. One path certifies positive definiteness
(_shift_certificate): independent sets of S's pattern are eliminated while
each pays for itself, each with positive pivots (_eliminated), and the
dense remainder's lower triangle, written once into column blocks
(_lower_blocks), the one layout at every size, takes one right-looking
block Cholesky (_positive_definite: numpy's Cholesky of each block's
leading square, whose Schur complement then overwrites the blocks after
it; a block is dropped once factored). No r x r array is ever held: traced
by tracemalloc, one certificate at the final none-mode
iterate peaks at 4.4 MB for the 851 rows left at n = 2000, d = 4 (one
r x r copy: 5.8 MB), and at 58 MB for 3218 rows at n = 5000, d = 10
(83 MB). Above _FACTOR_MAX_N vertices, where that remainder costs too
much, the Gershgorin shift certifies instead; it needs no factorization but
gives a loose bound, and the mixing method stays at its start rank. The
bound is capped by W, which no objective exceeds; in none mode the
Gershgorin bound is never below W, so there the cap is the bound.
The entries: upper_bound, and the mixing method's first_shift_bound.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["first_shift_bound", "upper_bound"]

# the certificate's first shift delta gives an upper bound within this share
# of the objective above it; refused shifts double, and the
# bracket between the last refused and the first accepted shift is bisected
# down to _SHIFT_RTOL of the accepted one (each certificate at n <= 22
# takes about 0.02 ms)
_GAP_TOL = 1e-5
_SHIFT_RTOL = 0.01

# the certificate eliminates an independent set of k of the m rows left only
# if k m^2, about the flops that takes off the final Cholesky, is at least
# this many times the entries the elimination handles: the stored ones and
# the fill products (the sum of the set's squared degrees). This rule alone
# decides at every size; at desk sizes (m^3 below this many times the stored
# entries) no set can pay, and S itself is factored. A larger value
# stops sooner and leaves a larger dense remainder; a smaller one holds more
# fill at once. One certificate at the final none-mode iterate (gen seed 1),
# at 1024 / 2048, on a 2-vCPU Intel Xeon box (medians of alternating calls,
# two runs): n=5000 d=6 240-290 / 193-203 ms, 2480 / 2644 rows left, and a
# fresh none-mode solve there peaks at 104 / 96 MB; n=2000 d=4 and n=5000
# d=10 leave the same 851 and 3218 rows at both, and n=200-1500 moves by at
# most 10%
_ELIMINATE_COST = 2048

# the largest n whose certificate is factored. The dense remainder keeps
# about a third of the rows of random 4-regular graphs at n=10000-20000
# (3613 and 7042 rows), so its memory grows as n^2 and its Cholesky as n^3
# (one certificate that accepts at the final none-mode iterate, d=4, gen
# seed 1, fresh-process peak with the solve's: 0.07 s and 72 MB at n=4000,
# 0.6 s and 134 MB at n=10000, 3.5 s and 375 MB at n=20000, on a
# 2-vCPU Intel Xeon box; the last elimination round's arrays peak about as
# high as the blocks); above it the bound takes the Gershgorin
# shift, and the mixing method stays at its start rank since nothing
# refuses its iterate
_FACTOR_MAX_N = 5000

# the width of the column blocks that hold the remainder's lower triangle
# (_lower_blocks), each factored as one numpy Cholesky of its leading square
# (_positive_definite); the last block takes the rest, up to twice this
# width, so a remainder of up to twice this many rows is one block, its
# lower triangle.
# For r rows left and blocks of b columns the blocks hold about r(r + b)/2
# floats, and the factorization X and one column block of X^T X up to b r
# floats each. On a 2-vCPU Intel Xeon box (gen seed 1), at 128 / 256: one
# certificate at the final none-mode iterate takes 15.7 / 19.3 ms at n=2000
# d=4 (851 rows left; 4.4 / 6.2 MB traced, one r x r copy 5.8 MB), 207 / 199
# ms at n=5000 d=6 and 473 / 454 ms at n=5000 d=10 (medians of alternating
# calls); a fresh none-mode solve peaks at 60.6 / 61.6 MB at n=2000 d=4,
# 96 / 100 MB at n=5000 d=6 and 126 / 130 MB at n=5000 d=10
_CHOLESKY_BLOCK = 128


def upper_bound(entries: tuple, y: np.ndarray, w_tot: float, objective: float, lam_sum: float = 0.0) -> float:
    """The bound for A' with entries (rows, cols, values) off its diagonal,
    y and lam_sum = sum(lam), at the least shift _certified_shift accepts
    from the first shift of objective (of W if it is 0, of 1 without edges)."""
    shift = _certified_shift(_off_diagonal(entries), y, _first_shift(objective or w_tot or 1.0, len(y)))
    return _upper_bound(w_tot, lam_sum, y, shift)


def first_shift_bound(entries: tuple, y: np.ndarray, w_tot: float, objective: float) -> float | None:
    """upper_bound without multipliers if one factorization accepts the first
    shift, else None; above _FACTOR_MAX_N rows nothing is factored, so
    nothing refuses: the bound at the Gershgorin shift."""
    if len(y) > _FACTOR_MAX_N:
        return upper_bound(entries, y, w_tot, objective)
    delta = _first_shift(objective or w_tot or 1.0, len(y))
    return _upper_bound(w_tot, 0.0, y, delta) if _shift_certificate(_off_diagonal(entries), y, delta) else None


def _off_diagonal(entries: tuple) -> tuple:
    """entries, refused with ValueError if one lies on the diagonal."""
    if (entries[0] == entries[1]).any():
        raise ValueError("A' must come as its entries off the diagonal")
    return entries


def _radii(entries: tuple, n: int) -> np.ndarray:
    """The Gershgorin radii sum_j |A'_ij| of n rows over their entries,
    summed one term at a time in the entries' order. An explicit zero adds 0
    to a partial sum and leaves its bits alone."""
    rows, _, values = entries
    return np.bincount(rows, np.abs(values), n)


def _independent_set(rows: np.ndarray, cols: np.ndarray, m: int) -> np.ndarray:
    """A maximal independent set of the graph on m vertices whose edges are
    the stored entries (rows, cols), listed in both directions, as a mask.

    Each round takes every undecided vertex whose (degree, index) key is
    below the keys of all its undecided neighbours, then decides those
    neighbours out. The least undecided key is taken every round, so the
    rounds end, and every vertex left out has a neighbour in the set.
    """
    deg = np.bincount(rows, minlength=m)
    key = np.empty(m, dtype=np.int64)
    key[np.lexsort((np.arange(m), deg))] = np.arange(m)
    chosen = np.zeros(m, dtype=bool)
    undecided = np.ones(m, dtype=bool)
    while True:
        live = undecided[rows] & undecided[cols]
        rows, cols = rows[live], cols[live]
        pick = undecided.copy()
        pick[rows[key[cols] < key[rows]]] = False
        chosen |= pick
        undecided &= ~pick
        undecided[cols[pick[rows]]] = False
        if not undecided.any():
            return chosen


def _eliminated(entries: tuple, diag: np.ndarray) -> list | None:
    """S = Diag(diag) - A', A' given by its entries off the diagonal, after
    eliminating independent sets of their pattern, as the lower triangle's
    column blocks (_lower_blocks); None once a pivot of an eliminated row is
    not positive (a NaN pivot is not).

    For an independent set I of the pattern S_II is diagonal, so S is
    positive definite exactly when every pivot S_ii, i in I, is positive and
    the Schur complement S_RR - S_RI diag(1 / S_II) S_IR over the other rows
    R is (Haynsworth's inertia additivity). Eliminating row k adds
    -S_ik S_kj / S_kk to S_ij for every pair of k's neighbours i, j
    (_eliminate_set). While rows are left, each set (_independent_set) is
    eliminated if that saves more than it costs (_ELIMINATE_COST); a pattern
    without entries is eliminated whole, and decided by its pivots alone.
    """
    m = len(diag)
    rows, cols, vals = entries
    vals = -vals
    while m:
        if m**3 < _ELIMINATE_COST * len(rows):
            break  # no set of k <= m rows pays: k m^2 <= m^3
        chosen = _independent_set(rows, cols, m)
        deg = np.bincount(rows, minlength=m)
        picked = deg[chosen]
        if len(picked) * m * m < _ELIMINATE_COST * (len(rows) + int(picked @ picked)):
            break
        if not np.all(diag[chosen] > 0.0):
            return None
        rows, cols, vals, diag = _eliminate_set(rows, cols, vals, diag, chosen, deg)
        m = len(diag)
    # S is symmetric, so the entries above its diagonal, grouped by row, are
    # those below it grouped by column: the blocks read only those, and the
    # rest are freed before the blocks are allocated
    above = rows < cols
    rows, cols, vals = rows[above], cols[above], vals[above]
    return _lower_blocks(rows, cols, vals, diag)


def _eliminate_set(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, diag: np.ndarray, chosen: np.ndarray,
                   deg: np.ndarray) -> tuple:
    """The entries (rows, cols, vals) and diagonal diag of S after
    eliminating the independent set chosen (a mask) of S's rows, which have
    degrees deg in the pattern, with the rows left renumbered in order; the
    entries come grouped by row, and leave it with unique (row, col) keys in
    row-major order."""
    m = len(diag)
    # the entries of the eliminated rows, grouped by row (CSR order), and
    # every ordered pair (a, b) of entries in one row
    out = chosen[rows]
    k, nb, sv = rows[out], cols[out], vals[out]
    count = deg[k]
    a = np.repeat(np.arange(len(k)), count)
    b = np.arange(len(a)) - np.repeat(np.cumsum(count) - count, count) + np.searchsorted(k, k)[a]
    i, j, fill = nb[a], nb[b], -(sv[a] * sv[b]) / diag[k[a]]
    # each array of one entry per pair is dropped once used: above about
    # n = 3000 the last round's pairs set the certificate's peak
    del a, b
    on = i == j
    diag = diag + np.bincount(i[on], weights=fill[on], minlength=m)
    # renumber the rows left, and sum their entries with the fill
    keep = ~chosen
    new = np.cumsum(keep) - 1
    diag = diag[keep]
    m = len(diag)
    stay = ~out & keep[cols]
    keys = np.concatenate([new[rows[stay]] * m + new[cols[stay]], new[i[~on]] * m + new[j[~on]]])
    del i, j
    keys, where = np.unique(keys, return_inverse=True)
    vals = np.bincount(where, weights=np.concatenate([vals[stay], fill[~on]]))
    return *np.divmod(keys, m), vals, diag


def _lower_blocks(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, diag: np.ndarray) -> list:
    """The lower triangle of the symmetric r x r matrix with diagonal diag
    and entries (rows, cols, vals) above it, grouped by row in ascending
    order, as column blocks: block c holds rows lo..r of columns lo..hi,
    8 (r - lo)(hi - lo) bytes. The edges are 0, b, 2b, ..., r for blocks of
    b = _CHOLESKY_BLOCK columns but the last, which takes the rest, up to
    2b: one block up to 2b rows, none for r = 0, about r(r + b)/2 floats in
    all. Entry (i, j) is written at (j, i): the entries of rows lo..hi fill
    block c, and no block holds any of the upper triangle.
    """
    r, step = len(diag), _CHOLESKY_BLOCK
    edges = [*range(0, max(r - step, 1), step), r] if r else []
    starts = np.searchsorted(rows, edges)
    blocks = []
    for lo, hi, start, stop in zip(edges, edges[1:], starts, starts[1:]):
        block = np.zeros((r - lo, hi - lo))
        block[cols[start:stop] - lo, rows[start:stop] - lo] = vals[start:stop]
        block.flat[: (hi - lo) ** 2 : hi - lo + 1] = diag[lo:hi]
        blocks.append(block)
    return blocks


def _shift_certificate(entries: tuple, y: np.ndarray, delta: float) -> bool:
    """Is S = Diag(y) - A' + delta I positive definite, A' given by its
    entries? One dense block Cholesky (_positive_definite) of the Schur
    complement left after eliminating independent sets of S's pattern
    (_eliminated), which refuses at once on a pivot that is not positive;
    the remainder's column blocks belong to this call, so the factorization
    consumes them.
    """
    blocks = _eliminated(entries, y + delta)
    return blocks is not None and _positive_definite(blocks)


def _positive_definite(blocks: list) -> bool:
    """Is the symmetric matrix whose lower triangle blocks holds, in the
    column blocks of _lower_blocks, positive definite? It reads only the
    lower triangle of each block's leading square. It empties blocks: each
    block is dropped once factored, before its Schur complement overwrites
    the blocks after it.

    A right-looking block Cholesky (Golub and Van Loan, Matrix Computations,
    4.2): with L the Cholesky factor of the leading square S11 of the first
    block, S is positive definite exactly when S11 is and so is the Schur
    complement S22 - X^T X, X = L^-1 S21^T from the rows below the square,
    which overwrites the blocks after it; they repeat this. Beside the
    blocks it holds X and one column block of X^T X, each at most
    _CHOLESKY_BLOCK x r, and the square's factor and its inverse; one block
    is one numpy Cholesky. numpy's (LAPACK's) Cholesky of a square fails on
    its first pivot that is not positive, but a NaN pivot passes that test,
    so every diagonal entry of each square's factor must also be positive.
    """
    while blocks:
        block = blocks.pop(0)
        w = block.shape[1]
        try:
            chol = np.linalg.cholesky(block[:w])
        except np.linalg.LinAlgError:
            return False
        if not (chol.diagonal() > 0.0).all():
            return False
        if blocks:
            x = np.linalg.inv(chol) @ block[w:].T
            del block  # factored: only X is needed now
            at = 0
            for later in blocks:
                width = later.shape[1]
                later -= x[:, at:].T @ x[:, at : at + width]
                at += width
    return True


def _certified_shift(entries: tuple, y: np.ndarray, delta: float) -> float:
    """The least shift _shift_certificate accepts, to within _SHIFT_RTOL.

    It tries delta, 2 delta, 4 delta, ... up to the Gershgorin shift
    max_i (sum_j |A'_ij| - y_i), with which Diag(y) - A' is diagonally
    dominant, so positive semidefinite without a factorization; a shift at or
    above it becomes it, unfactored. After a refusal it bisects between the
    last refused shift and the first accepted one until they lie within
    _SHIFT_RTOL of the accepted one. A first shift accepted is returned as it
    is. Above _FACTOR_MAX_N rows it is the Gershgorin shift. No finite shift
    certifies a y or radius (_radii) that is not finite: that gives inf.
    """
    radius = _radii(entries, len(y))
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(radius))):
        return math.inf
    cap = float(np.max(radius - y, initial=0.0))
    if len(y) > _FACTOR_MAX_N:
        return cap
    refused = None
    while delta < cap and not _shift_certificate(entries, y, delta):
        refused, delta = delta, 2.0 * delta
    delta = min(delta, cap)
    while refused is not None and delta - refused > _SHIFT_RTOL * delta:
        mid = 0.5 * (refused + delta)
        if _shift_certificate(entries, y, mid):
            delta = mid
        else:
            refused = mid
    return delta


def _first_shift(objective: float, n: int) -> float:
    """The shift delta with n delta / 4 = 0.99 * _GAP_TOL * objective, for
    objective > 0; the 1% keeps roundoff in the bound from pushing its gap
    past _GAP_TOL."""
    return 3.96 * _GAP_TOL * objective / n


def _upper_bound(w_tot: float, lam_sum: float, y: np.ndarray, shift: float) -> float:
    """W/2 + sum(lam) + (sum(y) + n shift) / 4, the dual bound of the module
    docstring for y_i = <(A' V)_i, v_i> and a shift that certifies
    Diag(y) - A', or W if that is smaller (by n eps W, its sums' roundoff,
    which in none mode rounds the Gershgorin bound, at least W, an ulp below)
    or the bound is not finite: no edge term of the objective exceeds its weight."""
    bound = 0.5 * w_tot + lam_sum + 0.25 * (float(np.sum(y)) + len(y) * shift)
    return bound if math.isfinite(bound) and bound < w_tot * (1.0 - len(y) * np.finfo(float).eps) else w_tot
