"""Analytic toolkit backing the algorithm's guarantee, with checkable claims.

Covers: the arcsin Taylor expansion (positive coefficients, truncation error,
tail at x = 1), the bivariate Gaussian orthant probability in closed form and
by Monte-Carlo, positive-semidefiniteness of entrywise odd powers of PSD
matrices, the weighted arcsin quadratic form lower bound, and a Monte-Carlo
estimate of the expected local gain of a near-worst-correlation star. All
operations are pure; Monte-Carlo routines are deterministic in their seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "CheckResult",
    "LocalGainEstimate",
    "alpha_gw",
    "arcsin_coeff",
    "arcsin_coeffs",
    "arcsin_form",
    "arcsin_partial",
    "check_arcsin_form_bound",
    "check_arcsin_taylor",
    "default_epsilon",
    "entrywise_arcsin_min_eig",
    "entrywise_power_psd",
    "estimate_local_gain",
    "gaussian_band_bounds",
    "random_bounded_correlation",
    "rho_star",
    "run_verification",
    "sheppard",
    "sheppard_mc",
    "validate_correlation",
]


# ---------------------------------------------------------------------------
# Worst-case rounding constants


@lru_cache(maxsize=1)
def _gw_root() -> float:
    """Stationarity of theta / (1 - cos theta): the root of
    f(t) = (1 - cos t) - t sin t on (1.6, 3.1), bisected down to two adjacent
    doubles; of those, the one with the smaller |f|."""

    def f(t: float) -> float:
        return (1.0 - math.cos(t)) - t * math.sin(t)

    lo, hi = 1.6, 3.1  # f(lo) < 0 < f(hi)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo if -f(lo) < f(hi) else hi


def alpha_gw() -> float:
    """Worst-case hyperplane-rounding ratio, min over angles of (2/pi) t / (1 - cos t)."""
    t = _gw_root()
    return (2.0 / math.pi) * t / (1.0 - math.cos(t))


def rho_star() -> float:
    """Correlation achieving the worst rounding ratio: argmin (1 + (2/pi) asin r)/(1 + r)."""
    return -math.cos(_gw_root())


def default_epsilon(d: int, constant: float = 2.0) -> float:
    """Candidate band half-width 1/(C * d' * sqrt(ln d')) for max degree d and
    C = constant, with d' = max(d, 2) guarding ln(1) = 0. A constant or a
    width that is not finite and > 0 is refused (ValueError): a huge C makes
    the width 0, a tiny one makes it inf."""
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if not (constant > 0 and math.isfinite(constant)):  # NaN too
        raise ValueError(f"constant must be > 0 and finite, got {constant}")
    d_eff = max(d, 2)
    eps = 1.0 / (constant * d_eff * math.sqrt(math.log(d_eff)))
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"epsilon_C={constant!r} at degree {d} gives band half-width {eps!r}; "
                         "it must be finite and > 0")
    return eps


def gaussian_band_bounds(eps: float) -> tuple[float, float]:
    """Two-sided bound on Pr[|N(0,1)| < eps]: [2 phi(eps/..) form] per the core-measure fact.

    Returns (lower, upper) = (2 eps/sqrt(2 pi) * exp(-eps^2/2), 2 eps/sqrt(2 pi)).
    """
    base = 2.0 * eps / math.sqrt(2.0 * math.pi)
    return base * math.exp(-eps * eps / 2.0), base


# ---------------------------------------------------------------------------
# arcsin Taylor expansion


def arcsin_coeffs(tau: int) -> np.ndarray:
    """Coefficients c_0..c_tau of arcsin(x) = sum c_k x^(2k+1).

    c_k = (2k)! / (2^(2k) (k!)^2 (2k+1)), computed by the stable recurrence
    c_{k+1} = c_k (2k+1)^2 / ((2k+2)(2k+3)) to avoid factorial overflow.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    k = np.arange(tau, dtype=np.float64)
    ratios = (2 * k + 1) ** 2 / ((2 * k + 2) * (2 * k + 3))
    return np.concatenate(([1.0], np.cumprod(ratios)))


def arcsin_coeff(k: int) -> float:
    if k < 0:
        raise ValueError("k must be >= 0")
    return float(arcsin_coeffs(k)[-1])


def arcsin_partial(x: float, tau: int, coeffs: np.ndarray | None = None) -> float:
    """Partial sum sum_{k<=tau} c_k x^(2k+1), compensated summation.

    Powers are built multiplicatively; once they underflow to zero the
    remaining terms vanish and the loop stops early.
    """
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"|x| must be <= 1, got {x}")
    c = arcsin_coeffs(tau) if coeffs is None else coeffs
    terms = []
    p = x
    x2 = x * x
    for k in range(tau + 1):
        t = c[k] * p
        if t == 0.0 and k > 0:
            break
        terms.append(t)
        p *= x2
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# Orthant probability


def sheppard(sigma: float) -> float:
    """Pr[g1 >= 0 and g2 >= 0] for standard Gaussians with covariance sigma."""
    if not -1.0 <= sigma <= 1.0:
        raise ValueError(f"covariance must be in [-1, 1], got {sigma}")
    return 0.5 - math.acos(sigma) / (2.0 * math.pi)


def sheppard_mc(sigma: float, samples: int, seed: int = 0) -> float:
    """Monte-Carlo estimate of the same orthant probability."""
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    if not -1.0 <= sigma <= 1.0:
        raise ValueError(f"covariance must be in [-1, 1], got {sigma}")
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(samples)
    z2 = rng.standard_normal(samples)
    g2 = sigma * z1 + math.sqrt(max(0.0, 1.0 - sigma * sigma)) * z2
    return float(np.mean((z1 >= 0.0) & (g2 >= 0.0)))


# ---------------------------------------------------------------------------
# PSD closure and the weighted arcsin form


# validate_correlation accepts a smallest eigenvalue down to -_EIG_TOL;
# random_bounded_correlation's entry floor and row-rejection budget
_EIG_TOL = 1e-8
_MIN_ENTRY = -0.5
_MAX_TRIES = 10_000


def validate_correlation(a: np.ndarray) -> np.ndarray:
    """Check symmetry, unit diagonal, entries in [-1, 1], PSD up to -_EIG_TOL."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("correlation matrix must be square")
    if not np.allclose(a, a.T, atol=1e-12):
        raise ValueError("correlation matrix must be symmetric")
    if not np.allclose(np.diag(a), 1.0, atol=1e-12):
        raise ValueError("correlation matrix must have unit diagonal")
    if np.any(np.abs(a) > 1.0 + 1e-12):
        raise ValueError("correlation entries must lie in [-1, 1]")
    if float(np.linalg.eigvalsh(a)[0]) < -_EIG_TOL:
        raise ValueError("correlation matrix is not PSD within tolerance")
    return a


def entrywise_power_psd(a: np.ndarray, t: int) -> float:
    """Min eigenvalue of the entrywise t-th power of a PSD matrix; expected >= -1e-8."""
    a = validate_correlation(a)
    if t < 1:
        raise ValueError("power must be a positive integer")
    return float(np.linalg.eigvalsh(np.power(a, t))[0])


def entrywise_arcsin_min_eig(a: np.ndarray) -> float:
    """Min eigenvalue of entrywise arcsin of a PSD correlation matrix."""
    a = validate_correlation(a)
    return float(np.linalg.eigvalsh(np.arcsin(np.clip(a, -1.0, 1.0)))[0])


def arcsin_form(a: np.ndarray, w: np.ndarray) -> float:
    """The quadratic form sum_{i,j} w_i w_j arcsin(A_ij), exact double sum."""
    a = np.asarray(a, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if a.shape != (len(w), len(w)):
        raise ValueError("dimension mismatch between matrix and weights")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    if np.any(np.abs(a) > 1.0 + 1e-12):
        raise ValueError("matrix entries must lie in [-1, 1]")
    s = np.arcsin(np.clip(a, -1.0, 1.0))
    return float(w @ s @ w)


def random_bounded_correlation(d: int, rng: np.random.Generator) -> np.ndarray:
    """Gram matrix of d random unit vectors with all pairwise inner products >= _MIN_ENTRY.

    Rows violating the bound are redrawn whole, so the result is an exact Gram
    matrix (PSD by construction) rather than a clipped one.
    """
    rows = np.empty((d, d))
    k = 0
    tries = 0
    while k < d:
        tries += 1
        if tries > _MAX_TRIES:
            raise RuntimeError("row-rejection budget exceeded building bounded correlation")
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        if k and np.min(rows[:k] @ v) < _MIN_ENTRY:
            continue
        rows[k] = v
        k += 1
    g = rows @ rows.T
    np.fill_diagonal(g, 1.0)
    return np.clip(g, -1.0, 1.0)


# ---------------------------------------------------------------------------
# Check routines


@dataclass
class CheckResult:
    """One verification check: name, hard pass/fail, witnessed constants / worst case."""

    name: str
    passed: bool
    details: dict

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed), "details": self.details}


# Arithmetic slack for "partial sum never exceeds arcsin": the true gap can be
# far below double resolution (e.g. ~1e-73 at x = 0.01, tau = 16), so a raw
# float comparison may flip on rounding noise. A genuine violation at the
# tested taus would exceed 1e-11.
_ULP_SLACK = 5e-16

# Below this scale the truncation bound for |x| <= 1/2 is unobservable in
# doubles; the check degrades to "gap is at float-noise level".
_FIT_SCALE_FLOOR = 1e-13

# check_arcsin_taylor's evaluation points x = 0.01, 0.02, ..., 1.0
_X_GRID = np.round(np.arange(0.01, 1.0 + 1e-9, 0.01), 10)

# run_verification's Gram matrix count for the PSD-closure check and trials
# per degree for the arcsin-form check
_PSD_MATRICES = 200
_FORM_TRIALS = 50


def check_arcsin_taylor(
    taus: tuple[int, ...] = (16, 64, 256),
    tail_taus: tuple[int, ...] = (100, 400, 1600),
) -> CheckResult:
    """Verify the three truncation facts for the arcsin expansion.

    (1) partial sums never exceed arcsin(x) for x > 0 (positive coefficients);
    (2) for |x| <= 1/2 the truncation error is O(tau^-1/2 4^-tau), fitted
        constant recorded where the scale is observable in doubles;
    (3) the x = 1 tail (pi/2 - sum of coefficients) scales like tau^-1/2:
        the normalized gap is stable within a factor of 2 across tail_taus.
    """
    if min(taus) < 16 or min(tail_taus) < 16:
        raise ValueError("taus must be >= 16")
    if len(set(tail_taus)) < 2:
        # (3) compares normalized gaps between taus; one tau checks nothing
        raise ValueError(f"the x = 1 tail check needs at least two distinct taus, got {sorted(set(tail_taus))}")

    details: dict = {"taus": list(taus), "tail_taus": list(tail_taus)}

    violations = []
    worst_margin = -math.inf
    # max |gap| over 0 < |x| <= 1/2 per tau: asin and the partial sums are odd
    # bit for bit on the grid, so the gap at -x is minus the gap at x
    half_range = []
    for tau in taus:
        c = arcsin_coeffs(tau)
        worst = 0.0
        for x in _X_GRID:
            gap = math.asin(x) - arcsin_partial(float(x), tau, c)
            worst_margin = max(worst_margin, -gap)
            if gap < -_ULP_SLACK:
                violations.append({"tau": tau, "x": float(x), "gap": gap})
            if x <= 0.5:
                worst = max(worst, abs(gap))
        half_range.append(worst)
    details["lower_bound_violations"] = violations
    details["lower_bound_worst_overshoot"] = worst_margin

    fitted_k = {}
    noise_fail = []
    for tau, worst in zip(taus, half_range):
        scale = tau ** -0.5 * 4.0 ** -float(tau)
        if scale > _FIT_SCALE_FLOOR:
            k_fit = worst / scale
            fitted_k[tau] = k_fit
            if k_fit > 1.0:
                noise_fail.append({"tau": tau, "fitted_k": k_fit})
        else:
            fitted_k[tau] = None
            if worst > 5e-15:
                noise_fail.append({"tau": tau, "gap": worst})
    details["half_range_fitted_k"] = {str(t): v for t, v in fitted_k.items()}
    details["half_range_failures"] = noise_fail

    norm_gaps = {}
    for tau in tail_taus:
        gap = math.pi / 2.0 - math.fsum(arcsin_coeffs(tau).tolist())
        norm_gaps[tau] = gap * math.sqrt(tau)
    ts = sorted(norm_gaps)
    ratios = [norm_gaps[b] / norm_gaps[a] for a, b in zip(ts, ts[1:])]
    details["tail_normalized_gaps"] = {str(t): norm_gaps[t] for t in ts}
    details["tail_ratios"] = ratios
    tail_ok = all(0.5 <= r <= 2.0 for r in ratios) and all(v > 0 for v in norm_gaps.values())
    return CheckResult("arcsin_taylor", not violations and not noise_fail and tail_ok, details)


def check_arcsin_form_bound(trials: int, d_list: tuple[int, ...], seed: int = 0) -> CheckResult:
    """Weighted arcsin form on bounded-correlation Gram matrices stays positive.

    For random PSD correlation matrices with entries >= -1/2 and random
    nonnegative weights, records min over trials of
    arcsin_form * d * sqrt(ln d) / ||w||_1^2 and asserts it is > 0. The
    hidden constant is recorded, never asserted.
    """
    rng = np.random.default_rng(seed)
    per_d = {}
    ok = True
    for d in d_list:
        if d < 2:
            raise ValueError("d must be >= 2")
        worst = math.inf
        for _ in range(trials):
            a = random_bounded_correlation(d, rng)
            w = rng.random(d)
            l1 = float(w.sum())
            if l1 <= 0.0:
                continue
            val = arcsin_form(a, w) * d * math.sqrt(math.log(d)) / (l1 * l1)
            worst = min(worst, val)
        per_d[str(d)] = worst
        ok = ok and worst > 0.0
    return CheckResult(
        "arcsin_form_bound", ok, {"trials": trials, "min_normalized_value": per_d}
    )


# ---------------------------------------------------------------------------
# Expected local gain of a synthetic star


@dataclass
class LocalGainEstimate:
    """Monte-Carlo estimate of E[local gain | center in candidate band]."""

    mean: float
    std_error: float
    membership_rate: float
    membership_se: float
    epsilon: float
    total_weight: float
    samples: int


def _truncated_normal(rng: np.random.Generator, eps: float, size: int) -> np.ndarray:
    """size draws of N(0, 1) conditioned on (-eps, eps), by rejection: a
    uniform proposal g on (-eps, eps) is accepted with probability
    exp(-g^2/2), at least exp(-eps^2/2). The acceptance rate is the band's
    mass Pr[|N(0,1)| < eps] over 2 eps / sqrt(2 pi), and each round proposes
    as many as that rate needs for the draws still missing."""
    rate = (1.0 - math.erfc(eps / math.sqrt(2.0))) * math.sqrt(0.5 * math.pi) / eps
    drawn, missing = [], size
    while missing > 0:
        g = rng.uniform(-eps, eps, math.ceil(missing / rate))
        kept = g[rng.random(len(g)) < np.exp(-0.5 * g * g)][:missing]
        drawn.append(kept)
        missing -= len(kept)
    return np.concatenate(drawn)


def estimate_local_gain(
    d: int,
    neighbor_gram: np.ndarray,
    rho: float,
    weights: np.ndarray,
    constant: float = 2.0,
    trials: int = 100_000,
    seed: int = 0,
) -> LocalGainEstimate:
    """Empirical conditional local gain for a degree-d star at correlation rho.

    The star puts the center at e_1 and neighbor j at
    rho * e_1 + sqrt(1 - rho^2) * vhat_j with Gram(vhat) = neighbor_gram.
    The center's projection g_1 is drawn from the normal truncated to
    (-eps, eps) with eps = default_epsilon(d, constant) (_truncated_normal);
    the per-sample gain applies the exact band / violated / satisfied margin
    rule to the full neighbor projections. Also returns an independent
    Monte-Carlo estimate of the unconditioned band-membership rate.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if not -1.0 < rho < 1.0:
        raise ValueError(f"rho must be in (-1, 1), got {rho}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (d,) or np.any(w < 0.0):
        raise ValueError("weights must be d nonnegative reals")
    gram = validate_correlation(neighbor_gram)
    if gram.shape != (d, d):
        raise ValueError("neighbor Gram matrix must be d x d")

    eps = default_epsilon(d, constant)
    total = float(w.sum())

    evals, evecs = np.linalg.eigh(gram)
    factor = evecs * np.sqrt(np.clip(evals, 0.0, None))

    rng = np.random.default_rng(seed)
    z = rng.standard_normal((trials, d))
    h = z @ factor.T
    g1 = _truncated_normal(rng, eps, trials)
    x_center = np.where(g1 >= 0.0, 1.0, -1.0)

    proj = rho * g1[:, None] + math.sqrt(1.0 - rho * rho) * h
    margin = x_center[:, None] * proj
    in_band = np.abs(proj) < eps
    gain_side = ~in_band & (margin <= -eps)

    z_weight = gain_side @ w
    delta = np.maximum(0.0, 2.0 * z_weight - total)
    mean = float(delta.mean())
    se = float(delta.std(ddof=1) / math.sqrt(trials)) if trials > 1 else math.inf

    g_free = rng.standard_normal(trials)
    rate = float(np.mean(np.abs(g_free) < eps))
    rate_se = math.sqrt(max(rate * (1.0 - rate), 1e-12) / trials)

    return LocalGainEstimate(
        mean=mean,
        std_error=se,
        membership_rate=rate,
        membership_se=rate_se,
        epsilon=eps,
        total_weight=total,
        samples=trials,
    )


# ---------------------------------------------------------------------------
# End-to-end verification suite


def _check_coefficient_asymptotics() -> CheckResult:
    k = 30
    ref = 1.0 / (2.0 * math.sqrt(math.pi)) * k ** -1.5
    val = arcsin_coeff(k)
    ratio = val / ref
    closed = math.factorial(2 * k) / (4**k * math.factorial(k) ** 2 * (2 * k + 1))
    rel_err = abs(val - closed) / closed
    ok = 0.2 <= ratio <= 5.0 and rel_err <= 1e-12
    return CheckResult(
        "arcsin_coefficient_asymptotics",
        ok,
        {"k": k, "value": val, "reference": ref, "ratio": ratio, "closed_form_rel_err": rel_err},
    )


def _check_sheppard(samples: int, seed: int) -> CheckResult:
    grid = [-0.9, -0.5, 0.0, 1.0 / 3.0, 0.5, rho_star(), 0.9]
    # 0.005 is the 1e5-sample tolerance; smaller runs get their 3.5-sigma width
    tol = max(0.005, 3.5 * math.sqrt(0.25 / samples))
    worst = 0.0
    rows = []
    for idx, s in enumerate(grid):
        exact = sheppard(s)
        est = sheppard_mc(s, samples, seed=seed + idx)
        err = abs(est - exact)
        worst = max(worst, err)
        rows.append({"sigma": s, "exact": exact, "mc": est, "abs_err": err})
    exact_third = sheppard(0.5)
    ok = worst <= tol and abs(exact_third - 1.0 / 3.0) <= 1e-15
    return CheckResult(
        "sheppard_orthant",
        ok,
        {"samples": samples, "tolerance": tol, "worst_abs_err": worst, "grid": rows,
         "sheppard_half": exact_third},
    )


def _check_psd_closure(n_mats: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = math.inf
    worst_case = None
    for idx in range(n_mats):
        d = int(rng.integers(2, 41))
        rows = rng.standard_normal((d, d + 2))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        g = rows @ rows.T
        np.fill_diagonal(g, 1.0)
        for t in (3, 5, 9):
            mn = entrywise_power_psd(g, t)
            if mn < worst:
                worst, worst_case = mn, {"matrix": idx, "d": d, "power": t}
        mn = entrywise_arcsin_min_eig(g)
        if mn < worst:
            worst, worst_case = mn, {"matrix": idx, "d": d, "power": "arcsin"}
    ok = worst >= -1e-8
    return CheckResult(
        "entrywise_psd_closure", ok, {"matrices": n_mats, "min_eigenvalue": worst, "worst": worst_case}
    )


def _check_local_gain(samples: int, seed: int) -> CheckResult:
    rows = []
    ok = True
    for d in (4, 16, 64):
        est = estimate_local_gain(
            d, np.eye(d), rho=0.689, weights=np.ones(d), constant=2.0, trials=samples, seed=seed + d
        )
        floor = 0.1 * est.total_weight / (d * math.sqrt(math.log(d)))
        lower, upper = gaussian_band_bounds(est.epsilon)
        rate_ok = (
            lower - 3.0 * est.membership_se <= est.membership_rate <= upper + 3.0 * est.membership_se
        )
        gain_ok = est.mean >= floor
        ok = ok and rate_ok and gain_ok
        rows.append(
            {
                "d": d,
                "mean_gain": est.mean,
                "std_error": est.std_error,
                "floor": floor,
                "gain_ok": gain_ok,
                "membership_rate": est.membership_rate,
                "band_bounds": [lower, upper],
                "rate_ok": rate_ok,
                "witnessed_constant": est.mean * d * math.sqrt(math.log(d)) / est.total_weight,
            }
        )
    return CheckResult("expected_local_gain", ok, {"samples": samples, "per_degree": rows})


def run_verification(
    seed: int = 0,
    taus: tuple[int, ...] = (16, 64, 256),
    tail_taus: tuple[int, ...] = (100, 400, 1600),
    samples: int = 100_000,
) -> list[CheckResult]:
    """Run every analytic check; all are hard except recorded constants.

    ValueError before any check runs when seed < 0 or samples < 1000."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if samples < 1000:
        raise ValueError(f"samples must be >= 1000, got {samples}")
    return [
        check_arcsin_taylor(taus=taus, tail_taus=tail_taus),
        _check_coefficient_asymptotics(),
        _check_sheppard(samples, seed),
        _check_psd_closure(_PSD_MATRICES, seed + 1),
        check_arcsin_form_bound(_FORM_TRIALS, (4, 16, 64), seed + 2),
        _check_local_gain(samples, seed + 3),
    ]
