from __future__ import annotations

import math

import numpy as np
import pytest

from cutflip.numerics import (
    alpha_gw,
    arcsin_coeff,
    arcsin_coeffs,
    arcsin_form,
    arcsin_partial,
    check_arcsin_form_bound,
    check_arcsin_taylor,
    entrywise_arcsin_min_eig,
    entrywise_power_psd,
    estimate_local_gain,
    gaussian_band_bounds,
    random_bounded_correlation,
    rho_star,
    run_verification,
    sheppard,
    sheppard_mc,
)


class TestWorstCaseConstants:
    def test_values_match_known_approximations(self):
        assert abs(alpha_gw() - 0.878567) < 1e-6
        assert abs(rho_star() - 0.689) < 1e-3

    def test_defining_identity(self):
        r = rho_star()
        assert abs((1 + (2 / math.pi) * math.asin(r)) / (1 + r) - alpha_gw()) < 1e-12

    def test_rho_star_is_the_minimizer(self):
        f = lambda r: (1 + (2 / math.pi) * math.asin(r)) / (1 + r)
        r = rho_star()
        assert f(r) < f(r - 0.01) and f(r) < f(r + 0.01)


class TestArcsinCoefficients:
    def test_first_values(self):
        assert arcsin_coeff(0) == 1.0
        assert abs(arcsin_coeff(1) - 1.0 / 6.0) < 1e-15

    def test_recurrence_matches_closed_form(self):
        for k in (2, 5, 10, 30, 60):
            closed = math.factorial(2 * k) / (4**k * math.factorial(k) ** 2 * (2 * k + 1))
            assert abs(arcsin_coeff(k) - closed) / closed < 1e-12

    def test_k30_asymptotic_window(self):
        ref = 1.0 / (2.0 * math.sqrt(math.pi)) * 30**-1.5
        assert 0.2 * ref <= arcsin_coeff(30) <= 5.0 * ref

    def test_all_positive(self):
        assert np.all(arcsin_coeffs(2000) > 0)

    def test_taylor_series_type(self):
        # c_0..c_tau as one array, and tau < 0 is rejected
        cs = arcsin_coeffs(64)
        assert isinstance(cs, np.ndarray) and len(cs) == 65
        with pytest.raises(ValueError):
            arcsin_coeffs(-1)


class TestArcsinPartial:
    def test_zero(self):
        assert arcsin_partial(0.0, 50) == 0.0

    def test_x_one_approaches_half_pi_from_below(self):
        prev = 0.0
        for tau in (10, 100, 1000, 4000):
            val = arcsin_partial(1.0, tau)
            assert prev < val < math.pi / 2
            prev = val

    def test_half_matches_arcsin_to_1e12(self):
        assert abs(arcsin_partial(0.5, 100) - math.asin(0.5)) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            arcsin_partial(1.5, 10)

    def test_lower_bound_on_grid(self):
        # positive coefficients: partial sums approach arcsin from below.
        # 5e-16 absorbs float rounding; the true gap for small x is far
        # below double resolution.
        for tau in (16, 64, 256):
            c = arcsin_coeffs(tau)
            for x in np.arange(0.01, 1.0001, 0.01):
                assert arcsin_partial(float(x), tau, c) <= math.asin(x) + 5e-16

    def test_negative_half_within_truncation_bound(self):
        # at x = -0.5 the partial may exceed arcsin, but only by the
        # truncation scale tau^-1/2 4^-tau (or float noise once that
        # underflows)
        for tau in (16, 64):
            gap = arcsin_partial(-0.5, tau) - math.asin(-0.5)
            bound = max(1.0 * tau**-0.5 * 4.0**-tau, 5e-15)
            assert gap <= bound


class TestTaylorCheck:
    def test_default_run_passes(self):
        res = check_arcsin_taylor()
        assert res.passed
        assert not res.details["lower_bound_violations"]

    def test_tail_ratio_stable(self):
        res = check_arcsin_taylor(tail_taus=(100, 400, 1600))
        for r in res.details["tail_ratios"]:
            assert 0.5 <= r <= 2.0

    def test_fitted_constant_recorded_small_tau(self):
        res = check_arcsin_taylor(taus=(16,))
        k = res.details["half_range_fitted_k"]["16"]
        assert k is not None and 0.0 < k < 1.0


class TestSheppard:
    def test_endpoints(self):
        assert sheppard(1.0) == 0.5
        assert sheppard(0.0) == 0.25
        assert sheppard(-1.0) == 0.0

    def test_half_is_exactly_one_third(self):
        assert sheppard(0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sheppard(1.5)

    def test_mc_matches_closed_form(self):
        assert abs(sheppard_mc(0.5, 100_000, seed=1) - 1.0 / 3.0) < 0.005
        assert abs(sheppard_mc(0.0, 100_000, seed=2) - 0.25) < 0.005

    def test_mc_deterministic(self):
        assert sheppard_mc(0.3, 10_000, seed=5) == sheppard_mc(0.3, 10_000, seed=5)

    def test_mc_sample_floor(self):
        with pytest.raises(ValueError):
            sheppard_mc(0.0, 10, seed=0)

    def test_mc_three_sigma_grid(self):
        for idx, sigma in enumerate(np.arange(-0.9, 0.91, 0.3)):
            p = sheppard(float(sigma))
            est = sheppard_mc(float(sigma), 40_000, seed=100 + idx)
            assert abs(est - p) <= 3.0 * math.sqrt(p * (1 - p) / 40_000)


class TestPsdClosure:
    def test_identity(self):
        assert entrywise_power_psd(np.eye(5), 7) == pytest.approx(1.0)

    def test_all_ones_rank_one(self):
        a = np.ones((4, 4))
        assert abs(entrywise_power_psd(a, 3)) < 1e-10

    def test_random_grams_stay_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            d = int(rng.integers(2, 41))
            rows = rng.standard_normal((d, d))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            gram = rows @ rows.T
            np.fill_diagonal(gram, 1.0)
            for t in (3, 5, 9):
                assert entrywise_power_psd(gram, t) >= -1e-8
            assert entrywise_arcsin_min_eig(gram) >= -1e-8

    def test_rejects_non_psd(self):
        bad = np.array([[1.0, 0.99], [0.99, 1.0]])
        bad[0, 1] = bad[1, 0] = -1.5
        with pytest.raises(ValueError):
            entrywise_power_psd(bad, 3)


class TestArcsinForm:
    def test_identity_diagonal_only(self):
        d = 6
        val = arcsin_form(np.eye(d), np.ones(d))
        assert val == pytest.approx(math.pi / 2 * d, rel=1e-12)

    def test_all_ones(self):
        d = 5
        val = arcsin_form(np.ones((d, d)), np.ones(d))
        assert val == pytest.approx(math.pi / 2 * d * d, rel=1e-12)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            arcsin_form(np.eye(3), np.array([1.0, -0.1, 1.0]))

    def test_matches_loop_evaluation(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            d = int(rng.integers(2, 9))
            a = random_bounded_correlation(d, rng)
            w = rng.random(d)
            loop = sum(
                w[i] * w[j] * math.asin(min(1.0, max(-1.0, a[i, j])))
                for i in range(d)
                for j in range(d)
            )
            assert arcsin_form(a, w) == pytest.approx(loop, rel=1e-10)

    def test_nonnegative_on_psd_correlations(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            d = int(rng.integers(2, 12))
            rows = rng.standard_normal((d, d + 1))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            gram = rows @ rows.T
            np.fill_diagonal(gram, 1.0)
            assert arcsin_form(gram, rng.random(d)) >= -1e-9


class TestArcsinFormBound:
    def test_positive_and_recorded(self):
        res = check_arcsin_form_bound(trials=25, d_list=(4, 16), seed=0)
        assert res.passed
        for v in res.details["min_normalized_value"].values():
            assert v > 0

    def test_single_spike_weight(self):
        # w = e_1 and identity correlation: form = pi/2 exactly
        d = 9
        w = np.zeros(d)
        w[0] = 1.0
        assert arcsin_form(np.eye(d), w) == pytest.approx(math.pi / 2, rel=1e-12)

    def test_deterministic(self):
        a = check_arcsin_form_bound(trials=10, d_list=(4,), seed=7)
        b = check_arcsin_form_bound(trials=10, d_list=(4,), seed=7)
        assert a.details == b.details


class TestLocalGain:
    def test_coincident_neighbors_all_or_nothing(self):
        # all projections coincide per sample, so each delta is 0 or the full
        # incident weight and the mean is total * Pr[all violated]
        d = 6
        w = np.linspace(0.5, 2.0, d)
        est = estimate_local_gain(d, np.ones((d, d)), rho=0.689, weights=w, trials=4000, seed=1)
        total = float(w.sum())
        assert 0.0 <= est.mean <= total
        hits = est.mean * est.samples / total
        assert abs(hits - round(hits)) < 1e-6
        est2 = estimate_local_gain(d, np.ones((d, d)), rho=0.689, weights=w, trials=4000, seed=1)
        assert est.mean == est2.mean

    def test_doubling_weights_doubles_estimate(self):
        d = 8
        w = np.ones(d)
        a = estimate_local_gain(d, np.eye(d), 0.689, w, trials=3000, seed=3)
        b = estimate_local_gain(d, np.eye(d), 0.689, 2 * w, trials=3000, seed=3)
        assert b.mean == pytest.approx(2 * a.mean, rel=1e-12)

    def test_identity_gram_floor_small(self):
        d = 16
        est = estimate_local_gain(d, np.eye(d), 0.689, np.ones(d), constant=2.0, trials=20_000, seed=2)
        floor = 0.1 * est.total_weight / (d * math.sqrt(math.log(d)))
        assert est.mean >= floor

    def test_membership_rate_in_band_bounds(self):
        d = 16
        est = estimate_local_gain(d, np.eye(d), 0.689, np.ones(d), trials=50_000, seed=4)
        lower, upper = gaussian_band_bounds(est.epsilon)
        assert lower - 3 * est.membership_se <= est.membership_rate <= upper + 3 * est.membership_se

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            estimate_local_gain(1, np.eye(1), 0.5, np.ones(1), trials=10, seed=0)
        with pytest.raises(ValueError):
            estimate_local_gain(4, np.eye(4), 1.5, np.ones(4), trials=10, seed=0)
        bad = np.full((4, 4), -0.9)
        np.fill_diagonal(bad, 1.0)
        with pytest.raises(ValueError):
            estimate_local_gain(4, bad, 0.5, np.ones(4), trials=10, seed=0)


def test_full_verification_suite_quick():
    checks = run_verification(seed=0, samples=20_000, psd_matrices=40, form_trials=10)
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
