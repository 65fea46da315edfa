"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines immediately. The whole suite takes a few minutes; the heavy criteria
(desk-scale oracle ratios, degree sweep on n=200) dominate.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from cutflip.harness import main
from cutflip.instance import gen_random_regular
from cutflip.localsearch import analyze_candidates, apply_flips, best_of, default_epsilon, run_once
from cutflip.numerics import (
    arcsin_coeff,
    arcsin_coeffs,
    arcsin_partial,
    entrywise_arcsin_min_eig,
    entrywise_power_psd,
    estimate_local_gain,
    gaussian_band_bounds,
    sheppard,
    sheppard_mc,
)
from cutflip.oracle import brute_force_opt
from cutflip.rounding import hyperplane_round, sample_gaussian
from cutflip.sdp import (
    SdpConfig,
    SdpEmbedding,
    enumerate_triples,
    max_triangle_violation,
    solve_sdp,
)

from conftest import TRIANGLE_TEXT


def _report(num: int, desc: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num} {tag}: {desc}{suffix}", flush=True)
    assert passed, f"criterion {num} failed: {desc} {suffix}"


def _mixed_instances(count: int, rng: np.random.Generator):
    """Random regular instances spanning n in [6, 100], d in [2, 10]."""
    sizes = np.linspace(6, 100, count).astype(int)
    for k, n in enumerate(sizes):
        d = int(rng.integers(2, min(11, n)))
        if (n * d) % 2:
            n += 1
        bias = float(rng.choice([0.3, 0.7, 1.0]))
        law = "unit" if rng.random() < 0.5 else ("uniform", 0.2, 2.0)
        yield gen_random_regular(int(n), d, bias, law, seed=int(rng.integers(1 << 30)))


def test_c1_flip_safety_exact():
    rng = np.random.default_rng(101)
    cheap = SdpConfig(max_outer=2, max_inner=60)
    pairs = 0
    monotone_ok = True
    bound_ok = True
    for inst in _mixed_instances(50, rng):
        emb, _ = solve_sdp(inst, cheap)
        eps = default_epsilon(inst.max_degree)
        for t in range(20):
            g = sample_gaussian(emb.rank, seed=7000 + pairs)
            x = hyperplane_round(emb, g)
            ana = analyze_candidates(inst, emb, g, x, eps)
            x2, gain = apply_flips(inst, x, ana)
            bound = 0.0
            for i in ana.candidates.tolist():
                if ana.flip[i]:
                    nbrs, _, ws = inst.neighbors(i)
                    w_b = float(ws[ana.part[inst.indptr[i]:inst.indptr[i + 1]] == 1].sum())
                    bound += 2.0 * w_b - ana.incident_weight[i]
            monotone_ok &= gain >= 0.0
            bound_ok &= gain >= bound - 1e-9
            pairs += 1
    _report(
        1,
        "flip safety: flipped >= rounded and gain >= edgewise bound (<=1e-9 slack)",
        pairs >= 1000 and monotone_ok and bound_ok,
        f"{pairs} (instance, seed) pairs",
    )


def test_c2_oracle_ratio_desk_scale():
    rng = np.random.default_rng(202)
    n_inst = 200
    hits_878 = 0
    hits_95 = 0
    for k in range(n_inst):
        n = int(rng.integers(6, 15))
        d = int(rng.integers(2, min(6, n)))
        if (n * d) % 2:
            d = 2
        bias = float(rng.choice([0.5, 0.8, 1.0]))
        law = "unit" if rng.random() < 0.5 else ("uniform", 0.3, 2.0)
        inst = gen_random_regular(n, d, bias, law, seed=int(rng.integers(1 << 30)))
        emb, _ = solve_sdp(inst, SdpConfig(seed=k))
        _, best, _ = best_of(inst, emb, trials=50, base_seed=9000 + 64 * k)
        ratio = best / brute_force_opt(inst).opt
        hits_878 += ratio >= 0.878
        hits_95 += ratio >= 0.95
    _report(
        2,
        "best-of-50 / OPT >= 0.878 in >=99% and >= 0.95 in >=95% of 200 instances",
        hits_878 >= math.ceil(0.99 * n_inst) and hits_95 >= math.ceil(0.95 * n_inst),
        f"ratio>=0.878: {hits_878}/200, ratio>=0.95: {hits_95}/200",
    )


def test_c3_flip_gain_positivity():
    details = []
    ok = True
    for d in (4, 8):
        inst = gen_random_regular(200, d, 1.0, "unit", seed=500 + d)
        emb, rep = solve_sdp(inst)
        eps = default_epsilon(inst.max_degree)
        gains = np.array(
            [run_once(inst, (emb, rep), seed=s, eps=eps).gain for s in range(200)]
        )
        t_stat = gains.mean() / (gains.std(ddof=1) / math.sqrt(len(gains)))
        ok &= gains.mean() > 0.0 and t_stat >= 3.0
        details.append(f"d={d}: mean={gains.mean():.3f}, t={t_stat:.1f}")
    _report(3, "mean(flipped - rounded) > 0 with t >= 3 on d in {4, 8}, n=200, 200 seeds",
            ok, "; ".join(details))


def test_c4_sdp_anchors():
    from cutflip.instance import Max2LinInstance, parse_instance

    edge = parse_instance("2 1\n0 1 -1 1.0")
    _, rep_edge = solve_sdp(edge)
    tri = parse_instance(TRIANGLE_TEXT)
    _, rep_all = solve_sdp(tri, SdpConfig(triangle_mode="all"))
    _, rep_none = solve_sdp(tri, SdpConfig(triangle_mode="none"))

    rng = np.random.default_rng(404)
    inst = gen_random_regular(12, 4, 0.8, ("uniform", 0.5, 2.0), seed=6)
    triples = enumerate_triples(inst, "all")
    integral_ok = all(
        max_triangle_violation(SdpEmbedding(rng.choice([-1.0, 1.0], size=12)[:, None]), triples)
        == 0.0
        for _ in range(100)
    )
    ok = (
        abs(rep_edge.objective - 1.0) <= 1e-6
        and abs(rep_all.objective - 2.0) <= 1e-4
        and rep_all.max_violation <= 1e-6
        and abs(rep_none.objective - 2.25) <= 1e-4
        and integral_ok
    )
    _report(
        4,
        "SDP anchors: edge 1+-1e-6, K3 all 2+-1e-4, K3 none 2.25+-1e-4, integral points feasible",
        ok,
        f"edge={rep_edge.objective:.8f}, all={rep_all.objective:.6f}, none={rep_none.objective:.6f}",
    )


def test_c5_sheppard():
    grid = [-0.9, -0.5, 0.0, 1.0 / 3.0, 0.5, 0.689, 0.9]
    worst = 0.0
    for idx, sigma in enumerate(grid):
        err = abs(sheppard_mc(sigma, 100_000, seed=50 + idx) - sheppard(sigma))
        worst = max(worst, err)
    exact_third = sheppard(0.5) == 1.0 / 3.0
    _report(
        5,
        "|sheppard_mc(1e5) - closed form| <= 0.005 on the sigma grid; sheppard(0.5) == 1/3",
        worst <= 0.005 and exact_third,
        f"worst |err|={worst:.4f}",
    )


def test_c6_arcsin_taylor_suite():
    # item (1): partial sums below arcsin on the grid (5e-16 float slack:
    # the true gap underflows double precision for small x)
    violations = 0
    for tau in (16, 64, 256):
        coeffs = arcsin_coeffs(tau)
        for x in np.arange(0.01, 1.0 + 1e-9, 0.01):
            if arcsin_partial(float(x), tau, coeffs) > math.asin(float(x)) + 5e-16:
                violations += 1
    # item (3): (pi/2 - partial coefficient sum) * sqrt(tau) stable x2
    norm_gap = {
        tau: (math.pi / 2 - math.fsum(arcsin_coeffs(tau).tolist())) * math.sqrt(tau)
        for tau in (100, 400, 1600)
    }
    gaps = [norm_gap[100], norm_gap[400], norm_gap[1600]]
    ratios_ok = all(0.5 <= b / a <= 2.0 for a, b in zip(gaps, gaps[1:]))
    # c_30 within [0.2, 5] of the k^{-3/2} law with constant 1/(2 sqrt(pi))
    ref = 30**-1.5 / (2 * math.sqrt(math.pi))
    c30_ok = 0.2 * ref <= arcsin_coeff(30) <= 5.0 * ref
    _report(
        6,
        "arcsin expansion: lower bound zero violations, x=1 tail ~ tau^-1/2, c_30 window",
        violations == 0 and ratios_ok and c30_ok,
        f"violations={violations}, normalized gaps={[f'{g:.4f}' for g in gaps]}",
    )


def test_c7_psd_closure():
    rng = np.random.default_rng(707)
    worst = math.inf
    for _ in range(200):
        d = int(rng.integers(2, 41))
        rows = rng.standard_normal((d, d + 1))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        gram = rows @ rows.T
        np.fill_diagonal(gram, 1.0)
        for t in (3, 5, 9):
            worst = min(worst, entrywise_power_psd(gram, t))
        worst = min(worst, entrywise_arcsin_min_eig(gram))
    _report(7, "entrywise odd powers and arcsin of 200 random Gram matrices stay PSD",
            worst >= -1e-8, f"min eigenvalue={worst:.2e}")


def test_c8_local_gain_monte_carlo():
    ok = True
    details = []
    for d in (4, 16, 64):
        est = estimate_local_gain(
            d, np.eye(d), rho=0.689, weights=np.ones(d), constant=2.0,
            trials=100_000, seed=80 + d,
        )
        floor = 0.1 * est.total_weight / (d * math.sqrt(math.log(d)))
        lower, upper = gaussian_band_bounds(est.epsilon)
        rate_ok = (
            lower - 3 * est.membership_se
            <= est.membership_rate
            <= upper + 3 * est.membership_se
        )
        ok &= est.mean >= floor and rate_ok
        details.append(f"d={d}: mean={est.mean:.4f} floor={floor:.4f}")
    _report(8, "conditional local gain >= 0.1 W/(d sqrt(ln d)) and band rate in two-sided bound",
            ok, "; ".join(details))


def test_c9_cli_determinism(tmp_path):
    inst_path = tmp_path / "tri.txt"
    inst_path.write_text(TRIANGLE_TEXT + "\n", encoding="utf-8")
    solve_outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"solve_{tag}.json"
        assert main(["solve", str(inst_path), "--trials", "20", "--seed", "5",
                     "--triangle-mode", "all", "--json", str(out)]) == 0
        solve_outs.append(out.read_bytes())

    exp_outs = []
    for tag, workers in (("c", 1), ("d", 3), ("e", 1)):
        spec = {
            "instances": {"generator": {"n": [16], "d": [3], "count": 3,
                                         "sign_bias": 1.0, "weight_law": "unit"}},
            "trials": 5,
            "seed": 13,
            "sdp": {"max_outer": 3, "max_inner": 60},
            "csv": str(tmp_path / f"exp_{tag}.csv"),
        }
        spec_path = tmp_path / f"spec_{tag}.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["experiment", str(spec_path), "--workers", str(workers)]) == 0
        exp_outs.append((tmp_path / f"exp_{tag}.csv").read_bytes())

    # byte-identical up to (and including) the fixed versioned header line
    ok = solve_outs[0] == solve_outs[1] and exp_outs[0] == exp_outs[1] == exp_outs[2]
    _report(9, "solve JSON and experiment CSV byte-identical across reruns and worker counts", ok)
