#!/usr/bin/env python3
"""Walk the whole pipeline on one small instance, step by step.

A Max-2LIN instance asks for +-1 labels x_i with x_i * x_j == b_ij on each
edge; the objective is the total weight of satisfied constraints (Max-Cut is
the all-b=-1 case). The pipeline: (1) solve the unit-vector relaxation with
signed triangle inequalities, (2) round by a random hyperplane, (3) flip the
"cheap" vertices whose projections landed near the hyperplane, whenever their
violated weight dominates.
"""

import numpy as np

from cutflip import (
    SdpConfig,
    analyze_candidates,
    apply_flips,
    best_of,
    brute_force_opt,
    default_epsilon,
    evaluate,
    gen_random_regular,
    hyperplane_round,
    sample_gaussian,
    sdp_objective,
    solve_sdp,
)

# A random 4-regular Max-Cut instance on 18 vertices: small enough that the
# brute-force oracle gives us the exact optimum to compare against.
inst = gen_random_regular(n=18, d=4, sign_bias=1.0, weight_law="unit", seed=12)
opt = brute_force_opt(inst).opt
print(f"instance: n={inst.n}, m={inst.m}, d={inst.max_degree}, total weight={inst.total_weight}")
print(f"exact optimum (oracle): {opt}")

# Step 1: the relaxation. Unit vectors replace labels; each edge contributes
# w * (1 + b <v_i, v_j>)/2, and signed triangle inequalities tighten the set.
emb, rep = solve_sdp(inst, SdpConfig(seed=0))
print(f"\nSDP value: {rep.objective:.4f} (converged={rep.converged}, "
      f"max triangle violation={rep.max_violation:.1e})")
print(f"certified SDP upper bound: {rep.upper_bound:.4f}")
print(f"bound / OPT = {rep.upper_bound / opt:.4f}  (the relaxation sits above the optimum)")

# Step 2: one hyperplane rounding.
g = sample_gaussian(emb.rank, seed=7)
x = hyperplane_round(emb, g)
rounded = evaluate(inst, x)
print(f"\nrounded value (seed 7): {rounded}  ratio vs OPT: {rounded / opt:.4f}")

# Step 3: the local-flip step. Vertices projecting into (-eps, eps) are
# candidates; each partitions its neighbors into band / violated / satisfied,
# and flips when violated weight strictly dominates the rest.
eps = default_epsilon(inst.max_degree)
analysis = analyze_candidates(inst, emb, g, x, eps)
print(f"eps = {eps:.4f}; candidate band holds {len(analysis.candidates)} vertices, "
      f"{len(analysis.flipped)} of them flip")
x2, gain = apply_flips(inst, x, analysis)
print(f"post-flip value: {evaluate(inst, x2)}  (gain {gain}; never negative)")

# Amplify over seeds: the guarantee is in expectation, best-of recovers more.
best_x, best_val, reports = best_of(inst, emb, range(100, 140))
print(f"\nbest of 40 seeds: {best_val}  ratio vs OPT: {best_val / opt:.4f}")
mean_gain = float(np.mean([r.gain for r in reports]))
print(f"mean flip gain across seeds: {mean_gain:.4f}")
