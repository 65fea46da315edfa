"""Max-2LIN / Max-Cut toolkit: triangle-strengthened SDP relaxation, Gaussian
hyperplane rounding, candidate-set local flips, exact brute-force oracle, and
a verification suite for the supporting analytic facts."""

from .instance import evaluate, gen_random_regular
from .localsearch import analyze_candidates, apply_flips, best_of, default_epsilon, run_once
from .numerics import alpha_gw, rho_star, run_verification, sheppard, sheppard_mc
from .oracle import brute_force_opt
from .rounding import hyperplane_round, sample_gaussian
from .sdp import SdpConfig, sdp_objective, solve_sdp

__version__ = "0.1.0"

__all__ = [
    "SdpConfig",
    "alpha_gw",
    "analyze_candidates",
    "apply_flips",
    "best_of",
    "brute_force_opt",
    "default_epsilon",
    "evaluate",
    "gen_random_regular",
    "hyperplane_round",
    "rho_star",
    "run_once",
    "run_verification",
    "sample_gaussian",
    "sdp_objective",
    "sheppard",
    "sheppard_mc",
    "solve_sdp",
]
