"""Binomial count time series from superposed stationary renewal processes.

Build a lifetime distribution with :func:`make_constant_hazard`, factor the
autocovariance generating function of the resulting count series with
:func:`factorize`, simulate with :func:`simulate_counts`, and cross-validate
the three routes (closed form, generating function, Monte Carlo) with the
``verify`` battery or the CLI.

The package namespace holds what the README quick start, the scripts and the
benchmark use; every other name is imported from its submodule.
"""

__version__ = "0.1.0"

from .arma import (
    arma_acvf,
    check_causal_invertible,
    closed_form_p2,
    factorize,
    gen_eval_arma,
    second_moment_limit,
    unit_circle_grid,
)
from .errors import FactorizationError, RenewalArmaError
from .lifetime import make_constant_hazard
from .markov import age_chain, conditional_probs_p2, joint_probs_p2
from .renewal import acvf_renewal, gen_eval_renewal
from .simulate import SimConfig, sample_acvf, simulate_counts

__all__ = [
    "__version__",
    "arma_acvf", "check_causal_invertible", "closed_form_p2", "factorize",
    "gen_eval_arma", "second_moment_limit", "unit_circle_grid",
    "FactorizationError", "RenewalArmaError",
    "make_constant_hazard",
    "age_chain", "conditional_probs_p2", "joint_probs_p2",
    "acvf_renewal", "gen_eval_renewal",
    "SimConfig", "sample_acvf", "simulate_counts",
]
