"""Binomial count time series from superposed stationary renewal processes.

Build a lifetime distribution with :func:`make_constant_hazard`, factor the
autocovariance generating function of the resulting count series with
:func:`factorize`, simulate with :func:`simulate_counts`, and cross-validate
the three routes (closed form, generating function, Monte Carlo) with the
``verify`` battery or the CLI.
"""

__version__ = "0.1.0"

from .arma import (
    ArmaModel,
    CausalityReport,
    arma_acvf,
    check_causal_invertible,
    closed_form_p2,
    factorize,
    gen_eval_arma,
    model_from_dict,
    model_to_dict,
    second_moment_limit,
    unit_circle_grid,
    validate_model,
)
from .errors import (
    FactorizationError,
    LatticeError,
    RenewalArmaError,
    SingularEvaluationError,
    ValidationError,
)
from .lifetime import (
    LifetimeSpec,
    RationalPGF,
    make_constant_hazard,
    make_rational_pgf,
    spec_from_dict,
    spec_to_dict,
)
from .markov import (
    OrderComparison,
    age_chain,
    conditional_probs_p2,
    context_hazards,
    joint_probs_p2,
    markov_order_test,
    mgf_trivariate,
    step_pair_law,
    window_law,
    window_marginals,
)
from .polynomials import (
    Poly,
    SymLaurent,
    deflate_at_one,
    divide_sym_by_unit_pair,
    factor_outside,
    roots,
    sym_product_diff,
)
from .renewal import (
    acvf_renewal,
    delayed_probs,
    gen_eval_renewal,
    renewal_probs,
)
from .simulate import (
    ContextStats,
    CountSeries,
    SimConfig,
    chain_rng,
    context_frequencies,
    sample_acvf,
    simulate_chain,
    simulate_counts,
)

__all__ = [
    "__version__",
    "ArmaModel", "CausalityReport", "arma_acvf", "check_causal_invertible",
    "closed_form_p2", "factorize", "gen_eval_arma", "model_from_dict",
    "model_to_dict", "second_moment_limit", "unit_circle_grid", "validate_model",
    "FactorizationError", "LatticeError", "RenewalArmaError",
    "SingularEvaluationError", "ValidationError",
    "LifetimeSpec", "RationalPGF", "make_constant_hazard", "make_rational_pgf",
    "spec_from_dict", "spec_to_dict",
    "OrderComparison", "age_chain", "conditional_probs_p2", "context_hazards",
    "joint_probs_p2", "markov_order_test", "mgf_trivariate", "step_pair_law",
    "window_law", "window_marginals",
    "Poly", "SymLaurent", "deflate_at_one", "divide_sym_by_unit_pair",
    "factor_outside", "roots", "sym_product_diff",
    "acvf_renewal", "delayed_probs", "gen_eval_renewal", "renewal_probs",
    "ContextStats", "CountSeries", "SimConfig", "chain_rng",
    "context_frequencies", "sample_acvf", "simulate_chain", "simulate_counts",
]
