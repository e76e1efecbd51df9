import warnings

import pytest

from renewal_arma import make_constant_hazard
from renewal_arma.verify import verify_spec

FULL_GATES_P2 = [
    "stationary_delayed_probs", "generating_function_identity", "acvf_identity",
    "scale_constant_routes", "causal_invertible", "no_common_roots", "closed_form_match",
    "variance_limit", "deflation_reconstruction", "pgf_series_matches_pmf", "mean_routes",
    "variance_routes", "joint_table_total", "joint_table_marginals", "pair_law_fixed_point",
    "mc_marginal_mean", "mc_stationarity_thirds", "mc_acvf", "mc_binomial_marginal",
    "mc_joint_triples", "mc_conditionals", "mc_trivariate_mgf",
]


@pytest.mark.parametrize("head", [(0.2, 0.3), ()])
@pytest.mark.parametrize("r", [0.99, 0.999, 0.9999])
def test_variance_limit_near_unit_tail_rate(head, r):
    gates = {g.name: g for g in verify_spec(make_constant_hazard(head, r), level="quick")}
    assert gates["variance_limit"].passed, gates["variance_limit"].line()


def test_impossible_windows_pass_without_nan():
    # No lifetime exceeds 2, so three windows have probability 0: every batch
    # frequency of those cells is 0 and their standard error is 0 as well.
    spec = make_constant_hazard([0.5, 0.5], 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gates = verify_spec(spec, level="full")
    assert [g.name for g in gates] == FULL_GATES_P2
    assert all(g.passed for g in gates), [g for g in gates if not g.passed]
