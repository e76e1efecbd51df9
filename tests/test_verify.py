import warnings

import numpy as np
import pytest

from renewal_arma import factorize, make_constant_hazard
from renewal_arma.arma import COMMON_ROOT_TOL, check_causal_invertible
from renewal_arma.verify import analytic_gates, verify_spec

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


def _near_unit_heads():
    """50 heads per tail rate: p = 1, 2, 3, 5, 10, ten each, Dirichlet weights
    x U(0.5, 0.95), drawn from one stream for r = 0.99, then 0.999, then 0.9999."""
    rng = np.random.default_rng(0)
    return {r: [make_constant_hazard(rng.dirichlet(np.ones(p + 1))[:p] * rng.uniform(0.5, 0.95), r)
                for p in (1, 2, 3, 5, 10) for _ in range(10)]
            for r in (0.99, 0.999, 0.9999)}


NEAR_UNIT_HEADS = _near_unit_heads()


@pytest.mark.parametrize("r", [0.99, 0.999, 0.9999])
def test_moment_routes_near_unit_tail_rate(r):
    # The absolute 1e-10 of variance_routes is out of reach from r = 0.999 on,
    # where Var[L] is about 1e6 and its ulp about 1e-10.
    names = ("mean_routes", "variance_routes") if r == 0.99 else ("mean_routes",)
    failed = [g.line() for spec in NEAR_UNIT_HEADS[r] for g in analytic_gates(spec, 5)
              if g.name in names and not g.passed]
    assert not failed, failed


@pytest.mark.parametrize("p, seed", [(40, 7), (60, 0), (120, 0)])
def test_quick_gates_at_high_p(p, seed):
    # Dirichlet heads x0.9 at r = 0.5.  Their AR and MA roots stay 0.063,
    # 0.041 and 0.021 apart, so the common-root rule (COMMON_ROOT_TOL = 1e-8)
    # accepts each of them.  Rooting z^q d(z) and pairing reciprocal roots
    # refuses all three ("imaginary residue").
    spec = make_constant_hazard(np.random.default_rng(seed).dirichlet(np.ones(p + 1))[:p] * 0.9, 0.5)
    model = factorize(spec.pgf(), 5)
    assert (len(model.phi), len(model.theta)) == (p, p - 1)
    assert check_causal_invertible(model).min_root_gap > 1e6 * COMMON_ROOT_TOL
    gates = verify_spec(spec, level="quick")
    assert all(g.passed for g in gates), [g.line() for g in gates if not g.passed]


def test_impossible_windows_pass_without_nan():
    # No lifetime exceeds 2, so three windows have probability 0: every batch
    # frequency of those cells is 0 and their standard error is 0 as well.
    spec = make_constant_hazard([0.5, 0.5], 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gates = verify_spec(spec, level="full")
    assert [g.name for g in gates] == FULL_GATES_P2
    assert all(g.passed for g in gates), [g for g in gates if not g.passed]
