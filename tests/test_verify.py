import math
import warnings

import numpy as np
import pytest

from renewal_arma import factorize, make_constant_hazard
from renewal_arma.arma import COMMON_ROOT_TOL, check_causal_invertible
from renewal_arma.renewal import acvf_renewal
from renewal_arma.simulate import SimConfig, simulate_counts
from renewal_arma.verify import _chi_square_gate, analytic_gates, binom_pmf, chi2_sf, verify_spec

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


# --- the chi-square gate without scipy.stats; scipy.stats serves only as the reference here


def scipy_chi_square_pvalue(pgf, M, series):
    """The p-value of ``mc_binomial_marginal`` computed with ``scipy.stats``:
    the same thinning and bin merging, then ``binom.pmf`` and ``chisquare``."""
    from scipy import stats

    gamma = acvf_renewal(pgf, M, 256)
    below = np.nonzero(np.abs(gamma) < 1e-4 * gamma[0])[0]
    y = series.values[:: int(below[0]) if below.size else 256]
    expected = stats.binom.pmf(np.arange(M + 1), M, 1.0 / pgf.mean()) * len(y)
    obs_m, exp_m, acc_o, acc_e = [], [], 0.0, 0.0
    for o, e in zip(np.bincount(y, minlength=M + 1).astype(float), expected):
        acc_o, acc_e = acc_o + o, acc_e + e
        if acc_e >= 5.0:
            obs_m.append(acc_o)
            exp_m.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0 and exp_m:
        obs_m[-1] += acc_o
        exp_m[-1] += acc_e
    return stats.chisquare(obs_m, np.array(exp_m) * (sum(obs_m) / sum(exp_m))).pvalue, len(obs_m)


@pytest.mark.parametrize("df", range(1, 61))
def test_chi2_sf_matches_scipy(df):
    from scipy import stats

    x = np.concatenate([np.geomspace(1e-8, 3000.0, 200), np.linspace(0.0, 4.0 * df + 100.0, 100)])
    ref = stats.chi2.sf(x, df)
    got = np.array([chi2_sf(float(v), df) for v in x])
    keep = ref > 1e-300
    np.testing.assert_allclose(got[keep], ref[keep], rtol=1e-12, atol=0.0)
    assert np.all(got[~keep] <= 1e-290)


def test_chi2_sf_edges():
    assert chi2_sf(0.0, 1) == chi2_sf(0.0, 2) == chi2_sf(-1.0, 3) == 1.0
    assert chi2_sf(1e300, 1) == chi2_sf(1e300, 7) == chi2_sf(1e300, 8) == 0.0
    assert math.isnan(chi2_sf(3.0, 0))


@pytest.mark.parametrize("M", [1, 5, 60, 1200])
@pytest.mark.parametrize("p", [1e-3, 0.1, 1 / 3.05, 0.5, 0.93])
def test_binom_pmf_matches_scipy(M, p):
    from scipy import stats

    ref = stats.binom.pmf(np.arange(M + 1), M, p)
    got = binom_pmf(M, p)
    keep = ref > 1e-300
    np.testing.assert_allclose(got[keep], ref[keep], rtol=1e-12, atol=0.0)
    assert np.all(got[~keep] <= 1e-290)


@pytest.mark.parametrize("head,r,M", [((0.2, 0.3), 0.6, 1), ((0.2, 0.3), 0.6, 5),
                                      ((0.7,), 0.3, 40), ((0.3, 0.1, 0.2), 0.5, 200)])
def test_chi_square_gate_matches_scipy(head, r, M):
    spec = make_constant_hazard(head, r)
    series = simulate_counts(SimConfig(spec=spec, M=M, steps=50_000, seed=7))
    gate = _chi_square_gate(spec.pgf(), M, series)
    pvalue, bins = scipy_chi_square_pvalue(spec.pgf(), M, series)
    assert bins > 1
    assert gate.measured == pytest.approx(pvalue, rel=1e-12, abs=0.0)


def test_single_merged_bin_fails_chi_square_gate():
    # six thinned draws expect six counts in all: the bins merge into one,
    # which leaves no degree of freedom, and the gate fails with a NaN p-value
    spec = make_constant_hazard([0.2, 0.3], 0.6)
    series = simulate_counts(SimConfig(spec=spec, M=5, steps=30, seed=1))
    gate = _chi_square_gate(spec.pgf(), 5, series)
    assert scipy_chi_square_pvalue(spec.pgf(), 5, series)[1] == 1
    assert math.isnan(gate.measured)
    assert not gate.passed
