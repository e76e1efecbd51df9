import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from renewal_arma import arma_acvf, factorize, make_constant_hazard
from renewal_arma.arma import second_moment_limit
from renewal_arma.renewal import acvf_renewal
from renewal_arma.markov import context_hazards, mgf_trivariate, window_law
from renewal_arma.simulate import SimConfig, chain_rng, context_frequencies, simulate_chain, simulate_counts
from renewal_arma.verify import (
    FULL_STEPS,
    MC_SEED,
    MIN_CONTEXT_COUNT,
    _chi_square_gate,
    analytic_gates,
    batch_se,
    binom_pmf,
    chi2_sf,
    monte_carlo_gates,
    verify_model,
    verify_spec,
)

from conftest import draw_spec, exact_acvf, exact_moments, exact_variance

FULL_GATES_P2 = [
    "stationary_delayed_probs", "generating_function_identity", "acvf_identity",
    "scale_constant_routes", "causal_invertible", "closed_form_match",
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
    x U(0.5, 0.95), drawn from one stream for r = 0.99, then 0.999, 0.9999 and 0.999999."""
    rng = np.random.default_rng(0)
    return {r: [make_constant_hazard(rng.dirichlet(np.ones(p + 1))[:p] * rng.uniform(0.5, 0.95), r)
                for p in (1, 2, 3, 5, 10) for _ in range(10)]
            for r in (0.99, 0.999, 0.9999, 0.999999)}


NEAR_UNIT_HEADS = _near_unit_heads()


@pytest.mark.parametrize("r", [0.99, 0.999, 0.9999, 0.999999])
def test_moment_routes_near_unit_tail_rate(r):
    # Var[L] reaches about 1e8 here and its ulp about 1e-8, so both variance
    # gates hold only with bounds relative to Var[L]; at r = 0.999999, E[L]
    # reaches about 5e5 and mean_routes needs a bound relative to E[L]
    names = ("mean_routes", "variance_routes", "variance_limit")
    failed = [g.line() for spec in NEAR_UNIT_HEADS[r] for g in analytic_gates(spec, 5)
              if g.name in names and not g.passed]
    assert not failed, failed


def test_variance_gates_scale_with_var_l():
    # p = 10, fourth draw, r = 0.9999: Var[L] = 5.6e7, and its two routes and
    # the exact limit each lie within about 1e-14 relative of the exact value;
    # they missed the absolute bounds 1e-10 and 1e-6 by 8.2e-8 and 1.1e-6
    spec = NEAR_UNIT_HEADS[0.9999][43]
    want = exact_variance(spec)
    assert 5.5e7 < want < 5.7e7
    for got in (spec.variance(), spec.pgf().variance(), second_moment_limit(spec.pgf())):
        assert abs(Fraction(got) - want) <= Fraction(1e-13) * want
    var_l = spec.variance()
    gates = {g.name: g for g in analytic_gates(spec, 5)}
    assert gates["variance_routes"].threshold == 1e-10 * var_l
    assert gates["variance_limit"].threshold == 1e-6 * var_l
    assert gates["variance_routes"].passed and gates["variance_limit"].passed


def test_mean_routes_scales_with_mean():
    # the CLI case verify --head 0.2,0.3 --r 0.999999: E[L] = 5.0e5, whose ulp
    # is 5.8e-11; both routes lie within about 2e-16 relative of the exact
    # mean, and 1.2e-10 apart, past an absolute 1e-10
    spec = make_constant_hazard((0.2, 0.3), 0.999999)
    want = exact_moments(spec)[0]
    assert 4.9e5 < want < 5.1e5
    for got in (spec.mean(), spec.pgf().mean()):
        assert abs(Fraction(got) - want) <= Fraction(1e-15) * want
    gates = {g.name: g for g in analytic_gates(spec, 5)}
    assert gates["mean_routes"].threshold == 1e-10 * spec.mean()
    assert gates["mean_routes"].passed, gates["mean_routes"].line()


def test_acvf_identity_scales_with_M():
    # both autocovariances are M times those of one chain, about 2e14 at
    # M = 10**15, where an absolute 1e-8 is below their rounding; each is within
    # about 1e-15 relative of the exact renewal recursion
    spec = make_constant_hazard((0.2, 0.3), 0.6)
    M = 10 ** 15
    want = exact_acvf(spec, M, 50)
    model = factorize(spec.pgf(), M)
    for got in (acvf_renewal(spec.pgf(), M, 50), arma_acvf(model, 50)):
        assert max(abs(Fraction(g) - w) for g, w in zip(got, want)) <= Fraction(1e-13) * want[0]
    gamma0 = acvf_renewal(spec.pgf(), M, 50)[0]
    for gate in (*analytic_gates(spec, M), *verify_model(model, spec.pgf())):
        if gate.name == "acvf_identity":
            assert gate.threshold == 1e-8 * gamma0 and gate.passed, gate.line()
    # below gamma(0) = 1 the bound stays 1e-8
    small = {g.name: g for g in analytic_gates(make_constant_hazard((0.2, 0.3), 0.6), 1)}
    assert small["acvf_identity"].threshold == 1e-8


@pytest.mark.parametrize("p, seed", [(40, 7), (60, 0), (120, 0)])
def test_quick_gates_at_high_p(p, seed):
    # Dirichlet heads x0.9 at r = 0.5.  Rooting z^q d(z) and pairing
    # reciprocal roots refuses all three ("imaginary residue").
    spec = make_constant_hazard(np.random.default_rng(seed).dirichlet(np.ones(p + 1))[:p] * 0.9, 0.5)
    model = factorize(spec.pgf(), 5)
    assert (len(model.phi), len(model.theta)) == (p, p - 1)
    gates = verify_spec(spec, level="quick")
    assert all(g.passed for g in gates), [g.line() for g in gates if not g.passed]


def _close_root_heads():
    """Lifetimes whose AR and MA roots lie 4e-13 to 2e-9 apart, at moduli 2.9
    to 49: a Dirichlet head x0.9 at r = 0.5, and the draws of ``draw_spec``
    from ``default_rng([7, p])`` at the given (p, index)."""
    heads = {"rng4-p15": make_constant_hazard(np.random.default_rng(4).dirichlet(np.ones(16))[:15] * 0.9, 0.5)}
    for p, index in ((10, 52), (10, 101), (10, 125), (20, 22), (20, 34), (20, 86), (20, 125), (20, 128),
                     (30, 9), (30, 33), (30, 39), (30, 78), (30, 137)):
        rng = np.random.default_rng([7, p])
        for _ in range(index + 1):
            spec = draw_spec(rng, p)
        heads[f"p{p}-draw{index}"] = spec
    return heads


CLOSE_ROOT_HEADS = _close_root_heads()


@pytest.mark.parametrize("name", list(CLOSE_ROOT_HEADS))
def test_close_ar_ma_roots_factor(name):
    # the pgf is in lowest terms, so no AR root equals an MA root (see
    # arma.validate_model): roots this close are distinct, and the model holds
    spec = CLOSE_ROOT_HEADS[name]
    model = factorize(spec.pgf(), 5)
    assert (len(model.phi), len(model.theta)) == (spec.p, spec.p - 1)
    gates = verify_spec(spec, level="quick")
    assert all(g.passed for g in gates), [g.line() for g in gates if not g.passed]
    want = exact_acvf(spec, 5, 50)
    assert max(abs(Fraction(g) - w) for g, w in zip(arma_acvf(model, 50), want)) <= Fraction(1e-13) * want[0]


@pytest.mark.parametrize("head", [(0.5, 0.49999999), (0.5, 0.4999999999999)])
def test_rare_windows_pass_full_gates(head):
    # A lifetime exceeds 2 with probability 1e-8 (1e-13), so windows and
    # contexts that need one are this rare: every batch misses them, and the
    # frequencies seen are exactly 0 or 1, with no spread to estimate an SE from.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        gates = verify_spec(make_constant_hazard(head, 0.5), level="full")
    assert [g.name for g in gates if g.name != "degree_law"] == FULL_GATES_P2
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


def test_markov_gates_match_direct_statistics():
    # mc_conditionals sums its tally from the batch counts and mc_trivariate_mgf
    # sums its samples a batch at a time; both equal, to the bit, the
    # statistics taken over the whole series at once
    spec, M = make_constant_hazard((0.2, 0.3), 0.6), 5
    gates = {g.name: g.measured for g in monte_carlo_gates(spec, M, MC_SEED)}

    tally = context_frequencies(simulate_chain(spec, FULL_STEPS, chain_rng(MC_SEED, M)), 2)
    seen = tally.sum(axis=1)
    kept = seen >= MIN_CONTEXT_COUNT
    freq = tally[kept, 1] / seen[kept]
    hazard = context_hazards(spec, 2)[kept]
    se = np.sqrt(np.maximum(hazard * (1 - hazard), 1e-12) / seen[kept])
    assert gates["mc_conditionals"] == np.max(np.abs(freq - hazard) / (3 * se))

    y = simulate_counts(SimConfig(spec=spec, M=M, steps=FULL_STEPS, seed=MC_SEED)).values.astype(float)
    law, worst = window_law(spec, 3), 0.0
    for s in ((0.1, 0.2, 0.3), (0.2, 0.0, 0.1), (-0.1, 0.1, -0.2)):
        samples = np.exp(s[0] * y[2:] + s[1] * y[1:-1] + s[2] * y[:-2])
        worst = max(worst, abs(samples.mean() - mgf_trivariate(law, M, *s)) / (3 * batch_se(samples)))
    assert gates["mc_trivariate_mgf"] == worst


# each Monte-Carlo gate's name, pass flag and measured value on the six heads
# of the verify_full benchmark (M = 5, MC_SEED), as the gates gave them from
# a float copy of the whole series: reading the counts in place keeps them.
# mc_conditionals takes its SE from the target hazard h, sqrt(h (1 - h) / seen).
PINNED_MC_GATES = {
    ((0.4,), 0.6): [
        ("mc_marginal_mean", True, 0.00034000000000000696),
        ("mc_stationarity_thirds", True, 1.2015283667345102),
        ("mc_acvf", True, 0.28618087991214697),
        ("mc_binomial_marginal", True, 0.8088021145081616),
    ],
    ((0.7,), 0.3): [
        ("mc_marginal_mean", True, 0.00041100000000016124),
        ("mc_stationarity_thirds", True, 2.363959656849026),
        ("mc_acvf", True, 0.6100533963050191),
        ("mc_binomial_marginal", True, 0.035530399128239985),
    ],
    ((0.2, 0.3), 0.6): [
        ("mc_marginal_mean", True, 0.00019426229508190396),
        ("mc_stationarity_thirds", True, 1.3539295882113374),
        ("mc_acvf", True, 0.3152897797061738),
        ("mc_binomial_marginal", True, 0.48068815033284124),
        ("mc_joint_triples", True, 0.4143670169524873),
        ("mc_conditionals", True, 0.32467373742111144),
        ("mc_trivariate_mgf", True, 0.12279409068098925),
    ],
    ((0.5, 0.2), 0.4): [
        ("mc_marginal_mean", True, 0.00010799999999999699),
        ("mc_stationarity_thirds", True, 1.8340888866292167),
        ("mc_acvf", True, 0.41306895395446275),
        ("mc_binomial_marginal", True, 0.7276358110360208),
        ("mc_joint_triples", True, 0.3621017602562602),
        ("mc_conditionals", True, 0.30956900504478185),
        ("mc_trivariate_mgf", True, 0.1399261224168675),
    ],
    ((0.2, 0.3, 0.1), 0.6): [
        ("mc_marginal_mean", True, 0.000434515151515269),
        ("mc_stationarity_thirds", True, 1.003169552079053),
        ("mc_acvf", True, 0.21328030071339052),
        ("mc_binomial_marginal", True, 0.10402268186082365),
    ],
    ((0.3, 0.1, 0.2), 0.5): [
        ("mc_marginal_mean", True, 6.722580645179832e-05),
        ("mc_stationarity_thirds", True, 1.153234752829852),
        ("mc_acvf", True, 0.20622497667738532),
        ("mc_binomial_marginal", True, 0.30183369105368363),
    ],
}
# integer sums and exact tallies keep these to the bit; binom_pmf's rounding
# moves the p-value; the lag products and the MGF mean are summed in another order
PINNED_RTOL = {"mc_binomial_marginal": 1e-12, "mc_acvf": 1e-9, "mc_trivariate_mgf": 1e-9}


@pytest.mark.parametrize("head, r", list(PINNED_MC_GATES))
def test_monte_carlo_gates_pinned(head, r):
    gates = monte_carlo_gates(make_constant_hazard(head, r), 5, MC_SEED)
    assert [(g.name, g.passed) for g in gates] == [(name, passed) for name, passed, _ in PINNED_MC_GATES[head, r]]
    for gate, (name, _, want) in zip(gates, PINNED_MC_GATES[head, r]):
        if name in PINNED_RTOL:
            assert gate.measured == pytest.approx(want, rel=PINNED_RTOL[name], abs=0.0), name
        else:
            assert gate.measured == want, name


def test_monte_carlo_gates_make_no_wide_series_copy():
    # at M = 5 the counts are uint8, 1 MB at FULL_STEPS (below the memory-map
    # size, so numpy's allocation of them is traced), and every gate reads them
    # in place or a block at a time.  One series-sized copy in 8-byte items,
    # such as a float or int64 widening or a bincount of the whole series
    # (which copies its input to intp), would add 8 MB to the traced peak.
    tracemalloc.start()
    try:
        monte_carlo_gates(make_constant_hazard((0.4,), 0.6), 5, MC_SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 10 ** 6


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


@pytest.mark.parametrize("M", [10 ** 4, 10 ** 5])
@pytest.mark.parametrize("p", [1e-3, 0.1, 1 / 3.05, 0.5, 0.93])
def test_binom_pmf_at_large_M(M, p):
    # binom_pmf bounds the relative error of the term j steps from the mode m
    # by (5 j + 5 sd + 8) u: each ratio step rounds at most five times and the
    # normalising sum averages those errors.  Against the exact pmf of the
    # binary p (200-bit mpmath, about a hundred terms from the mode to both
    # ends of the terms above 1e-300) the largest measured error is 0.11 of
    # that bound.  scipy's own terms stray from the exact ones by up to about
    # twice the bound at M = 10**4, so against scipy four times it is allowed.
    import mpmath
    from scipy import stats

    got = binom_pmf(M, p)
    k = np.arange(M + 1)
    m = min(int((M + 1) * p), M)
    bound = (5 * np.abs(k - m) + 5 * math.sqrt(M * p * (1 - p)) + 8) * 2.0 ** -53
    ref = stats.binom.pmf(k, M, p)
    keep = ref > 1e-300
    assert np.all(np.abs(got - ref)[keep] <= 4 * bound[keep] * ref[keep])
    assert np.all(got[~keep] <= 1e-290)
    kept = k[keep]
    with mpmath.workprec(200):
        q = 1 - mpmath.mpf(p)
        for j in map(int, np.unique(np.r_[kept[:: max(1, len(kept) // 100)], kept[-1], m])):
            exact = mpmath.binomial(M, j) * mpmath.mpf(p) ** j * q ** (M - j)
            assert abs(got[j] - exact) <= bound[j] * exact, j


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
