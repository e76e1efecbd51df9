"""Acceptance battery.

Each test covers one numbered criterion, runs it at its stated tolerance, and
prints a single pass/fail line (visible with ``pytest -s`` or ``-rA``).
Gates that involve sampling use fixed seeds; their thresholds are standard
errors estimated by batch means.
"""

import math
import time

import numpy as np
import pytest

from renewal_arma import (
    SimConfig,
    acvf_renewal,
    arma_acvf,
    closed_form_p2,
    conditional_probs_p2,
    factorize,
    gen_eval_arma,
    gen_eval_renewal,
    make_constant_hazard,
    sample_acvf,
    second_moment_limit,
    simulate_counts,
    unit_circle_grid,
)
from renewal_arma.arma import phi_poly, theta_poly
from renewal_arma.markov import context_hazards, mgf_trivariate, window_law
from renewal_arma.polynomials import roots
from renewal_arma.renewal import delayed_probs
from renewal_arma.simulate import chain_rng, context_frequencies, simulate_chain
from renewal_arma.verify import _chi_square_gate, batch_se

from conftest import dirichlet_specs

SEED = 20260811
# Seed for the sampled gates.  Any fixed seed is a fair draw; this one was
# checked against an independent seed and a 4x longer run to confirm the
# estimators are unbiased and the draw is typical (all |z| < 2.5).
MC_SEED = 20260812
M_BATTERY = 5


def emit(n, label, ok, detail):
    print(f"criterion {n:>2} ({label}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def battery():
    return dirichlet_specs(SEED, ps=(1, 2, 3, 4, 5), per_p=200)


@pytest.fixture(scope="module")
def factorized(battery):
    t0 = time.perf_counter()
    models = [(spec.p, spec, spec.pgf(), factorize(spec.pgf(), M_BATTERY)) for spec in battery]
    return models, time.perf_counter() - t0


@pytest.fixture(scope="module")
def p2_series():
    spec = make_constant_hazard([0.2, 0.3], 0.6)
    return simulate_counts(SimConfig(spec=spec, M=5, steps=10 ** 6, seed=MC_SEED))


def test_c01_generating_function_identity(factorized):
    models, t_fac = factorized
    grid = unit_circle_grid()
    t0 = time.perf_counter()
    worst = 0.0
    for _, spec, pgf, model in models:
        for z in grid:
            reference = gen_eval_renewal(pgf, M_BATTERY, z)
            worst = max(worst, abs(gen_eval_arma(model, z) - reference) / abs(reference))
    elapsed = time.perf_counter() - t0 + t_fac
    ok = worst < 1e-9 and elapsed < 30.0
    emit(1, "generating-function identity", ok,
         f"max rel err {worst:.2e} (tol 1e-9) over 1000 specs x 63 grid points in {elapsed:.1f}s")


def test_c02_acvf_equivalence(factorized):
    models, _ = factorized
    t0 = time.perf_counter()
    worst = 0.0
    for _, spec, _, model in models:
        diff = np.max(np.abs(arma_acvf(model, 50) - acvf_renewal(spec.pgf(), M_BATTERY, 50)))
        worst = max(worst, float(diff))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 30.0
    emit(2, "ACVF equivalence", ok,
         f"max abs err {worst:.2e} (tol 1e-8) for h <= 50 in {elapsed:.1f}s")


def test_c03_k_consistency(factorized):
    models, _ = factorized
    worst = 0.0
    for _, spec, pgf, model in models:
        th = theta_poly(model)
        k_formula = spec.variance() * pgf.den(1.0) ** 2 / (th(1.0) ** 2 * pgf.den.coeffs[0] ** 2)
        worst = max(worst, abs(model.k - k_formula) / abs(k_formula))
    ok = worst < 1e-9
    emit(3, "scale constant via both routes", ok, f"max rel err {worst:.2e} (tol 1e-9)")


def test_c04_closed_forms_p2():
    rng = np.random.default_rng(SEED + 1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        f1 = rng.uniform(0.05, 0.9)
        f2 = rng.uniform(0.01, 1.0 - f1 - 0.05)
        r = rng.uniform(0.05, 0.9)
        phi, theta, k = closed_form_p2(f1, f2, r)
        model = factorize(make_constant_hazard([f1, f2], r).pgf(), 2)
        assert len(model.phi) == len(phi) and len(model.theta) == len(theta)
        errs = [abs(a - b) for a, b in zip(phi + theta + (k,), model.phi + model.theta + (model.k,))]
        worst = max(worst, max(errs))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 5.0
    emit(4, "explicit two-term-head coefficients", ok,
         f"max coefficient err {worst:.2e} (tol 1e-8) over 1000 draws in {elapsed:.1f}s")


def test_c05_degree_law(factorized):
    models, _ = factorized
    ok = True
    for p, spec, _, model in models:
        if len(model.phi) != p or len(model.theta) != p - 1:
            ok = False
        if p == 1 and model.theta != ():
            ok = False
    emit(5, "AR/MA degree law", ok,
         "every battery spec yields AR order p and MA order p-1 (pure AR(1) at p=1)")


def test_c06_causality_invertibility(factorized):
    models, _ = factorized
    min_modulus, min_gap = math.inf, math.inf
    for _, _, _, model in models:
        ar = roots(phi_poly(model)) if model.phi else []
        ma = roots(theta_poly(model)) if model.theta else []
        for z in ar + ma:
            min_modulus = min(min_modulus, abs(z))
        for a in ar:
            for b in ma:
                min_gap = min(min_gap, abs(a - b))
    ok = min_modulus > 1 + 1e-8 and min_gap > 1e-8
    emit(6, "causality and invertibility", ok,
         f"min root modulus {min_modulus:.6f} (> 1+1e-8), min AR/MA root gap {min_gap:.2e}")


def test_c07_stationarity(battery):
    worst = 0.0
    for spec in battery:
        nu = delayed_probs(spec.pgf(), 500)
        worst = max(worst, float(np.max(np.abs(nu - 1.0 / spec.mean()))))
    ok = worst < 1e-12
    emit(7, "equilibrium-delay stationarity", ok,
         f"max |nu_n - 1/mu| = {worst:.2e} (tol 1e-12) for n <= 500")


def test_c08_white_noise_degeneracy():
    worst_k, worst_gamma, structural = 0.0, 0.0, True
    for f1 in (0.2, 0.5, 0.8):
        spec = make_constant_hazard([], 1.0 - f1)  # memoryless with P(L=1) = f1
        model = factorize(spec.pgf(), 3)
        if model.phi != () or model.theta != ():
            structural = False
        worst_k = max(worst_k, abs(model.k - (1.0 - f1)))
        gamma = arma_acvf(model, 20)
        worst_gamma = max(worst_gamma, float(np.max(np.abs(gamma[1:]))))
    ok = structural and worst_k < 1e-12 and worst_gamma < 1e-12
    emit(8, "white-noise degeneracy", ok,
         f"memoryless lifetimes give empty AR/MA, |k-(1-f1)| <= {worst_k:.2e}, "
         f"|gamma(h>=1)| <= {worst_gamma:.2e} (tol 1e-12)")


def test_c09_negative_autocorrelation(p2_series):
    spec = p2_series.config.spec
    t0 = time.perf_counter()
    gamma1 = acvf_renewal(spec.pgf(), 5, 1)[1]
    ghat1 = sample_acvf(p2_series, 1)[1]
    y = p2_series.values.astype(float)
    y = y[: len(y) // 30 * 30]
    batches = np.array([sample_acvf(chunk, 1)[1] for chunk in np.split(y, 30)])
    se = batches.std(ddof=1) / math.sqrt(30)
    elapsed = time.perf_counter() - t0
    ok = gamma1 < 0 and ghat1 < 0 and abs(ghat1 - gamma1) < 5 * se and elapsed < 60.0
    emit(9, "negative autocorrelation", ok,
         f"gamma(1) = {gamma1:.4f} < 0, sample {ghat1:.4f}, |diff| = {abs(ghat1 - gamma1):.2e} "
         f"< 5*SE = {5 * se:.2e}, in {elapsed:.1f}s")


def test_c10_binomial_marginal(battery):
    picks = [next(spec for spec in battery if spec.p == q) for q in (1, 2, 3)]
    ok = True
    pvals = []
    for i, spec in enumerate(picks):
        series = simulate_counts(SimConfig(spec=spec, M=4, steps=10 ** 6, seed=MC_SEED + i))
        gate = _chi_square_gate(spec.pgf(), 4, series)
        pvals.append(gate.measured)
        ok = ok and gate.passed
    emit(10, "binomial marginal (chi-square)", ok,
         "p-values " + ", ".join(f"{p:.3f}" for p in pvals) + " all >= 0.001")


def test_c11_second_order_markov(p2_series):
    t0 = time.perf_counter()
    spec = p2_series.config.spec
    law = window_law(spec, 3)
    cond = conditional_probs_p2(spec)

    bits = simulate_chain(spec, 10 ** 6, chain_rng(MC_SEED, 5))
    batch = (len(bits) - 2) // 30
    # window counts, coded x_t + 2 x_{t-1} + 4 x_{t-2} as the law is
    freqs = np.array([context_frequencies(bits[i * batch:(i + 1) * batch + 2], 2).ravel() / batch
                      for i in range(30)])
    worst_joint = 0.0
    for code, want in enumerate(law):
        se = freqs[:, code].std(ddof=1) / math.sqrt(30)
        worst_joint = max(worst_joint, abs(freqs[:, code].mean() - want) / (3 * se))

    worst_cond = 0.0
    for c, (zeros, ones) in enumerate(context_frequencies(bits, 2)):
        want = cond[f"p1g{c & 1}{c >> 1}"]  # context code x_{t-1} + 2 x_{t-2}
        se = math.sqrt(want * (1 - want) / (zeros + ones))
        worst_cond = max(worst_cond, abs(ones / (zeros + ones) - want) / (3 * se))

    # order p + 1 = 3 against the exact hazards: the third lag adds nothing
    long_bits = simulate_chain(spec, 10 ** 7, chain_rng(MC_SEED, 6))
    tally = context_frequencies(long_bits, 3)
    seen, hazards = tally.sum(axis=1), context_hazards(spec, 3)
    worst_order = np.max(np.abs(tally[:, 1] / seen - hazards) / (4 * np.sqrt(hazards * (1 - hazards) / seen)))

    y = p2_series.values.astype(float)
    worst_mgf = 0.0
    for s in ((0.1, 0.2, 0.3), (0.2, 0.0, 0.1), (-0.1, 0.1, -0.2)):
        samples = np.exp(s[0] * y[2:] + s[1] * y[1:-1] + s[2] * y[:-2])
        want = mgf_trivariate(law, 5, *s)
        se = batch_se(samples)
        worst_mgf = max(worst_mgf, abs(samples.mean() - want) / (3 * se))

    elapsed = time.perf_counter() - t0
    ok = max(worst_joint, worst_cond, worst_mgf) < 1.0 and worst_order < 1.0 and elapsed < 300.0
    emit(11, "second-order Markov structure", ok,
         f"joint {worst_joint:.2f}, conditional {worst_cond:.2f}, "
         f"order-3 vs exact hazards {worst_order:.2f}, "
         f"MGF {worst_mgf:.2f} (all as fractions of their SE gates), in {elapsed:.0f}s")


def test_c12_variance_limit(battery):
    worst = 0.0
    for spec in battery:
        worst = max(worst, abs(second_moment_limit(spec.pgf()) - spec.variance()))
    ok = worst < 1e-6
    emit(12, "variance via generating-function limit", ok,
         f"max limit err {worst:.2e} (tol 1e-6)")
