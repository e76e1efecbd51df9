"""Verification gates behind the ``verify`` command.

``quick`` runs the analytic identities (factorization vs renewal side, both
routes to the scale constant, degree law, causality, stationarity, moment and
series cross-checks).  ``full`` adds seeded Monte-Carlo gates: marginal
moments, sample autocovariance, a chi-square test of the binomial marginal,
and for two-term heads the joint/conditional/moment comparisons.

The Markov gates read their targets from the capped-age chain of
:mod:`.markov`: the three-bit window law (cells coded x_t + 2 x_{t-1} +
4 x_{t-2}, the code the simulated triples are binned by) and the context
hazards.  They stay restricted to two-term heads, the window the ``markov``
command reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .arma import (
    arma_acvf,
    check_causal_invertible,
    closed_form_p2,
    factorize,
    gen_eval_arma,
    scale_constant,
    second_moment_limit,
    theta_poly,
    unit_circle_grid,
)
from .errors import RenewalArmaError
from .lifetime import LifetimeSpec
from .markov import context_hazards, mgf_trivariate, step_pair_law, window_law, window_marginals
from .polynomials import Poly
from .renewal import acvf_renewal, delayed_probs, gen_eval_renewal
from .simulate import (
    SimConfig,
    chain_rng,
    context_frequencies,
    sample_acvf,
    simulate_chain,
    simulate_counts,
)

N_BATCHES = 30
FULL_STEPS = 10 ** 6


@dataclass(frozen=True)
class GateResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"[{tag}] {self.name}: measured={self.measured:.3e} threshold={self.threshold:.3e}{extra}"


def _gate(name, measured, threshold, detail="", larger_is_better=False):
    ok = measured > threshold if larger_is_better else measured < threshold
    return GateResult(name=name, passed=bool(ok), measured=float(measured),
                      threshold=float(threshold), detail=detail)


def _causal_gate(report) -> GateResult:
    min_mod = min(report.ar_root_moduli + report.ma_root_moduli, default=math.inf)
    return _gate("causal_invertible", min_mod, 1.0 + 1e-8,
                 "min root modulus of AR and MA polynomials", larger_is_better=True)


def batch_se(values: np.ndarray, n_batches: int = N_BATCHES) -> float:
    """Standard error of the mean estimated from batch means."""
    n = len(values) // n_batches
    means = np.array([values[i * n : (i + 1) * n].mean() for i in range(n_batches)])
    return float(means.std(ddof=1) / math.sqrt(n_batches))


def verify_spec(
    spec: LifetimeSpec,
    M: int = 5,
    level: str = "quick",
    seed: int = 20260812,
    threads: int = 1,
) -> list[GateResult]:
    gates = analytic_gates(spec, M)
    if level == "full":
        gates += monte_carlo_gates(spec, M, seed, threads)
    return gates


def analytic_gates(spec: LifetimeSpec, M: int) -> list[GateResult]:
    out = []
    mu = spec.mean()
    pgf = spec.pgf()

    nu = delayed_probs(spec, 500)
    out.append(_gate("stationary_delayed_probs", np.max(np.abs(nu - 1.0 / mu)), 1e-12,
                     "max |nu_n - 1/mu| over n <= 500"))

    model = factorize(pgf, M)

    grid = unit_circle_grid(64)
    rel = max(
        abs(gen_eval_arma(model, z) - gen_eval_renewal(pgf, M, mu, z)) / abs(gen_eval_renewal(pgf, M, mu, z))
        for z in grid
    )
    out.append(_gate("generating_function_identity", rel, 1e-9,
                     "ARMA vs renewal form on 64 circle points"))

    gamma_renewal = acvf_renewal(spec, M, 50)
    gamma_model = arma_acvf(model, 50)
    out.append(_gate("acvf_identity", np.max(np.abs(gamma_model - gamma_renewal)), 1e-8,
                     "|gamma_model(h) - gamma_renewal(h)|, h <= 50"))

    var_l = spec.variance()
    k_formula = scale_constant(var_l, pgf.den, theta_poly(model))
    out.append(_gate("scale_constant_routes", abs(model.k - k_formula) / abs(k_formula), 1e-9,
                     "constant-term route vs variance formula"))

    f = list(spec.head) + [spec.tail_first]
    generic_ma_degree = spec.p == 0 or abs(f[-1] - f[-2] * spec.r) > 1e-6
    if generic_ma_degree:
        ok = len(model.phi) == spec.p and len(model.theta) == max(spec.p - 1, 0)
        out.append(GateResult("degree_law", ok, float(len(model.theta)), float(max(spec.p - 1, 0)),
                              f"expected AR order {spec.p}, MA order {max(spec.p - 1, 0)}"))

    report = check_causal_invertible(model)
    out.append(_causal_gate(report))
    out.append(_gate("no_common_roots", report.min_root_gap, 1e-8, "min AR/MA root separation",
                     larger_is_better=True))

    if spec.p == 2:
        phi_cf, theta_cf, k_cf = closed_form_p2(spec.head[0], spec.head[1], spec.r)
        diffs = [abs(a - b) for a, b in zip(phi_cf, model.phi)]
        diffs += [abs(a - b) for a, b in zip(theta_cf, model.theta)]
        diffs += [abs(k_cf - model.k), abs(len(theta_cf) - len(model.theta))]
        out.append(_gate("closed_form_match", max(diffs), 1e-8,
                         "closed-form AR(2)/MA(1) coefficients vs numeric factorization"))

    out.append(_gate("variance_limit", abs(second_moment_limit(pgf) - var_l), 1e-6,
                     "extrapolated generating-function limit vs Var[L]"))

    deflate_check = (Poly((1.0, -1.0)) * Poly((1.0,) + tuple(-c for c in model.phi))).scale(pgf.den.coeffs[0])
    residual = max(
        abs(a - b) for a, b in zip(
            list(deflate_check.coeffs) + [0.0] * 8, list((pgf.den - pgf.num).coeffs) + [0.0] * 8
        )
    )
    out.append(_gate("deflation_reconstruction", residual, 1e-12,
                     "(1-z) * AR polynomial reproduces den - num"))

    series = pgf.series(200)
    pmf_err = max(abs(series[n] - spec.pmf(n)) for n in range(1, 200))
    out.append(_gate("pgf_series_matches_pmf", pmf_err, 1e-12, "long division vs closed-form pmf"))

    out.append(_gate("mean_routes", abs(spec.mean() - pgf.mean()), 1e-10,
                     "closed form vs quotient rule"))
    out.append(_gate("variance_routes", abs(spec.variance() - pgf.variance()), 1e-10,
                     "closed form vs quotient rule"))

    if spec.p == 2:
        law = window_law(spec, 3)
        out.append(_gate("joint_table_total", abs(math.fsum(law) - 1.0), 1e-12, "eight cells sum to 1"))
        out.append(_gate("joint_table_marginals", np.max(np.abs(window_marginals(law) - 1.0 / mu)),
                         1e-12, "each marginal equals 1/mu"))
        pair = law.reshape(4, 2).sum(axis=1)  # law of (X_{t-1}, X_{t-2})
        stepped = step_pair_law(pair, context_hazards(spec, 2))
        out.append(_gate("pair_law_fixed_point", np.max(np.abs(stepped - pair)),
                         1e-12, "one kernel step preserves the stationary pair law"))
    return out


def monte_carlo_gates(spec: LifetimeSpec, M: int, seed: int, threads: int = 1) -> list[GateResult]:
    out = []
    mu = spec.mean()
    series = simulate_counts(SimConfig(spec=spec, M=M, steps=FULL_STEPS, seed=seed), threads=threads)
    y = series.values.astype(float)

    se = batch_se(y)
    out.append(_gate("mc_marginal_mean", abs(y.mean() - M / mu), 3 * se, "|sample mean - M/mu| vs 3*SE"))

    thirds = y[:300000].reshape(3, 100000)
    ses = [batch_se(t, 10) for t in thirds]
    worst = max(
        abs(thirds[i].mean() - thirds[j].mean()) / math.sqrt(ses[i] ** 2 + ses[j] ** 2)
        for i in range(3) for j in range(i + 1, 3)
    )
    out.append(_gate("mc_stationarity_thirds", worst, 5.0, "mean drift across thirds, units of SE"))

    gamma = acvf_renewal(spec, M, 10)
    ghat = sample_acvf(series, 10)
    batch_len = FULL_STEPS // N_BATCHES
    batch_acvf = np.array([
        sample_acvf(y[i * batch_len : (i + 1) * batch_len], 10) for i in range(N_BATCHES)
    ])
    se_h = batch_acvf.std(axis=0, ddof=1) / math.sqrt(N_BATCHES)
    worst = max(abs(ghat[h] - gamma[h]) / (5 * se_h[h]) for h in range(11))
    out.append(_gate("mc_acvf", worst, 1.0, "max_h |acvf_hat - acvf| / (5*SE)"))

    out.append(_chi_square_gate(spec, M, series))

    if spec.p == 2:
        out += _markov_gates(spec, M, seed, series)
    return out


def _chi_square_gate(spec: LifetimeSpec, M: int, series) -> GateResult:
    # Pearson's test needs (nearly) independent draws; thin by the lag at
    # which the theoretical autocovariance has decayed away.
    gamma = acvf_renewal(spec, M, 256)
    below = np.nonzero(np.abs(gamma) < 1e-4 * gamma[0])[0]
    stride = int(below[0]) if below.size else 256
    y = series.values[:: max(stride, 1)]
    p_marginal = 1.0 / spec.mean()
    probs = stats.binom.pmf(np.arange(M + 1), M, p_marginal)
    observed = np.bincount(y, minlength=M + 1).astype(float)
    expected = probs * len(y)
    # merge bins until every expected count is at least 5
    obs_m, exp_m = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            obs_m.append(acc_o)
            exp_m.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0 and exp_m:
        obs_m[-1] += acc_o
        exp_m[-1] += acc_e
    exp_arr = np.array(exp_m) * (sum(obs_m) / sum(exp_m))
    _, pvalue = stats.chisquare(obs_m, exp_arr)
    return _gate("mc_binomial_marginal", pvalue, 0.001,
                 f"chi-square p-value (thinned every {stride} steps)", larger_is_better=True)


def _markov_gates(spec: LifetimeSpec, M: int, seed: int, series) -> list[GateResult]:
    out = []
    # one long indicator chain on a stream index the superposition never uses
    bits = simulate_chain(spec, FULL_STEPS, chain_rng(seed, M))
    law = window_law(spec, 3)

    b = np.asarray(bits, dtype=np.int64)
    triples = b[2:] + 2 * b[1:-1] + 4 * b[:-2]  # x_t + 2 x_{t-1} + 4 x_{t-2}
    n = len(triples)
    batch = n // N_BATCHES
    freqs = np.array([np.bincount(triples[i * batch : (i + 1) * batch], minlength=8) / batch
                      for i in range(N_BATCHES)])
    worst = 0.0
    for code, target in enumerate(law):
        if target == 0.0:  # an impossible window: every batch must miss it
            if freqs[:, code].any():
                worst = math.inf
            continue
        est = freqs[:, code].mean()
        se = freqs[:, code].std(ddof=1) / math.sqrt(N_BATCHES)
        worst = max(worst, abs(est - target) / (3 * se))
    out.append(_gate("mc_joint_triples", worst, 1.0, "max cell error / (3*SE)"))

    hazards = context_hazards(spec, 2)
    table = context_frequencies(bits, 2)
    worst = 0.0
    for (a, bb), st in table.items():
        if st.sparse:
            continue
        target = hazards[a + 2 * bb]
        se = math.sqrt(max(st.freq * (1 - st.freq), 1e-12) / st.count)
        worst = max(worst, abs(st.freq - target) / (3 * se))
    out.append(_gate("mc_conditionals", worst, 1.0, "max context error / (3*SE)"))

    y = series.values.astype(float)
    worst = 0.0
    for s in ((0.1, 0.2, 0.3), (0.2, 0.0, 0.1), (-0.1, 0.1, -0.2)):
        samples = np.exp(s[0] * y[2:] + s[1] * y[1:-1] + s[2] * y[:-2])
        target = mgf_trivariate(law, M, *s)
        se = batch_se(samples)
        worst = max(worst, abs(samples.mean() - target) / (3 * se))
    out.append(_gate("mc_trivariate_mgf", worst, 1.0, "max MGF error / (3*SE) at three points"))
    return out


def verify_model(model, spec: LifetimeSpec | None = None, declared_sigma2: float | None = None) -> list[GateResult]:
    """Gates for a deserialized model: causality, invertibility, consistency."""
    out = [_causal_gate(check_causal_invertible(model))]
    out.append(_gate("positive_constants", min(model.k, model.sigma2), 0.0,
                     "k and sigma2 must be positive", larger_is_better=True))
    sigma2 = declared_sigma2 if declared_sigma2 is not None else model.sigma2
    out.append(_gate("sigma2_consistency", abs(sigma2 - model.k * model.M / model.mu),
                     1e-12 * max(abs(sigma2), 1.0), "sigma2 equals k*M/mu"))
    if spec is not None:
        gamma = acvf_renewal(spec, model.M, 50)
        try:
            gamma_model = arma_acvf(model, 50)
            err = float(np.max(np.abs(gamma_model - gamma)))
        except RenewalArmaError:
            err = math.inf
        out.append(_gate("acvf_identity", err, 1e-8, "model ACVF vs renewal ACVF"))
    return out


def report_to_dict(gates: list[GateResult], level: str) -> dict:
    return {
        "schema_version": 1,
        "level": level,
        "passed": all(g.passed for g in gates),
        "gates": [
            {"name": g.name, "passed": g.passed, "measured": g.measured,
             "threshold": g.threshold, "detail": g.detail}
            for g in gates
        ],
    }
