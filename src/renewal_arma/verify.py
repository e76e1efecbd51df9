"""Verification gates behind the ``verify`` command.

``quick`` runs the analytic identities (factorization vs renewal side, both
routes to the scale constant, degree law, causality, stationarity, moment and
series cross-checks).  ``full`` adds seeded Monte-Carlo gates: marginal
moments, sample autocovariance, a chi-square test of the binomial marginal,
and for two-term heads the joint/conditional/moment comparisons.  They read
the simulated counts, in the smallest unsigned type that holds M, and the
uint8 bits in place, a block or a batch at a time, so no series-sized copy
is made: means are exact integer sums over their lengths, and the
estimators and the chi-square tally stream through cache-sized pieces.

The Markov gates read their targets from the capped-age chain of
:mod:`.markov`: the three-bit window law and the context hazards.  The
simulated bits are counted by :func:`.simulate.context_frequencies` in the
same integer codes, window x_t + 2 x_{t-1} + 4 x_{t-2} and context
x_{t-1} + 2 x_{t-2}.  They stay restricted to two-term heads, the window the
``markov`` command reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arma import (
    arma_acvf,
    check_causal_invertible,
    closed_form_p2,
    factorize,
    gen_eval_arma,
    phi_poly,
    scale_constant,
    second_moment_limit,
    theta_poly,
    unit_circle_grid,
)
from .errors import RenewalArmaError
from .lifetime import LifetimeSpec, RationalPGF
from .markov import context_hazards, mgf_trivariate, step_pair_law, window_law, window_marginals
from .polynomials import TOL_CIRCLE, Poly
from .renewal import acvf_renewal, delayed_probs, gen_eval_renewal
from .simulate import (
    BLOCK,
    SimConfig,
    chain_rng,
    context_frequencies,
    sample_acvf,
    simulate_chain,
    simulate_counts,
)

N_BATCHES = 30
MC_SEED = 20260812  # the default seed of the Monte-Carlo gates
FULL_STEPS = 10 ** 6
MIN_CONTEXT_COUNT = 1000  # mc_conditionals leaves out contexts seen fewer times


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
    return _gate("causal_invertible", min_mod, 1.0 + TOL_CIRCLE,
                 "min root modulus of AR and MA polynomials", larger_is_better=True)


def _batches(values: np.ndarray, n_batches: int = N_BATCHES) -> np.ndarray:
    """The ``(n_batches, n)`` view of ``values``, one batch of n = len // n_batches per
    row; the last ``len % n_batches`` values are left out."""
    n = len(values) // n_batches
    return values[: n_batches * n].reshape(n_batches, n)


def batch_se(values: np.ndarray, n_batches: int = N_BATCHES) -> float:
    """Standard error of the mean estimated from batch means, each its batch's
    sum over the batch length: exact for integer values."""
    batches = _batches(values, n_batches)
    return _means_se(batches.sum(axis=1) / batches.shape[1])


def _means_se(means: np.ndarray) -> float:
    """Standard error of the mean of equal batches whose means are ``means``."""
    return float(means.std(ddof=1) / math.sqrt(len(means)))


def verify_spec(
    spec: LifetimeSpec,
    M: int = 5,
    level: str = "quick",
    seed: int = MC_SEED,
) -> list[GateResult]:
    gates = analytic_gates(spec, M)
    if level == "full":
        gates += monte_carlo_gates(spec, M, seed)
    return gates


def analytic_gates(spec: LifetimeSpec, M: int) -> list[GateResult]:
    out = []
    pgf = spec.pgf()
    mu = pgf.mean()

    nu = delayed_probs(pgf, 500)
    out.append(_gate("stationary_delayed_probs", np.max(np.abs(nu - 1.0 / mu)), 1e-12,
                     "max |nu_n - 1/mu| over n <= 500"))

    model = factorize(pgf, M)

    grid = unit_circle_grid()
    renewal_side = gen_eval_renewal(pgf, M, grid)
    rel = np.max(np.abs(gen_eval_arma(model, grid) - renewal_side) / np.abs(renewal_side))
    out.append(_gate("generating_function_identity", rel, 1e-9,
                     "ARMA vs renewal form on 64 circle points"))

    gamma_renewal = acvf_renewal(pgf, M, 50)
    gamma_model = arma_acvf(model, 50)
    out.append(_gate("acvf_identity", np.max(np.abs(gamma_model - gamma_renewal)),
                     1e-8 * max(1.0, gamma_renewal[0]), "|gamma_model(h) - gamma_renewal(h)|, h <= 50"))

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

    out.append(_causal_gate(check_causal_invertible(model)))

    if spec.p == 2:
        phi_cf, theta_cf, k_cf = closed_form_p2(spec.head[0], spec.head[1], spec.r)
        diffs = [abs(a - b) for a, b in zip(phi_cf, model.phi)]
        diffs += [abs(a - b) for a, b in zip(theta_cf, model.theta)]
        diffs += [abs(k_cf - model.k), abs(len(theta_cf) - len(model.theta))]
        out.append(_gate("closed_form_match", max(diffs), 1e-8,
                         "closed-form AR(2)/MA(1) coefficients vs numeric factorization"))

    out.append(_gate("variance_limit", abs(second_moment_limit(pgf) - var_l), 1e-6 * max(1.0, var_l),
                     "exact generating-function limit D(1)/Q(1)^2 vs Var[L]"))

    deflate_check = (Poly((1.0, -1.0)) * phi_poly(model)).scale(pgf.den.coeffs[0])
    residual = max(map(abs, (deflate_check - pgf.renewal_denominator()).coeffs), default=0.0)
    out.append(_gate("deflation_reconstruction", residual, 1e-12,
                     "(1-z) * AR polynomial reproduces den - num"))

    series = pgf.series(200)
    pmf_err = np.max(np.abs(series[1:] - spec.pmfs(199)))
    out.append(_gate("pgf_series_matches_pmf", pmf_err, 1e-12, "long division vs closed-form pmf"))

    out.append(_gate("mean_routes", abs(spec.mean() - pgf.mean()), 1e-10 * max(1.0, spec.mean()),
                     "closed form vs survival series S(1) = A(1)/Q(1)"))
    out.append(_gate("variance_routes", abs(var_l - pgf.variance()), 1e-10 * max(1.0, var_l),
                     "closed form vs 2 S'(1) + mu - mu^2"))

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


def monte_carlo_gates(spec: LifetimeSpec, M: int, seed: int) -> list[GateResult]:
    out = []
    pgf = spec.pgf()
    mu = pgf.mean()
    series = simulate_counts(SimConfig(spec=spec, M=M, steps=FULL_STEPS, seed=seed))
    # the counts, in the smallest unsigned type that holds M, are read in
    # place: means are exact integer sums over their lengths (numpy sums a
    # narrow type in 64 bits), and the estimators stream through them a block
    # at a time
    y = series.values

    se = batch_se(y)
    out.append(_gate("mc_marginal_mean", abs(y.sum() / len(y) - M / mu), 3 * se, "|sample mean - M/mu| vs 3*SE"))

    thirds = y[:300000].reshape(3, 100000)
    means = thirds.sum(axis=1) / thirds.shape[1]
    ses = [batch_se(t, 10) for t in thirds]
    worst = max(
        abs(means[i] - means[j]) / math.sqrt(ses[i] ** 2 + ses[j] ** 2)
        for i in range(3) for j in range(i + 1, 3)
    )
    out.append(_gate("mc_stationarity_thirds", worst, 5.0, "mean drift across thirds, units of SE"))

    gamma = acvf_renewal(pgf, M, 10)
    ghat = sample_acvf(y, 10)
    batch_acvf = np.array([sample_acvf(batch, 10) for batch in _batches(y)])
    se_h = batch_acvf.std(axis=0, ddof=1) / math.sqrt(N_BATCHES)
    worst = max(abs(ghat[h] - gamma[h]) / (5 * se_h[h]) for h in range(11))
    out.append(_gate("mc_acvf", worst, 1.0, "max_h |acvf_hat - acvf| / (5*SE)"))

    out.append(_chi_square_gate(pgf, M, series))

    if spec.p == 2:
        out += _markov_gates(spec, M, seed, y)
    return out


def _chi_square_gate(pgf: RationalPGF, M: int, series) -> GateResult:
    """Pearson's chi-square test of the thinned counts against Binomial(M, 1/mu).

    Bins are merged from the low end until each expects at least 5 counts,
    the expectations are rescaled to the observed total, and the p-value is
    ``chi2_sf`` of the statistic on (bins - 1) degrees of freedom.  A single
    merged bin leaves no degree of freedom: the p-value is NaN and the gate
    fails.
    """
    # Pearson's test needs (nearly) independent draws; thin by the lag at
    # which the theoretical autocovariance has decayed away.
    gamma = acvf_renewal(pgf, M, 256)
    below = np.nonzero(np.abs(gamma) < 1e-4 * gamma[0])[0]
    stride = int(below[0]) if below.size else 256
    y = series.values[:: max(stride, 1)]
    probs = binom_pmf(M, 1.0 / pgf.mean())
    # tallied a block at a time: bincount copies its input to intp, which on
    # the whole series would be a copy eight times the size of narrow counts
    tally = np.zeros(M + 1, dtype=np.intp)
    for lo in range(0, len(y), BLOCK):
        tally += np.bincount(y[lo : lo + BLOCK], minlength=M + 1)
    observed = tally.astype(float)
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
    statistic = float(np.sum((np.array(obs_m) - exp_arr) ** 2 / exp_arr))
    pvalue = chi2_sf(statistic, len(obs_m) - 1)
    return _gate("mc_binomial_marginal", pvalue, 0.001,
                 f"chi-square p-value (thinned every {stride} steps)", larger_is_better=True)


def binom_pmf(M: int, p: float) -> np.ndarray:
    """P(Y = k) for k = 0..M, Y ~ Binomial(M, p) with 0 < p < 1, in O(M).

    The terms are found relative to the mode m = floor((M + 1) p), the
    largest: from 1 at m, the ratio P(k + 1)/P(k) = (M - k) p / ((k + 1)(1 - p))
    runs outward in both directions, each step no larger than 1, so nothing
    overflows and the far tails underflow to 0.  The terms sum to 1/P(m), so
    dividing by their sum makes them the pmf; no comb(M, k) or power of p is
    formed.  A step rounds at most five times (1 - p and p / (1 - p) the
    same way in every step), so a term j steps from the mode is within
    5 j u relative of its exact ratio to the mode, u = 2**-53; the sum then
    errs by at most 5 (sd(Y) + 1) u, and the whole term by about
    (5 j + 5 sd(Y) + 8) u.
    """
    q = 1.0 - p
    m = min(int((M + 1) * p), M)
    k = np.arange(M + 1, dtype=float)
    terms = np.empty(M + 1)
    terms[m] = 1.0
    np.cumprod((M - k[m:M]) / (k[m:M] + 1.0) * (p / q), out=terms[m + 1 :])  # steps k -> k + 1
    terms[:m] = np.cumprod((k[m:0:-1] / (M + 1.0 - k[m:0:-1])) * (q / p))[::-1]  # steps k -> k - 1
    return terms / math.fsum(terms)


def chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X chi-square with an integer ``df`` >= 1 degrees of freedom; NaN for df < 1.

    Closed form in h = x / 2: e^{-h} sum_{i < df/2} h^i / i! for even df, and
    erfc(sqrt h) + e^{-h} sum_{i < (df-1)/2} h^{i+1/2} / Gamma(i + 3/2) for
    odd df.  The largest term is evaluated in logs, so that neither e^{-h}
    nor h^i leaves the float range, and the others follow from it by the
    term ratio h / (power + 1).
    """
    if df < 1:
        return math.nan
    if x <= 0.0:
        return 1.0
    h = x / 2.0
    a0 = (df % 2) / 2.0  # the powers of h are a0, a0 + 1, .. below df / 2
    n = df // 2
    tail = math.erfc(math.sqrt(h)) if df % 2 else 0.0
    if n == 0:
        return tail
    top = min(n - 1, int(h - a0))  # the terms rise while the power is below h - 1
    t = math.exp((a0 + top) * math.log(h) - h - math.lgamma(a0 + top + 1.0))
    terms = [t]
    for k in range(top + 1, n):
        terms.append(terms[-1] * h / (a0 + k))
    for k in range(top, 0, -1):
        t *= (a0 + k) / h
        terms.append(t)
    return tail + math.fsum(terms)


def _markov_gates(spec: LifetimeSpec, M: int, seed: int, y: np.ndarray) -> list[GateResult]:
    """The joint, conditional and moment gates of a two-term head; ``y`` is the
    superposed count series, read in place."""
    out = []
    # one long indicator chain on a stream index the superposition never uses
    bits = simulate_chain(spec, FULL_STEPS, chain_rng(seed, M))
    law = window_law(spec, 3)

    # window counts x_t + 2 x_{t-1} + 4 x_{t-2} of each batch of triples
    batch = (len(bits) - 2) // N_BATCHES
    counts = np.array([context_frequencies(bits[i * batch : (i + 1) * batch + 2], 2).ravel()
                       for i in range(N_BATCHES)])
    freqs = counts / batch
    worst = 0.0
    for code, target in enumerate(law):
        if target == 0.0:  # an impossible window: every batch must miss it
            if freqs[:, code].any():
                worst = math.inf
            continue
        column = freqs[:, code]
        if (column == column[0]).all():  # no spread to estimate from: the binomial SE of all the triples
            se = math.sqrt(target * (1.0 - target) / (N_BATCHES * batch))
        else:
            se = column.std(ddof=1) / math.sqrt(N_BATCHES)
        worst = max(worst, abs(column.mean() - target) / (3 * se))
    out.append(_gate("mc_joint_triples", worst, 1.0, "max cell error / (3*SE)"))

    # the batches hold every triple but the last few, so they sum to the whole tally
    tally = counts.sum(axis=0).reshape(-1, 2)
    if len(bits) - N_BATCHES * batch > 2:
        tally += context_frequencies(bits[N_BATCHES * batch :], 2)
    seen = tally.sum(axis=1)
    kept = seen >= MIN_CONTEXT_COUNT
    freq = tally[kept, 1] / seen[kept]
    hazard = context_hazards(spec, 2)[kept]
    se = np.sqrt(np.maximum(hazard * (1 - hazard), 1e-12) / seen[kept])  # the binomial SE at the target
    worst = np.max(np.abs(freq - hazard) / (3 * se), initial=0.0)
    out.append(_gate("mc_conditionals", worst, 1.0, "max context error / (3*SE)"))

    # the samples exp(s0 y_t + s1 y_{t-1} + s2 y_{t-2}), t = 2 .. n - 1, of all
    # three points, summed in that order a batch at a time: a batch of counts
    # is made float once, and each point's samples are formed in one buffer
    # reused by every batch.  The batch sums give the batch means, and with
    # the last few samples' sum the mean.
    points = ((0.1, 0.2, 0.3), (0.2, 0.0, 0.1), (-0.1, 0.1, -0.2))
    n = len(y) - 2
    size = n // N_BATCHES
    floats, part, term = np.empty(size + 2), np.empty(size), np.empty(size)
    sums = [[] for _ in points]
    for lo in range(0, n, size):
        k = min(size, n - lo)
        yb = floats[: k + 2]
        yb[:] = y[lo : lo + k + 2]
        for s, point_sums in zip(points, sums):
            np.multiply(yb[2:], s[0], out=part[:k])
            for shift, c in ((1, s[1]), (0, s[2])):
                part[:k] += np.multiply(yb[shift : shift + k], c, out=term[:k])
            point_sums.append(np.exp(part[:k], out=part[:k]).sum())
    worst = 0.0
    for s, point_sums in zip(points, sums):
        target = mgf_trivariate(law, M, *s)
        se = _means_se(np.array(point_sums[:N_BATCHES]) / size)
        worst = max(worst, abs(math.fsum(point_sums) / n - target) / (3 * se))
    out.append(_gate("mc_trivariate_mgf", worst, 1.0, "max MGF error / (3*SE) at three points"))
    return out


def verify_model(model, pgf: RationalPGF | None = None) -> list[GateResult]:
    """Gates for a deserialized model: causality, invertibility, consistency,
    and, given the lifetime's ``pgf``, the model ACVF against the renewal ACVF."""
    out = [_causal_gate(check_causal_invertible(model))]
    out.append(_gate("positive_constants", min(model.k, model.sigma2), 0.0,
                     "k and sigma2 must be positive", larger_is_better=True))
    out.append(_gate("sigma2_consistency", abs(model.sigma2 - model.k * model.M / model.mu),
                     1e-12 * max(abs(model.sigma2), 1.0), "sigma2 equals k*M/mu"))
    if pgf is not None:
        gamma = acvf_renewal(pgf, model.M, 50)
        try:
            gamma_model = arma_acvf(model, 50)
            err = float(np.max(np.abs(gamma_model - gamma)))
        except RenewalArmaError:
            err = math.inf
        out.append(_gate("acvf_identity", err, 1e-8 * max(1.0, gamma[0]), "model ACVF vs renewal ACVF"))
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
