"""Markov tables of the indicator chain.

The general capped-age chain is checked against renewal theory at p = 1..5,
and against the hand-derived closed forms of a two-term head, which are kept
here as oracles.
"""

import math

import numpy as np
import pytest

from conftest import dirichlet_specs
from renewal_arma import (
    SimConfig,
    acvf_renewal,
    conditional_probs_p2,
    joint_probs_p2,
    make_constant_hazard,
    simulate_counts,
)
from renewal_arma.errors import ValidationError
from renewal_arma.markov import (
    context_hazards,
    mgf_trivariate,
    step_pair_law,
    window_law,
    window_marginals,
)
from renewal_arma.renewal import renewal_probs
from renewal_arma.simulate import chain_rng, context_frequencies, simulate_chain


def joint_oracle_p2(spec):
    """Closed-form law of (X_t, X_{t-1}, X_{t-2}) for a two-term head, keyed as the CLI emits it."""
    f1, f2 = spec.head
    inv = 1.0 / spec.mean()
    cells = {
        "p1": inv * (1.0 - f1 - f2), "p3": inv * (1.0 - f1 - f2), "p13": inv * f2,
        "p12": inv * f1 * (1.0 - f1), "p23": inv * f1 * (1.0 - f1), "p123": inv * f1 * f1,
        "p2": inv * (1.0 - f1) ** 2,
    }
    cells["q"] = 1.0 - math.fsum(cells.values())
    return cells


def conditional_oracle_p2(spec):
    """Closed-form P(X_t = 1 | X_{t-1} = a, X_{t-2} = b), keyed ``p1gab``."""
    f1, f2 = spec.head
    return {"p1g00": 1.0 - spec.r, "p1g01": f2 / (1.0 - f1), "p1g10": f1, "p1g11": f1}


def mgf_oracle_p2(cells, M, s1, s2, s3):
    """The eight-term trivariate mixture raised to the M-th power."""
    e1, e2, e3 = math.exp(s1), math.exp(s2), math.exp(s3)
    base = (
        cells["q"] + cells["p1"] * e1 + cells["p2"] * e2 + cells["p3"] * e3
        + cells["p12"] * e1 * e2 + cells["p13"] * e1 * e3 + cells["p23"] * e2 * e3
        + cells["p123"] * e1 * e2 * e3
    )
    return base ** M


def p2_specs():
    finite = [make_constant_hazard(h, 0.0) for h in ((0.5, 0.5), (0.3, 0.2), (0.9, 0.05))]
    return ([make_constant_hazard([0.2, 0.3], 0.6)] + dirichlet_specs(5, ps=(2,), per_p=20)
            + dirichlet_specs(6, ps=(2,), per_p=20) + finite)


def chain_specs():
    """The conftest battery and Dirichlet heads at p = 1..5, a geometric and finite-support lifetimes."""
    return (dirichlet_specs(1234, ps=(1, 2, 3, 4, 5), per_p=10) + dirichlet_specs(2025, ps=(1, 2, 3, 4, 5), per_p=10)
            + [make_constant_hazard([], 0.5), make_constant_hazard([0.3, 0.3, 0.4], 0.0),
               make_constant_hazard([0.3, 0.0, 0.2], 0.0)])


class TestAgeChain:
    def test_window_law_is_a_law(self):
        for spec in chain_specs():
            for w in range(1, 8):
                law = window_law(spec, w)
                assert law.shape == (2 ** w,) and law.min() >= 0.0
                assert abs(math.fsum(law) - 1.0) < 1e-14, (spec, w)
                assert np.max(np.abs(window_marginals(law) - 1.0 / spec.mean())) < 1e-14, (spec, w)

    def test_pair_cells_are_renewal_probs(self):
        # P(X_t = 1, X_{t-h} = 1) = u_h / mu: a renewal at t - h, then one h steps later
        for spec in chain_specs():
            u = renewal_probs(spec.pgf(), 6)
            for h in range(1, 7):
                law = window_law(spec, h + 1)
                codes = np.arange(len(law))
                both = law[(codes & 1 == 1) & ((codes >> h) & 1 == 1)].sum()
                assert abs(both - u[h] / spec.mean()) < 1e-14, (spec, h)

    def test_conditionals_are_capped_age_hazards(self):
        for spec in chain_specs():
            for k in (spec.p, spec.p + 1):
                law = window_law(spec, k + 1)
                context = law[0::2] + law[1::2]
                seen = context > 0.0
                ratio = law[1::2][seen] / context[seen]
                assert np.max(np.abs(ratio - context_hazards(spec, k)[seen])) < 1e-14, (spec, k)

    def test_short_context_rejected(self):
        with pytest.raises(ValueError, match="capped age"):
            context_hazards(make_constant_hazard([0.2, 0.3, 0.1], 0.5), 2)

    def test_step_preserves_window_law(self):
        for spec in chain_specs():
            k = max(spec.p, 1)
            law = window_law(spec, k)
            assert np.max(np.abs(step_pair_law(law, context_hazards(spec, k)) - law)) < 1e-15


class TestJointProbs:
    def test_p123(self, p2_spec):
        table = joint_probs_p2(p2_spec)
        assert table["p123"] == pytest.approx(0.04 / 3.05)

    def test_symmetry(self, p2_spec):
        table = joint_probs_p2(p2_spec)
        assert table["p1"] == table["p3"]
        assert table["p12"] == table["p23"]

    def test_total_is_one(self, p2_spec):
        assert math.fsum(joint_probs_p2(p2_spec).values()) == pytest.approx(1.0, abs=1e-15)

    def test_marginals(self, p2_spec):
        for m in window_marginals(window_law(p2_spec, 3)):
            assert m == pytest.approx(1 / 3.05, abs=1e-12)

    def test_lag_one_pair_mass(self, p2_spec):
        # two renewals in a row require a lifetime of one
        table = joint_probs_p2(p2_spec)
        assert table["p12"] + table["p123"] == pytest.approx(0.2 / 3.05, abs=1e-15)

    def test_requires_two_term_head(self, geometric_spec):
        with pytest.raises(ValidationError):
            joint_probs_p2(geometric_spec)

    def test_matches_closed_form(self):
        for spec in p2_specs():
            table, oracle = joint_probs_p2(spec), joint_oracle_p2(spec)
            assert table.keys() == oracle.keys()
            assert max(abs(table[k] - oracle[k]) for k in oracle) < 1e-15, spec

    def test_empirical_triples(self, p2_spec):
        law = window_law(p2_spec, 3)
        bits = np.asarray(simulate_chain(p2_spec, 10 ** 6, chain_rng(60, 0)), dtype=np.int64)
        codes = bits[2:] + 2 * bits[1:-1] + 4 * bits[:-2]
        n = len(codes)
        n_batches = 30
        batch = n // n_batches
        freqs = np.array([
            np.bincount(codes[i * batch : (i + 1) * batch], minlength=8) / batch
            for i in range(n_batches)
        ])
        for code in range(8):
            est = freqs[:, code].mean()
            se = freqs[:, code].std(ddof=1) / math.sqrt(n_batches)
            assert abs(est - law[code]) <= 3 * se, code


class TestConditionalProbs:
    def test_values(self, p2_spec):
        cond = conditional_probs_p2(p2_spec)
        assert cond["p1g00"] == pytest.approx(0.4)
        assert cond["p1g01"] == pytest.approx(0.375)
        assert cond["p1g10"] == pytest.approx(0.2)
        assert cond["p1g11"] == pytest.approx(0.2)
        assert cond["p0g00"] == pytest.approx(0.6)

    def test_complements(self, p2_spec):
        cond = conditional_probs_p2(p2_spec)
        for ab in ("00", "01", "10", "11"):
            assert cond[f"p1g{ab}"] + cond[f"p0g{ab}"] == pytest.approx(1.0)

    def test_matches_closed_form_exactly(self):
        for spec in p2_specs():
            cond = conditional_probs_p2(spec)
            for key, want in conditional_oracle_p2(spec).items():
                assert cond[key] == want, (spec, key)
                assert cond["p0" + key[2:]] == 1.0 - want

    def test_consistency_with_joint(self, p2_spec):
        # P(1 | 0, 1) * P(X_{t-1}=0, X_{t-2}=1) recovers the joint cell p13
        cond = conditional_probs_p2(p2_spec)
        joint = joint_probs_p2(p2_spec)
        pair_01 = joint["p3"] + joint["p13"]
        assert cond["p1g01"] * pair_01 == pytest.approx(joint["p13"], abs=1e-15)

    def test_empirical(self, p2_spec):
        cond = conditional_probs_p2(p2_spec)
        bits = simulate_chain(p2_spec, 10 ** 6, chain_rng(61, 0))
        for c, (zeros, ones) in enumerate(context_frequencies(bits, 2)):
            a, b = c & 1, c >> 1  # context code x_{t-1} + 2 x_{t-2}
            want = cond[f"p1g{a}{b}"]
            se = math.sqrt(want * (1 - want) / (zeros + ones))
            assert abs(ones / (zeros + ones) - want) <= 3 * se, (a, b)

    def test_pair_law_fixed_point(self, p2_spec):
        pair = window_law(p2_spec, 3).reshape(4, 2).sum(axis=1)  # drop X_t
        stepped = step_pair_law(pair, context_hazards(p2_spec, 2))
        assert np.max(np.abs(stepped - pair)) < 1e-12


class TestMgfTrivariate:
    def test_origin(self, p2_spec):
        law = window_law(p2_spec, 3)
        assert mgf_trivariate(law, 5, 0.0, 0.0, 0.0) == pytest.approx(1.0)

    def test_matches_closed_form(self):
        for spec in p2_specs():
            law, oracle = window_law(spec, 3), joint_oracle_p2(spec)
            for s in ((0.1, 0.2, 0.3), (-0.1, 0.1, -0.2), (1.0, -2.0, 0.5)):
                want = mgf_oracle_p2(oracle, 5, *s)
                assert abs(mgf_trivariate(law, 5, *s) - want) < 1e-14 * want, (spec, s)

    def test_first_partial_is_mean(self, p2_spec):
        law = window_law(p2_spec, 3)
        h, M = 1e-5, 5
        deriv = (mgf_trivariate(law, M, h, 0, 0) - mgf_trivariate(law, M, -h, 0, 0)) / (2 * h)
        assert deriv == pytest.approx(M / 3.05, abs=1e-8)

    def test_mixed_partials_give_acvf(self, p2_spec):
        law = window_law(p2_spec, 3)
        M, h = 5, 1e-3
        gamma = acvf_renewal(p2_spec.pgf(), M, 2)
        mean = M / 3.05

        def mixed(i):
            def at(s1, s3):
                args = (s1, s3, 0.0) if i == 1 else (s1, 0.0, s3)
                return mgf_trivariate(law, M, *args)

            return (at(h, h) - at(h, -h) - at(-h, h) + at(-h, -h)) / (4 * h * h)

        assert mixed(1) - mean ** 2 == pytest.approx(gamma[1], abs=1e-4)
        assert mixed(2) - mean ** 2 == pytest.approx(gamma[2], abs=1e-4)

    def test_empirical_mixed_value(self, p2_spec):
        M, s = 5, (0.1, 0.2, 0.3)
        want = mgf_trivariate(window_law(p2_spec, 3), M, *s)
        series = simulate_counts(SimConfig(spec=p2_spec, M=M, steps=10 ** 6, seed=62))
        y = series.values.astype(float)
        samples = np.exp(s[0] * y[2:] + s[1] * y[1:-1] + s[2] * y[:-2])
        n_batches = 30
        batch = len(samples) // n_batches
        means = np.array([samples[i * batch : (i + 1) * batch].mean() for i in range(n_batches)])
        se = means.std(ddof=1) / math.sqrt(n_batches)
        assert abs(samples.mean() - want) <= 3 * se


def max_context_z(bits, spec, order):
    """Largest |frequency - exact hazard| over the contexts of ``order`` bits, in units of its SE."""
    tally = context_frequencies(bits, order)
    seen = tally.sum(axis=1)
    hazards = context_hazards(spec, order)
    return np.max(np.abs(tally[:, 1] / seen - hazards) / np.sqrt(hazards * (1 - hazards) / seen))


@pytest.fixture(scope="class")
def p2_long_bits():
    return simulate_chain(make_constant_hazard([0.2, 0.3], 0.6), 10 ** 7, chain_rng(64, 0))


class TestMarkovOrderTest:
    """The chain is Markov of order p: over contexts longer than p the counted
    conditional frequencies match the exact capped-age hazards."""

    def test_iid_bits_have_order_zero(self, geometric_spec):
        bits = simulate_chain(geometric_spec, 10 ** 6, chain_rng(63, 0))
        for order in (1, 2, 3):
            assert max_context_z(bits, geometric_spec, order) < 4.0, order

    def test_p2_chain_is_second_order(self, p2_spec, p2_long_bits):
        assert max_context_z(p2_long_bits, p2_spec, 3) < 4.0

    def test_p2_chain_is_not_first_order(self, p2_spec, p2_long_bits):
        # after x_{t-1} = 0 the second lag still matters: P(1 | 0, 0) = 1 - r = 0.4
        # but P(1 | 0, 1) = f2 / (1 - f1) = 0.375, which 1e7 bits tell apart
        hazards = context_hazards(p2_spec, 2)
        assert hazards[[0, 2]].tolist() == pytest.approx([0.4, 0.375])
        tally = context_frequencies(p2_long_bits, 2)[[0, 2]]
        seen = tally.sum(axis=1)
        freq = tally[:, 1] / seen
        se = np.sqrt(hazards[[0, 2]] * (1 - hazards[[0, 2]]) / seen)
        assert np.all(np.abs(freq - hazards[[0, 2]]) < 4.0 * se)
        assert abs(freq[0] - freq[1]) > 10.0 * math.hypot(*se)

    def test_rejects_bad_order(self):
        # an order as long as the sequence leaves no time to count
        with pytest.raises(ValueError, match="too short"):
            context_frequencies(np.zeros(100, dtype=int), 100)


def test_power_of_order_test_oracle(p2_spec):
    # analytic power check before trusting the 1e7-bit gate: the blended
    # P(1 | x_{t-1}=0) sits between the two second-order conditionals
    cond = conditional_probs_p2(p2_spec)
    pair = window_law(p2_spec, 2)  # law of (X_{t-1}, X_{t-2}), coded x_{t-1} + 2 x_{t-2}
    blend = (pair[0] * cond["p1g00"] + pair[2] * cond["p1g01"]) / (pair[0] + pair[2])
    assert blend == pytest.approx(0.39024, abs=1e-5)
    n_01 = 10 ** 7 * pair[2]
    n_0 = 10 ** 7 * (pair[0] + pair[2])
    se = math.sqrt(blend * (1 - blend) * (1 / n_01 - 1 / n_0))
    assert abs(cond["p1g01"] - blend) / se > 10.0
