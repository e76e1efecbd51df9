import hashlib
import math

import numpy as np
import pytest

from renewal_arma import (
    SimConfig,
    acvf_renewal,
    chain_rng,
    context_frequencies,
    make_constant_hazard,
    sample_acvf,
    simulate_chain,
    simulate_counts,
)
from renewal_arma.simulate import sample_equilibrium_delays, sample_lifetimes


def se_of_mean(x):
    return x.std(ddof=1) / math.sqrt(len(x))


class TestSampleLifetime:
    def test_scalar_draw_positive(self, p2_spec):
        rng = chain_rng(1, 0)
        for _ in range(100):
            assert sample_lifetimes(p2_spec, 1, rng)[0] >= 1

    def test_moment_gate(self, geometric_spec):
        draws = sample_lifetimes(geometric_spec, 10 ** 6, chain_rng(2, 0)).astype(float)
        assert abs(draws.mean() - 2.0) <= 3 * se_of_mean(draws)

    def test_pmf_gate(self, p2_spec):
        n = 10 ** 6
        draws = sample_lifetimes(p2_spec, n, chain_rng(3, 0))
        for value in range(1, 11):
            want = p2_spec.pmf(value)
            got = float(np.mean(draws == value))
            se = math.sqrt(want * (1 - want) / n)
            assert abs(got - want) <= 3 * se, value

    def test_finite_support_bound(self):
        spec = make_constant_hazard([0.3, 0.3], 0.0)
        draws = sample_lifetimes(spec, 10 ** 5, chain_rng(4, 0))
        assert draws.max() <= 3
        assert draws.min() >= 1


class TestEquilibriumDelay:
    def test_geometric_delay_law(self, geometric_spec):
        # b is geometric on {0, 1, ...} with rate 1/2, so the mean is 1
        draws = sample_equilibrium_delays(geometric_spec, 10 ** 6, chain_rng(5, 0)).astype(float)
        assert abs(draws.mean() - 1.0) <= 3 * se_of_mean(draws)

    def test_mass_at_zero(self, p2_spec):
        n = 10 ** 6
        draws = sample_equilibrium_delays(p2_spec, n, chain_rng(6, 0))
        want = 1 / 3.05
        se = math.sqrt(want * (1 - want) / n)
        assert abs(np.mean(draws == 0) - want) <= 3 * se

    def test_tail_ratio(self, p2_spec):
        draws = sample_equilibrium_delays(p2_spec, 10 ** 6, chain_rng(7, 0))
        counts = np.bincount(draws)
        ratios = [counts[n + 1] / counts[n] for n in range(3, 7)]
        for ratio in ratios:
            assert ratio == pytest.approx(0.6, abs=0.02)

    def test_finite_support(self):
        spec = make_constant_hazard([0.9], 0.0)
        draws = sample_equilibrium_delays(spec, 10 ** 5, chain_rng(8, 0))
        assert draws.max() <= 1

    def test_single_draw(self, p2_spec):
        assert sample_equilibrium_delays(p2_spec, 1, chain_rng(9, 0))[0] >= 0


class TestSimulateChain:
    def test_marginal_rate(self, p2_spec):
        bits = simulate_chain(p2_spec, 10 ** 6, chain_rng(10, 0)).astype(float)
        se = se_of_mean(bits)
        assert abs(bits.mean() - 1 / 3.05) <= 3 * se

    def test_memoryless_bits_uncorrelated(self, geometric_spec):
        bits = simulate_chain(geometric_spec, 10 ** 6, chain_rng(11, 0)).astype(float)
        g = sample_acvf(bits, 1)
        # SE of the lag-1 autocovariance of iid Bernoulli(1/2) bits
        se = math.sqrt(1.0 / 16.0 / len(bits))
        assert abs(g[1]) <= 3 * se

    def test_conditional_renewal_rate(self, p2_spec):
        bits = simulate_chain(p2_spec, 10 ** 6, chain_rng(12, 0))
        table = context_frequencies(bits, 2)
        stats = table[(0, 0)]
        se = math.sqrt(stats.freq * (1 - stats.freq) / stats.count)
        assert abs(stats.freq - 0.4) <= 3 * se  # 1 - r

    def test_short_series(self, p2_spec):
        bits = simulate_chain(p2_spec, 3, chain_rng(13, 0))
        assert len(bits) == 3
        assert set(np.unique(bits)) <= {0, 1}


class TestSimulateCounts:
    def test_mean_gate(self, p2_spec):
        series = simulate_counts(SimConfig(spec=p2_spec, M=5, steps=10 ** 6, seed=99))
        y = series.values.astype(float)
        assert abs(y.mean() - 5 / 3.05) <= 3 * se_of_mean(y)

    def test_determinism(self, p2_spec):
        config = SimConfig(spec=p2_spec, M=4, steps=20000, seed=7)
        a = simulate_counts(config)
        b = simulate_counts(config)
        assert np.array_equal(a.values, b.values)

    def test_output_pinned(self, p2_spec):
        # any change to the streams, the delay or lifetime draws, or the
        # superposition changes these bytes
        series = simulate_counts(SimConfig(spec=p2_spec, M=5, steps=10 ** 4, seed=7))
        digest = hashlib.sha256(series.values.astype("<i8").tobytes()).hexdigest()
        assert digest == "6990931c0a31b8a8ce9514ae54e99386fa192a8cd257e891b0db7f902f2a3d27"

    def test_thread_count_does_not_change_output(self, p2_spec):
        config = SimConfig(spec=p2_spec, M=4, steps=20000, seed=7)
        a = simulate_counts(config, threads=1)
        b = simulate_counts(config, threads=4)
        assert np.array_equal(a.values, b.values)

    def test_single_chain_is_bits(self, p2_spec):
        config = SimConfig(spec=p2_spec, M=1, steps=5000, seed=3)
        series = simulate_counts(config)
        bits = simulate_chain(p2_spec, 5000, chain_rng(3, 0))
        assert np.array_equal(series.values, bits)

    def test_values_bounded_by_M(self, p2_spec):
        series = simulate_counts(SimConfig(spec=p2_spec, M=3, steps=50000, seed=1))
        assert series.values.min() >= 0
        assert series.values.max() <= 3

    def test_config_validation(self, p2_spec):
        with pytest.raises(ValueError):
            SimConfig(spec=p2_spec, M=0, steps=10, seed=0)
        with pytest.raises(ValueError):
            SimConfig(spec=p2_spec, M=1, steps=0, seed=0)
        with pytest.raises(ValueError):
            SimConfig(spec=p2_spec, M=1, steps=10, seed=-1)


class TestSampleAcvf:
    def test_constant_series_is_zero(self, p2_spec):
        series = np.full(1000, 3.0)
        assert np.allclose(sample_acvf(series, 5), 0.0)

    def test_iid_binomial_variance(self, geometric_spec):
        series = simulate_counts(SimConfig(spec=geometric_spec, M=4, steps=10 ** 6, seed=21))
        g = sample_acvf(series, 0)
        y = series.values.astype(float)
        sq = (y - y.mean()) ** 2
        assert abs(g[0] - 1.0) <= 3 * se_of_mean(sq)

    def test_matches_theory_p2(self, p2_spec):
        series = simulate_counts(SimConfig(spec=p2_spec, M=5, steps=10 ** 6, seed=22))
        g = sample_acvf(series, 1)
        gamma = acvf_renewal(p2_spec, 5, 1)
        assert g[1] < 0
        y = series.values.astype(float)
        batches = np.array([sample_acvf(chunk, 1)[1] for chunk in np.split(y, 25)])
        se = batches.std(ddof=1) / math.sqrt(len(batches))
        assert abs(g[1] - gamma[1]) <= 5 * se

    def test_hmax_bound(self, p2_spec):
        with pytest.raises(ValueError):
            sample_acvf(np.zeros(10), 10)


class TestEmpiricalConditionals:
    def test_iid_bits_flat(self, geometric_spec):
        bits = simulate_chain(geometric_spec, 400000, chain_rng(30, 0))
        table = context_frequencies(bits, 2)
        freqs = [s.freq for s in table.values() if not s.sparse]
        assert max(freqs) - min(freqs) < 0.01

    def test_counts_sum(self, p2_spec):
        bits = simulate_chain(p2_spec, 100000, chain_rng(31, 0))
        table = context_frequencies(bits, 3)
        assert sum(s.count for s in table.values()) == len(bits) - 3

    def test_sparse_flag(self, p2_spec):
        bits = simulate_chain(p2_spec, 2000, chain_rng(32, 0))
        table = context_frequencies(bits, 3, min_count=10 ** 6)
        assert all(s.sparse for s in table.values())


def test_stream_independence(p2_spec):
    a = simulate_chain(p2_spec, 10000, chain_rng(50, 0))
    b = simulate_chain(p2_spec, 10000, chain_rng(50, 1))
    assert not np.array_equal(a, b)
