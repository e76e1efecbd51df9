import hashlib
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from renewal_arma import SimConfig, acvf_renewal, make_constant_hazard, sample_acvf, simulate, simulate_counts
from renewal_arma.simulate import (
    _MAPPED_BYTES,
    ChainLaws,
    _chain_keys,
    _chain_rngs,
    _uniforms,
    chain_rng,
    context_frequencies,
    delay_law,
    lifetime_law,
    sample_lifetimes,
    series_zeros,
    simulate_chain,
)
from renewal_arma.errors import RenewalArmaError
from renewal_arma.verify import MC_SEED

from conftest import dirichlet_specs


def se_of_mean(x):
    return x.std(ddof=1) / math.sqrt(len(x))


class TestSampleLifetime:
    def test_scalar_draw_positive(self, p2_spec):
        rng = chain_rng(1, 0)
        for _ in range(100):
            assert sample_lifetimes(lifetime_law(p2_spec), 1, rng)[0] >= 1

    def test_moment_gate(self, geometric_spec):
        draws = sample_lifetimes(lifetime_law(geometric_spec), 10 ** 6, chain_rng(2, 0)).astype(float)
        assert abs(draws.mean() - 2.0) <= 3 * se_of_mean(draws)

    def test_pmf_gate(self, p2_spec):
        n = 10 ** 6
        draws = sample_lifetimes(lifetime_law(p2_spec), n, chain_rng(3, 0))
        for value, want in enumerate(p2_spec.pmfs(10), start=1):
            got = float(np.mean(draws == value))
            se = math.sqrt(want * (1 - want) / n)
            assert abs(got - want) <= 3 * se, value

    def test_finite_support_bound(self):
        spec = make_constant_hazard([0.3, 0.3], 0.0)
        draws = sample_lifetimes(lifetime_law(spec), 10 ** 5, chain_rng(4, 0))
        assert draws.max() <= 3
        assert draws.min() >= 1


class TestEquilibriumDelay:
    def test_geometric_delay_law(self, geometric_spec):
        # b is geometric on {0, 1, ...} with rate 1/2, so the mean is 1
        draws = delay_law(geometric_spec).map(chain_rng(5, 0).random(10 ** 6)).astype(float)
        assert abs(draws.mean() - 1.0) <= 3 * se_of_mean(draws)

    def test_mass_at_zero(self, p2_spec):
        n = 10 ** 6
        draws = delay_law(p2_spec).map(chain_rng(6, 0).random(n))
        want = 1 / 3.05
        se = math.sqrt(want * (1 - want) / n)
        assert abs(np.mean(draws == 0) - want) <= 3 * se

    def test_tail_ratio(self, p2_spec):
        draws = delay_law(p2_spec).map(chain_rng(7, 0).random(10 ** 6))
        counts = np.bincount(draws)
        ratios = [counts[n + 1] / counts[n] for n in range(3, 7)]
        for ratio in ratios:
            assert ratio == pytest.approx(0.6, abs=0.02)

    def test_finite_support(self):
        spec = make_constant_hazard([0.9], 0.0)
        draws = delay_law(spec).map(chain_rng(8, 0).random(10 ** 5))
        assert draws.max() <= 1

    def test_single_draw(self, p2_spec):
        assert delay_law(p2_spec).map(chain_rng(9, 0).random(1))[0] >= 0


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
        zeros, ones = context_frequencies(bits, 2)[0]  # context 0: x_{t-1} = x_{t-2} = 0
        freq = ones / (zeros + ones)
        se = math.sqrt(freq * (1 - freq) / (zeros + ones))
        assert abs(freq - 0.4) <= 3 * se  # 1 - r

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

    @pytest.mark.parametrize("head, r, digest", [
        ((0.1, 0.2, 0.3), 0.5, "2bc7ba44f3d68b9529ec185f25ad51b18eae6dc1840076289fcfad4198fb130a"),
        ((0.5, 0.5), 0.0, "5e72558cdd9acb7e9110addecb7f2699f27d73eb1385d1b99ff14e46fcf33f94"),
    ])
    def test_output_pinned_wide(self, head, r, digest):
        # a p = 3 head and a finite-support head, at many chains
        spec = make_constant_hazard(head, r)
        series = simulate_counts(SimConfig(spec=spec, M=300, steps=2000, seed=11))
        assert hashlib.sha256(series.values.astype("<i8").tobytes()).hexdigest() == digest

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

    def test_counts_in_narrowest_unsigned_type(self):
        # the counts are held in np.min_scalar_type(M), on both sides of the
        # uint8 and uint16 limits; f_1 = 0.999 renews nearly every chain at
        # every step, so the counts come near M.  The reference counts at each
        # M are those of ref_simulate_counts, the sum of the first M reference
        # chains, added up in one pass over the chains.
        spec, steps, seed = make_constant_hazard([0.999], 0.0), 5, 21
        want, chains = np.zeros(steps, dtype=np.int64), 0
        for M, dtype in ((1, np.uint8), (255, np.uint8), (256, np.uint16),
                         (65535, np.uint16), (65536, np.uint32)):
            for chain in range(chains, M):
                want += ref_simulate_chain(spec, steps, chain_rng(seed, chain))
            chains = M
            values = simulate_counts(SimConfig(spec=spec, M=M, steps=steps, seed=seed)).values
            assert values.dtype == np.min_scalar_type(M) == dtype
            assert np.array_equal(values, want), M

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
        # chain indices up to 2**32 - 1 fit one spawn-key word; the config is
        # only built here, never simulated
        assert SimConfig(spec=p2_spec, M=2 ** 32, steps=10, seed=0).M == 2 ** 32
        with pytest.raises(ValueError):
            SimConfig(spec=p2_spec, M=2 ** 32 + 1, steps=10, seed=0)


class TestSeriesZeros:
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64])
    @pytest.mark.parametrize("extra", [-1, 0])
    def test_zeros_either_side_of_map_size(self, dtype, extra):
        n = _MAPPED_BYTES // np.dtype(dtype).itemsize + extra
        a = series_zeros(n, dtype)
        assert a.dtype == dtype and a.shape == (n,) and a.flags.writeable
        assert not a.any()
        a[::7] = 1
        assert a.sum() == len(range(0, n, 7))

    def test_view_outlives_array(self):
        # a mapped array's pages stay until its last view is gone
        a = series_zeros(_MAPPED_BYTES, np.int64)
        tail = a[-10:]
        del a
        tail += 3
        assert tail.tolist() == [3] * 10


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
        gamma = acvf_renewal(p2_spec.pgf(), 5, 1)
        assert g[1] < 0
        y = series.values.astype(float)
        batches = np.array([sample_acvf(chunk, 1)[1] for chunk in np.split(y, 25)])
        se = batches.std(ddof=1) / math.sqrt(len(batches))
        assert abs(g[1] - gamma[1]) <= 5 * se

    def test_hmax_bound(self, p2_spec):
        with pytest.raises(ValueError):
            sample_acvf(np.zeros(10), 10)

    @pytest.mark.parametrize("block, n, hmax, top", [
        (None, 3 * simulate.BLOCK + 5, 20, 5), (None, simulate.BLOCK - 3, 3, 2 ** 20),
        (1, 50, 20, 5), (7, 300, 20, 5), (64, 200, 0, 9), (1000, 3500, 10, 1), (5, 4, 3, 5),
    ])
    def test_within_exact_bound(self, monkeypatch, block, n, hmax, top):
        # integer series against the exact autocovariance: with S the sum,
        # n y_t - S are integers, and (1/n) sum (y_t - S/n)(y_{t-h} - S/n) is
        # sum (n y_t - S)(n y_{t-h} - S) / n**3, a Fraction of integer dots.
        # The computed mean is S/n within u, each centred value within
        # 2u w_t, w_t = |y_t - S/n| + S/n, and the products' sum within
        # gamma_n of its absolute sum: all within gamma_{n+8} sum w_t w_{t-h} / n.
        # Blocks set smaller move only that rounding; one below hmax (7 < 20)
        # carries the overlap through several blocks.
        if block is not None:
            monkeypatch.setattr(simulate, "BLOCK", block)
        y = np.random.default_rng([n, hmax, top]).integers(0, top + 1, size=n)
        got = sample_acvf(y, hmax)
        total = int(y.sum())
        d = (n * y - total).astype(object)  # Python ints: the dots below are exact
        w = np.abs(y - total / n) + total / n
        u = 2.0 ** -53
        gamma = (n + 8) * u / (1 - (n + 8) * u)
        for h in range(hmax + 1):
            exact = Fraction(int(np.dot(d[h:], d[: n - h])), n ** 3)
            bound = gamma * float(np.dot(w[h:], w[: n - h])) / n * (1 + 1e-12)
            assert abs(Fraction(float(got[h])) - exact) <= Fraction(bound), h

    @pytest.mark.parametrize("block", [None, 1, 7, 64])
    def test_integer_and_float_input_agree(self, monkeypatch, block):
        # the integer sum is exact and so is the pairwise float sum of integer
        # values: the mean, each centred value and every product are the same
        if block is not None:
            monkeypatch.setattr(simulate, "BLOCK", block)
        y = np.random.default_rng(3).integers(0, 6, size=2 * 10 ** 3 + 1)
        want = sample_acvf(y.astype(float), 12)
        assert np.array_equal(sample_acvf(y, 12), want)
        assert np.array_equal(sample_acvf(y.astype(np.uint8), 12), want)
        assert np.array_equal(sample_acvf(y.tolist(), 12), want)


class TestEmpiricalConditionals:
    def test_iid_bits_flat(self, geometric_spec):
        bits = simulate_chain(geometric_spec, 400000, chain_rng(30, 0))
        tally = context_frequencies(bits, 2)
        freqs = tally[:, 1] / tally.sum(axis=1)
        assert freqs.max() - freqs.min() < 0.01

    def test_counts_sum(self, p2_spec):
        bits = simulate_chain(p2_spec, 100000, chain_rng(31, 0))
        assert context_frequencies(bits, 3).sum() == len(bits) - 3

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("start", [None, 5])
    def test_matches_brute_force(self, p2_spec, order, start):
        # with ``start`` the counted times begin at t = start of the whole chain
        bits = simulate_chain(p2_spec, 3000, chain_rng(33, 0))
        if start is not None:
            bits = bits[start - order :]
        times = range(order, len(bits))
        pairs = Counter((sum(int(bits[t - j]) << (j - 1) for j in range(1, order + 1)), int(bits[t]))
                        for t in times)
        windows = Counter(sum(int(bits[t - j]) << j for j in range(order + 1)) for t in times)
        tally = context_frequencies(bits, order)
        assert tally.tolist() == [[pairs[c, 0], pairs[c, 1]] for c in range(2 ** order)]
        assert tally.ravel().tolist() == [windows[w] for w in range(2 ** (order + 1))]
        assert np.array_equal(context_frequencies(bits.astype(float), order), tally)

    @pytest.mark.parametrize("block", [None, 1, 7, 1000])
    @pytest.mark.parametrize("order", range(10))
    def test_matches_tally_across_code_types(self, monkeypatch, order, block):
        # orders 0-7 build uint8 codes, 8 and 9 uint16; small blocks carry the
        # order-bit overlap across many block boundaries
        bits = (np.random.default_rng(order).random(2500) < 0.3).astype(np.uint8)
        windows = Counter(sum(int(bits[t - j]) << j for j in range(order + 1)) for t in range(order, len(bits)))
        want = [windows[w] for w in range(2 ** (order + 1))]
        if block is not None:
            monkeypatch.setattr(simulate, "BLOCK", block)
        for x in (bits, bits.astype(float), bits.astype(np.int64)):
            tally = context_frequencies(x, order)
            assert tally.shape == (2 ** order, 2)
            assert tally.ravel().tolist() == want


def test_stream_independence(p2_spec):
    a = simulate_chain(p2_spec, 10000, chain_rng(50, 0))
    b = simulate_chain(p2_spec, 10000, chain_rng(50, 1))
    assert not np.array_equal(a, b)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 64 - 1), st.integers(0, 10 ** 6), st.integers(0, 300), st.integers(0, 300))
def test_stream_splits_freely(seed, chain, a, b):
    # the draws may take the uniforms in any batch sizes: the stream is the same
    whole = chain_rng(seed, chain).random(a + b)
    rng = chain_rng(seed, chain)
    assert np.array_equal(np.concatenate([rng.random(a), rng.random(b)]), whole)
    # a scalar draw takes the next uniform, as a batch of one does
    rng = chain_rng(seed, chain)
    assert np.array_equal(np.concatenate([[rng.random()], rng.random(b)]), chain_rng(seed, chain).random(b + 1))
    # the uniforms are the Philox words' top 53 bits: words and uniforms are one stream
    words = chain_rng(seed, chain).bit_generator.random_raw(a + b)
    assert np.array_equal((words >> np.uint64(11)) * 2.0 ** -53, whole)
    assert np.array_equal(_uniforms(words), whole)
    # the re-keyed pool reads each chain's words, as chain_rng does
    for c, rng in enumerate(_chain_rngs(seed, 3, 2)):
        assert np.array_equal(rng.bit_generator.random_raw(a + b), chain_rng(seed, c).bit_generator.random_raw(a + b))


# The searchsorted kernel that the comparison-sum kernel replaced, kept as the
# reference: the draws and every simulated bit must stay integer-identical.

def ref_sample_head_tail(head, r, n, rng, finite):
    u = rng.random(n)
    cdf = np.cumsum(head)
    out = np.searchsorted(cdf, u, side="right").astype(np.int64)
    if finite:
        return np.minimum(out, len(cdf) - 1)
    in_tail = out == len(cdf)
    if r > 0.0 and in_tail.any():
        residual = (1.0 - u[in_tail]) / (1.0 - (cdf[-1] if len(cdf) else 0.0))
        out[in_tail] += np.floor(np.log(residual) / math.log(r)).astype(np.int64)
    return out


def ref_sample_lifetimes(spec, n, rng):
    return ref_sample_head_tail(spec.head, spec.r, n, rng, spec.tail_first == 0.0) + 1


def ref_sample_delays(spec, n, rng):
    mu = spec.mean()
    b_head = spec.survivals(spec.p) / mu
    return ref_sample_head_tail(b_head, spec.r, n, rng, spec.r == 0.0)


def ref_simulate_chain(spec, steps, rng):
    bits = np.zeros(steps, dtype=np.uint8)
    t = int(ref_sample_delays(spec, 1, rng)[0])
    if t >= steps:
        return bits
    bits[t] = 1
    mu = spec.mean()
    cur = t
    while True:
        batch = max(16, int(1.2 * (steps - cur) / mu) + 16)
        epochs = cur + np.cumsum(ref_sample_lifetimes(spec, batch, rng))
        bits[epochs[epochs < steps]] = 1
        if epochs[-1] >= steps:
            return bits
        cur = int(epochs[-1])


def ref_simulate_counts(config):
    values = np.zeros(config.steps, dtype=np.int64)
    for i in range(config.M):
        values += ref_simulate_chain(config.spec, config.steps, chain_rng(config.seed, i))
    return values


class Uniforms:
    """A stand-in generator that hands out given uniforms in order."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)
        self.at = 0

    def random(self, n=None):
        k = 1 if n is None else n
        out = self.u[self.at : self.at + k]
        self.at += k
        return out.copy() if n is not None else float(out[0])


@st.composite
def lifetime_specs(draw):
    p = draw(st.integers(0, 5))
    if p > 1 and draw(st.booleans()):
        # finite support: dyadic heads sum to exactly 1, so no lifetime passes p
        cuts = sorted(draw(st.lists(st.integers(1, 63), min_size=p - 1, max_size=p - 1)))
        head, r = np.diff([0, *cuts, 64]) / 64.0, 0.0
    else:
        r = draw(st.sampled_from([0.0, 0.99]) | st.floats(0.01, 0.99))
        w = draw(st.lists(st.floats(0.0, 1.0), min_size=p, max_size=p))
        mass, total = draw(st.floats(0.05, 0.95)), math.fsum(w)
        head = [f * mass / total for f in w] if total > 0 else w
    try:
        return make_constant_hazard(head, r, allow_zero_f1=True)
    except RenewalArmaError:
        assume(False)


def edge_uniforms(spec):
    """Every head cdf entry, its neighbours, 0 and the largest uniforms below 1."""
    mu = spec.mean()
    cdfs = np.concatenate([np.cumsum(spec.head),
                           np.cumsum(spec.survivals(spec.p) / mu)])
    below_one = [np.nextafter(1.0, 0.0), 1.0 - 2.0 ** -52, 1.0 - 1e-12]
    near = [np.nextafter(cdfs, 0.0), cdfs, np.nextafter(cdfs, 1.0)]
    u = np.concatenate([[0.0], below_one, *near])
    return u[(u >= 0.0) & (u < 1.0)]


def bucket_words():
    """Each guide bucket's first and last word and their neighbours."""
    shift = 64 - simulate._GUIDE_BITS
    first = np.arange(2 ** simulate._GUIDE_BITS, dtype=np.uint64) << np.uint64(shift)
    last = first | np.uint64(2 ** shift - 1)
    return np.concatenate([first, first + np.uint64(1), last - np.uint64(1), last])


def words_near(edges):
    """The lowest and highest word of the first uniform at or above each edge
    in [0, 1), and of its neighbours."""
    # the first uniform at or above each edge, as a 53-bit grid index
    grid = np.ceil(edges * 2.0 ** 53)
    grid = grid[(grid >= 0) & (grid < 2.0 ** 53)].astype(np.uint64)
    near = np.concatenate([grid - np.uint64(1), grid, grid + np.uint64(1)])
    near = near[near < np.uint64(2 ** 53)] << np.uint64(11)
    return np.concatenate([near, near | np.uint64(2 ** 11 - 1)])


def edge_words(spec):
    """Words at every edge of the guide tables: each bucket's first and last
    word and their neighbours, the words of every head cdf entry and of every
    integer crossing of the tail quotient, with their neighbours, and the
    largest words below 2**64."""
    mu = spec.mean()
    edges = [np.cumsum(spec.head), np.cumsum(spec.survivals(spec.p) / mu)]
    for law in (lifetime_law(spec), delay_law(spec)):
        if law.tail:  # 1 - u = tail * r**n for n = 0, 1, ... down to the smallest uniform gap
            n = np.arange(min(4000, int(40.0 / -law.log_r) + 2))
            edges.append(1.0 - law.tail * np.exp(n * law.log_r))
    top = np.uint64(2 ** 64 - 1) - np.arange(4, dtype=np.uint64)
    return np.concatenate([bucket_words(), words_near(np.concatenate(edges)), top, top - np.uint64(2 ** 11)])


def guided(law, words):
    """The draws of ``words`` through ``law``'s guide table, as the kernel makes them."""
    out, index = np.empty(len(words), dtype=np.int64), np.empty(len(words), dtype=np.intp)
    law.draw_words(words, index, out)
    return out


@settings(max_examples=300, deadline=None)
@given(lifetime_specs(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50),
       st.lists(st.integers(0, 2 ** 64 - 1), max_size=50))
@example(make_constant_hazard([0.2, 0.3], 0.99), [0.5], [])
@example(make_constant_hazard([0.5, 0.5], 0.0), [0.5], [])
@example(make_constant_hazard([0.3, 0.3], 0.0), [0.3, 0.6, 0.9], [])
@example(make_constant_hazard([], 0.5), [0.0, 0.25], [])
# the head cdf rounds to 1 although the tail mass is positive
@example(make_constant_hazard([0.19274764576070666, 0.19518600551152443, 0.09328377367501196,
                               0.06510711578676671, 0.4536754592659901], 0.5), [0.999], [])
# the tail quotient moves by more than 1 across every bucket near u = 1, so all of them are mixed
@example(make_constant_hazard([0.2, 0.3], 0.9999), [0.5], [2 ** 64 - 2 ** 52])
def test_draws_match_reference(spec, extra, extra_words):
    u = np.concatenate([edge_uniforms(spec), extra])
    n = len(u)
    assert np.array_equal(lifetime_law(spec).map(u), ref_sample_lifetimes(spec, n, Uniforms(u)))
    assert np.array_equal(delay_law(spec).map(u), ref_sample_delays(spec, n, Uniforms(u)))
    # the guide tables give the map's draw of every word, at every edge
    words = np.concatenate([edge_words(spec), np.array(extra_words, dtype=np.uint64)])
    u = _uniforms(words)
    assert np.array_equal(guided(lifetime_law(spec), words), ref_sample_lifetimes(spec, len(u), Uniforms(u)))
    assert np.array_equal(guided(delay_law(spec), words), ref_sample_delays(spec, len(u), Uniforms(u)))


@pytest.mark.parametrize("steps", [1, 7, 10 ** 4])
@pytest.mark.parametrize("M", [1, 3, 300])
def test_counts_match_reference(M, steps):
    for seed, spec in enumerate(dirichlet_specs(1234, ps=(1, 2, 3, 4, 5), per_p=2)):
        config = SimConfig(spec=spec, M=M, steps=steps, seed=seed)
        assert np.array_equal(simulate_counts(config).values, ref_simulate_counts(config)), (spec, config)


@pytest.mark.parametrize("head, r", [((0.2, 0.3), 0.6), ((0.1, 0.2, 0.3, 0.1, 0.1), 0.99),
                                     ((0.5, 0.5), 0.0), ((0.3, 0.3), 0.0), ((), 0.5)])
def test_chain_matches_reference(head, r):
    spec = make_constant_hazard(head, r)
    for chain in range(20):
        got = simulate_chain(spec, 3000, chain_rng(70, chain))
        assert np.array_equal(got, ref_simulate_chain(spec, 3000, chain_rng(70, chain)))


@pytest.mark.parametrize("size", [1, 2, 7])
def test_batch_size_does_not_change_output(p2_spec, monkeypatch, size):
    # small batches take every chain through many rounds of the batch loop
    config = SimConfig(spec=p2_spec, M=3, steps=500, seed=12)
    want = ref_simulate_counts(config)
    monkeypatch.setattr(ChainLaws, "batch", lambda self, span: size)
    assert np.array_equal(simulate_counts(config).values, want)


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("steps", [7, 2000])
@pytest.mark.parametrize("M", [3, 300])
def test_block_size_does_not_change_output(p2_spec, monkeypatch, block, steps, M):
    # small blocks split the M chains into groups of one or two and cut a
    # chain into many rounds; at M = 300 the chains of a group can share a
    # delay (test_batch_size_does_not_change_output finishes the rows of one
    # group in different rounds)
    config = SimConfig(spec=p2_spec, M=M, steps=steps, seed=5)
    want = ref_simulate_counts(config)
    monkeypatch.setattr(simulate, "BLOCK", block)
    assert np.array_equal(simulate_counts(config).values, want)
    for chain in range(3):
        got = simulate_chain(p2_spec, steps, chain_rng(5, chain))
        assert np.array_equal(got, ref_simulate_chain(p2_spec, steps, chain_rng(5, chain)))


@pytest.mark.parametrize("head, r", [((0.2, 0.3), 0.6), ((0.5, 0.5), 0.0), ((), 0.5)])
def test_map_is_elementwise(head, r):
    # a 2-D block maps as its rows do one by one
    spec = make_constant_hazard(head, r)
    u = np.concatenate([edge_uniforms(spec), chain_rng(80, 0).random(301 - len(edge_uniforms(spec)))])
    block = u.reshape(7, 43)
    for law in (lifetime_law(spec), delay_law(spec)):
        assert np.array_equal(law.map(block), np.array([law.map(row) for row in block]))
        assert np.array_equal(law.map(block).ravel(), law.map(u))
    # so do a block of words and a strided column of it, through the guide tables
    edges = edge_words(spec)
    words = np.concatenate([chain_rng(81, 0).bit_generator.random_raw(151),
                            edges[np.random.default_rng(82).integers(len(edges), size=150)]])
    block, index = words.reshape(7, 43), np.empty((7, 43), dtype=np.intp)
    for law in (lifetime_law(spec), delay_law(spec)):
        out = np.empty((7, 43), dtype=np.int64)
        law.draw_words(block, index, out)
        assert np.array_equal(out, law.map(_uniforms(block)))
        law.draw_words(block[:, -1], index[0, :7], out[:, 0])
        assert np.array_equal(out[:, 0], law.map(_uniforms(block[:, -1])))


@pytest.mark.parametrize("finite, r", [(True, 0.0), (False, 0.99)])
def test_thousands_of_cuts(finite, r):
    # a survival-table sized law, 4000 cuts with ties, maps through the same
    # searchsorted and guide table as a short head
    rng = np.random.default_rng(91)
    head = 0.998 ** np.arange(4000) * rng.uniform(0.5, 1.5, 4000)
    head[rng.integers(4000, size=40)] = 0.0
    head *= (1.0 if finite else 0.9) / math.fsum(head)
    law = simulate.DrawLaw.of(head, r, finite, 0)
    cdf = np.cumsum(head)
    assert len(law.cuts) >= 3999 and (np.diff(cdf) == 0.0).any()
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], np.nextafter(cdf, 0.0), cdf, np.nextafter(cdf, 1.0)])
    u = u[u < 1.0]
    assert np.array_equal(law.map(u), ref_sample_head_tail(head, r, len(u), Uniforms(u), finite))
    # every bucket's edge words, and the words at and beside every cut
    words = np.concatenate([bucket_words(), words_near(cdf)])
    assert (law.guide == simulate._MIXED).any() and (law.guide != simulate._MIXED).any()
    assert np.array_equal(guided(law, words), law.map(_uniforms(words)))


def test_guide_is_no_field(p2_spec):
    # the table is built once per law, and equal laws stay equal once either has it
    built, fresh = lifetime_law(p2_spec), lifetime_law(p2_spec)
    assert built.guide is built.guide and built.cut_array is built.cut_array
    assert built.cut_array.tolist() == list(built.cuts) and not built.cut_array.flags.writeable
    assert built == fresh and hash(built) == hash(fresh) and repr(built) == repr(fresh)
    assert fresh.guide is not built.guide and np.array_equal(fresh.guide, built.guide)
    laws = ChainLaws.of(p2_spec)
    assert laws.delay.guide.shape == (2 ** simulate._GUIDE_BITS,)
    assert laws == ChainLaws.of(p2_spec) and hash(laws) == hash(ChainLaws.of(p2_spec))


KEY_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1, MC_SEED,
             *(int(s) for s in np.random.default_rng(90).integers(2 ** 64, size=20, dtype=np.uint64))]


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_chain_keys_match_seed_sequence(seed):
    # the bulk hash gives each chain the key that chain_rng's SeedSequence does
    def want(chain):
        return chain_rng(seed, chain).bit_generator.state["state"]["key"]

    keys = _chain_keys(seed, 0, 50)
    assert keys.dtype == np.uint64 and keys.shape == (50, 2)
    assert np.array_equal(keys, [want(c) for c in range(50)])
    for chain in np.random.default_rng([91, seed]).integers(2 ** 32, size=50).tolist():
        assert np.array_equal(_chain_keys(seed, chain, 1)[0], want(chain)), chain
    # the last chain index a spawn-key word holds, at the end of a run of chains
    top = _chain_keys(seed, 2 ** 32 - 3, 3)
    assert np.array_equal(top, [want(c) for c in range(2 ** 32 - 3, 2 ** 32)])


def test_rekeyed_slots_replay_chain_streams():
    # each slot is re-keyed after it has drawn part of a Philox buffer and a
    # half-used 32-bit word, and still starts its next chain's stream afresh
    for chain, rng in enumerate(_chain_rngs(17, 10, 3)):
        assert np.array_equal(rng.random(5), chain_rng(17, chain).random(5)), chain
        rng.integers(2 ** 32, dtype=np.uint32)


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("M", [7, 300])
def test_key_chunk_does_not_change_output(p2_spec, monkeypatch, chunk, M):
    # chunks of one and three chains put a key chunk boundary inside every group
    config = SimConfig(spec=p2_spec, M=M, steps=200, seed=8)
    monkeypatch.setattr(simulate, "_KEY_CHUNK", chunk)
    assert np.array_equal(simulate_counts(config).values, ref_simulate_counts(config))


@pytest.mark.parametrize("head, r", [((0.2, 0.3), 0.6), ((0.5, 0.5), 0.0)])
@pytest.mark.parametrize("steps", [1, 2])
def test_delays_past_a_short_horizon(head, r, steps):
    # most delays fall at or past steps: those chains still fill their first
    # row, and none of its epochs counts
    spec = make_constant_hazard(head, r)
    config = SimConfig(spec=spec, M=500, steps=steps, seed=13)
    assert np.array_equal(simulate_counts(config).values, ref_simulate_counts(config))
    for chain in range(20):
        got = simulate_chain(spec, steps, chain_rng(13, chain))
        assert np.array_equal(got, ref_simulate_chain(spec, steps, chain_rng(13, chain))), chain


def test_long_lifetimes_on_a_short_horizon():
    # E[L] is about 100 against 50 steps: most chains renew once or never
    spec = make_constant_hazard([0.005], 0.99)
    config = SimConfig(spec=spec, M=200, steps=50, seed=14)
    assert np.array_equal(simulate_counts(config).values, ref_simulate_counts(config))
    for chain in range(20):
        got = simulate_chain(spec, 50, chain_rng(14, chain))
        assert np.array_equal(got, ref_simulate_chain(spec, 50, chain_rng(14, chain))), chain
