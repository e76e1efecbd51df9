"""Seeded Monte-Carlo generation of renewal bit chains and binomial count series.

Each of the M superposed chains draws from its own counter-based Philox
stream, derived deterministically from the run seed as
``SeedSequence(seed, spawn_key=(chain,))``, so output is bit-identical for a
given configuration regardless of execution order or parallelism.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .lifetime import LifetimeSpec


@dataclass(frozen=True)
class SimConfig:
    spec: LifetimeSpec
    M: int
    steps: int
    seed: int

    def __post_init__(self) -> None:
        if self.M < 1:
            raise ValueError("superposition count must be positive")
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True, eq=False)
class CountSeries:
    """Integer series in [0, M] together with the configuration that produced it."""

    values: np.ndarray
    config: SimConfig


def chain_rng(seed: int, chain: int) -> np.random.Generator:
    """Independent stream for one chain: Philox keyed by (seed, chain index)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(chain,))))


def _sample_head_tail(head, r: float, n: int, rng: np.random.Generator, finite: bool) -> np.ndarray:
    """Draw n values k >= 0 with P(k) = head[k] below len(head) and a geometric tail of ratio r.

    A uniform u past the head mass lands at
    ``len(head) + floor(log(residual) / log(r))`` with
    ``residual = (1 - u) / tail mass``, which is exact (never truncated).
    With ``finite`` the head carries all mass, and a draw that rounding in
    the last cdf entry leaks past it is clamped back.
    """
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


def sample_lifetimes(spec: LifetimeSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n lifetimes: inverse CDF over f_1..f_p, analytic geometric tail from p + 1."""
    return _sample_head_tail(spec.head, spec.r, n, rng, spec.tail_first == 0.0) + 1


def sample_equilibrium_delays(spec: LifetimeSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n delays from b_j = P(L > j)/E[L]; beyond lag p the tail of b is
    geometric with ratio r and is sampled analytically."""
    mu = spec.mean()
    b_head = [spec.survival(j) / mu for j in range(spec.p + 1)]
    return _sample_head_tail(b_head, spec.r, n, rng, spec.r == 0.0)


def simulate_chain(spec: LifetimeSpec, steps: int, rng: np.random.Generator) -> np.ndarray:
    """One stationary renewal indicator chain X_0..X_{steps-1}.

    The first renewal happens after an equilibrium delay, subsequent ones
    after independent lifetimes; bits are set at every renewal epoch below
    ``steps``.
    """
    bits = np.zeros(steps, dtype=np.uint8)
    t = int(sample_equilibrium_delays(spec, 1, rng)[0])
    if t >= steps:
        return bits
    bits[t] = 1
    mu = spec.mean()
    cur = t
    while True:
        batch = max(16, int(1.2 * (steps - cur) / mu) + 16)
        epochs = cur + np.cumsum(sample_lifetimes(spec, batch, rng))
        bits[epochs[epochs < steps]] = 1
        if epochs[-1] >= steps:
            return bits
        cur = int(epochs[-1])


def simulate_counts(config: SimConfig, threads: int | None = None) -> CountSeries:
    """Superpose M independent chains into a count series.

    Pure function of ``config``: replay is bit-identical.  Chains may be
    generated in parallel (integer summation is order-independent); each is
    added in as it arrives, so the M chains are never held at once.
    """

    def one(i: int) -> np.ndarray:
        return simulate_chain(config.spec, config.steps, chain_rng(config.seed, i))

    values = np.zeros(config.steps, dtype=np.int64)
    if threads and threads > 1 and config.M > 1:
        with ThreadPoolExecutor(max_workers=min(threads, config.M)) as pool:
            for ch in pool.map(one, range(config.M)):
                values += ch
    else:
        for i in range(config.M):
            values += one(i)
    return CountSeries(values=values, config=config)


def sample_acvf(series, hmax: int) -> np.ndarray:
    """Biased sample autocovariance (divisor n), which is positive semidefinite."""
    y = np.asarray(series.values if isinstance(series, CountSeries) else series, dtype=float)
    n = len(y)
    if hmax >= n:
        raise ValueError("hmax must be smaller than the series length")
    yc = y - y.mean()
    return np.array([np.dot(yc[: n - h], yc[h:]) / n for h in range(hmax + 1)])


@dataclass(frozen=True)
class ContextStats:
    """Occurrences of one context and the frequency of a 1 following it."""

    context: tuple[int, ...]
    count: int
    ones: int
    sparse: bool

    @property
    def freq(self) -> float:
        return self.ones / self.count if self.count else math.nan


def context_frequencies(bits, order: int, t_start: int | None = None, min_count: int = 1000):
    """Frequency of x_t = 1 after every context (x_{t-1}, ..., x_{t-order}).

    ``t_start`` defaults to ``order``; passing a larger value restricts the
    scan so that tables of different orders cover identical time points.
    """
    bits = np.asarray(bits, dtype=np.int64)
    n = len(bits)
    start = order if t_start is None else t_start
    if start < order or n <= start:
        raise ValueError("bit sequence too short for the requested context length")
    code = np.zeros(n - start, dtype=np.int64)
    for j in range(1, order + 1):
        code += bits[start - j : n - j] << (j - 1)
    target = bits[start:]
    counts = np.bincount(code, minlength=2 ** order)
    ones = np.bincount(code[target.astype(bool)], minlength=2 ** order)
    table = {}
    for c in range(2 ** order):
        ctx = tuple((c >> (j - 1)) & 1 for j in range(1, order + 1))
        table[ctx] = ContextStats(
            context=ctx, count=int(counts[c]), ones=int(ones[c]), sparse=counts[c] < min_count
        )
    return table
