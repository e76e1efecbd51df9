"""Seeded Monte-Carlo generation of renewal bit chains and binomial count series.

Each of the M superposed chains draws from its own counter-based Philox
stream, derived deterministically from the run seed as
``SeedSequence(seed, spawn_key=(chain,))``.  Every delay and lifetime is a
function of one uniform, taken in stream order, so the output depends only on
each chain's uniform stream: it is bit-identical for a given configuration,
whatever sizes the uniforms are drawn in.
"""

from __future__ import annotations

import bisect
import math
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


@dataclass(frozen=True)
class DrawLaw:
    """Law of ``offset + k`` with P(k) = head[k] below len(head) and a geometric tail of ratio r.

    A uniform u maps to the number of ``cuts`` (head cdf entries) at or below
    it, which is ``searchsorted(cdf, u, side="right")``.  A uniform past the
    head mass lands at ``len(head) + floor(log(residual) / log(r))`` with
    ``residual = (1 - u) / tail``, which is exact (never truncated).  Each
    draw depends on its own uniform only.
    """

    cuts: tuple[float, ...]
    tail: float  # head mass deficit 1 - cdf[-1]; 0.0 when no draw takes the geometric tail
    log_r: float
    offset: int

    @classmethod
    def of(cls, head, r: float, finite: bool, offset: int) -> "DrawLaw":
        """With ``finite`` the head carries all mass, and a draw that rounding in
        the last cdf entry leaks past it stays at the last head value."""
        cdf = [float(c) for c in np.cumsum(head)]
        if finite:
            return cls(tuple(cdf[:-1]), 0.0, 0.0, offset)
        tail = 1.0 - (cdf[-1] if cdf else 0.0)
        if r > 0.0 and tail > 0.0:
            return cls(tuple(cdf), tail, math.log(r), offset)
        # no geometric tail, or a head mass that rounds to 1 so no uniform passes it
        return cls(tuple(cdf), 0.0, 0.0, offset)

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(n)
        cuts = self.cuts
        if self.tail > 0.0:
            # the geometric excess over the whole batch, zeroed on head draws
            x = np.subtract(1.0, u)
            x /= self.tail
            np.log(x, out=x)
            x /= self.log_r
            np.floor(x, out=x)
            if cuts:
                x *= u >= cuts[-1]
            k = x.astype(np.int64)
        else:
            k = np.zeros(n, dtype=np.int64)
        for c in cuts:
            k += u >= c
        if self.offset:
            k += self.offset
        return k

    def draw_one(self, rng: np.random.Generator) -> int:
        """One draw, as ``draw(1, rng)[0]`` gives it, without the whole-batch passes."""
        u = rng.random()
        k = bisect.bisect_right(self.cuts, u)
        if self.tail > 0.0 and k == len(self.cuts):
            # the logarithm on a 1-element array, as the batch pass takes it
            k += math.floor(np.log(np.array([(1.0 - u) / self.tail]))[0] / self.log_r)
        return k + self.offset


def lifetime_law(spec: LifetimeSpec) -> DrawLaw:
    """Inverse CDF over f_1..f_p, analytic geometric tail from p + 1."""
    return DrawLaw.of(spec.head, spec.r, spec.tail_first == 0.0, 1)


def delay_law(spec: LifetimeSpec) -> DrawLaw:
    """b_j = P(L > j)/E[L]; beyond lag p the tail of b is geometric with ratio r."""
    return DrawLaw.of(spec.survivals(spec.p) / spec.mean(), spec.r, spec.r == 0.0, 0)


def sample_lifetimes(law: DrawLaw, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n lifetimes from ``law``, a :func:`lifetime_law`; every batch of lifetimes goes through here."""
    return law.draw(n, rng)


@dataclass(frozen=True)
class ChainLaws:
    """Everything one chain draws from, computed once per spec."""

    lifetime: DrawLaw
    delay: DrawLaw
    mu: float
    sd: float  # sqrt(Var[L] / mu**3): renewals in n steps have standard deviation sd * sqrt(n)

    @classmethod
    def of(cls, spec: LifetimeSpec) -> "ChainLaws":
        mu = spec.mean()
        sd = math.sqrt(max(spec.variance(), 0.0) / mu ** 3)
        return cls(lifetime_law(spec), delay_law(spec), mu, sd)

    def batch(self, span: int) -> int:
        """Lifetimes to draw for ``span`` steps: the mean count plus four sd, so a
        second batch is rare."""
        return int(span / self.mu + 4.0 * self.sd * math.sqrt(span)) + 16


def chain_epochs(laws: ChainLaws, steps: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted renewal epochs below ``steps`` of one stationary chain.

    The first renewal happens after an equilibrium delay, subsequent ones
    after independent lifetimes.  Epochs are a function of the uniform
    stream alone: the batch sizes only decide how many uniforms each
    ``rng.random`` call takes.
    """
    t = laws.delay.draw_one(rng)
    if t >= steps:
        return np.empty(0, dtype=np.int64)
    parts = [np.array([t], dtype=np.int64)]
    while True:
        # through the module attribute, where perfbench's tracer counts lifetimes drawn
        ep = sample_lifetimes(laws.lifetime, laws.batch(steps - t), rng)
        ep[0] += t
        np.cumsum(ep, out=ep)
        if ep[-1] >= steps:
            parts.append(ep[: np.searchsorted(ep, steps)])
            return np.concatenate(parts)
        parts.append(ep)
        t = int(ep[-1])


def simulate_chain(spec: LifetimeSpec, steps: int, rng: np.random.Generator) -> np.ndarray:
    """One stationary renewal indicator chain X_0..X_{steps-1}: bits set at its renewal epochs."""
    bits = np.zeros(steps, dtype=np.uint8)
    bits[chain_epochs(ChainLaws.of(spec), steps, rng)] = 1
    return bits


def simulate_counts(config: SimConfig, threads: int | None = None) -> CountSeries:
    """Superpose M independent chains into a count series.

    Pure function of ``config``: replay is bit-identical.  Chains run one
    at a time, each added in by index (a chain's epochs are distinct), so
    the M chains are never held at once.  ``threads`` is accepted for
    compatibility and ignored.
    """
    laws = ChainLaws.of(config.spec)
    values = np.zeros(config.steps, dtype=np.int64)
    for i in range(config.M):
        values[chain_epochs(laws, config.steps, chain_rng(config.seed, i))] += 1
    return CountSeries(values=values, config=config)


def sample_acvf(series, hmax: int) -> np.ndarray:
    """Biased sample autocovariance (divisor n), which is positive semidefinite."""
    y = np.asarray(series.values if isinstance(series, CountSeries) else series, dtype=float)
    n = len(y)
    if hmax >= n:
        raise ValueError("hmax must be smaller than the series length")
    yc = y - y.mean()
    return np.array([np.dot(yc[: n - h], yc[h:]) / n for h in range(hmax + 1)])


def context_frequencies(bits, order: int) -> np.ndarray:
    """Counts ``tally[c, x]`` of the times t >= ``order`` whose context is c and whose bit is x.

    The context code c = x_{t-1} + 2 x_{t-2} + ... + 2**(order-1) x_{t-order}
    is that of :func:`.markov.context_hazards`, so ``tally[c, 1] / tally[c].sum()``
    estimates ``context_hazards(spec, order)[c]``; ``tally.ravel()`` is indexed
    by the window code x_t + 2 x_{t-1} + ... of :func:`.markov.window_law`.
    """
    bits = np.asarray(bits)
    n = len(bits)
    if n <= order:
        raise ValueError("bit sequence too short for the requested context length")
    # the window code, x_{t-order} in the top bit down to x_t in bit 0
    # (the unsafe cast lets float 0.0/1.0 bits count as integers)
    codes = np.zeros(n - order, dtype=np.intp)
    for j in range(order, -1, -1):
        codes <<= 1
        np.add(codes, bits[order - j : n - j], out=codes, casting="unsafe")
    return np.bincount(codes, minlength=2 ** (order + 1)).reshape(-1, 2)
