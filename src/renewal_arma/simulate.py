"""Seeded Monte-Carlo generation of renewal bit chains and binomial count series.

Each of the M superposed chains draws from its own counter-based Philox
stream, derived deterministically from the run seed as
``SeedSequence(seed, spawn_key=(chain,))``.  Every delay and lifetime is a
function of one uniform, taken in stream order, so the output depends only on
each chain's uniform stream: it is bit-identical for a given configuration,
whatever sizes the uniforms are drawn in.  That freedom lets one kernel,
:func:`_superpose`, map the uniforms of many short chains, or a cache-sized
piece of one long chain, in a block of at most ``BLOCK`` uniforms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lifetime import LifetimeSpec

BLOCK = 2 ** 15  # uniforms mapped per numpy call: a block stays in cache


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

    def map(self, u: np.ndarray) -> np.ndarray:
        """The draw of each uniform in ``u``, element by element, in the shape of ``u``."""
        cuts = self.cuts
        # the offset plus the number of cuts at or below u, in the smallest integers that hold it
        hits = np.full(np.shape(u), self.offset, dtype=np.min_scalar_type(self.offset + len(cuts)))
        for c in cuts:
            np.add(hits, u >= c, out=hits)
        if self.tail == 0.0:
            return hits.astype(np.int64)
        # the geometric excess over the whole block: >= 0 on a tail draw, where
        # truncation is floor; on a head draw fl(1 - u) >= tail, so it is <= 0
        # and clips to 0
        x = np.subtract(1.0, u)
        x /= self.tail
        np.log(x, out=x)
        x /= self.log_r
        k = x.astype(np.int64)
        if cuts:
            np.maximum(k, 0, out=k)
        k += hits
        return k

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.map(rng.random(n))


def lifetime_law(spec: LifetimeSpec) -> DrawLaw:
    """Inverse CDF over f_1..f_p, analytic geometric tail from p + 1."""
    return DrawLaw.of(spec.head, spec.r, spec.tail_first == 0.0, 1)


def delay_law(spec: LifetimeSpec) -> DrawLaw:
    """b_j = P(L > j)/E[L]; beyond lag p the tail of b is geometric with ratio r."""
    return DrawLaw.of(spec.survivals(spec.p) / spec.mean(), spec.r, spec.r == 0.0, 0)


def sample_lifetimes(law: DrawLaw, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n lifetimes from ``law``, a :func:`lifetime_law`, off the next n uniforms of ``rng``."""
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
        chain rarely needs a second round of :func:`_superpose`."""
        return int(span / self.mu + 4.0 * self.sd * math.sqrt(span)) + 16


def _superpose(laws: ChainLaws, steps: int, rngs, out: np.ndarray) -> None:
    """Add 1 into ``out`` (int64 counts, or the uint8 bits of one chain) at each
    renewal epoch below ``steps`` of each stationary chain, one per generator.

    A chain's first renewal comes after an equilibrium delay, drawn from its
    first uniform, and each later one after a lifetime.  Chains run in groups
    that fill a block of ``BLOCK`` uniforms, one row each, for as many rounds
    as the longest needs.  Every round fills each live row from its own
    generator, in stream order, so no epoch depends on the block size.
    """
    width = min(laws.batch(steps), BLOCK)
    one = out.dtype.type(1)  # an untyped 1 sends add.at on uint8 down a path about 30x slower
    rngs = iter(rngs)
    while group := list(itertools.islice(rngs, BLOCK // width)):
        t = laws.delay.map(np.array([rng.random() for rng in group]))
        live = t < steps
        np.add.at(out, t[live], one)  # two chains may share a delay
        rows, carry = list(itertools.compress(group, live)), t[live]
        u = np.empty((len(rows), width))
        while rows:
            block = u[: len(rows)]
            for rng, row in zip(rows, block):
                rng.random(out=row)
            e = laws.lifetime.map(block)
            e[:, 0] += carry
            np.cumsum(e, axis=1, out=e)
            np.add.at(out, e[e < steps], one)  # chains may share an epoch
            live = e[:, -1] < steps
            rows, carry = list(itertools.compress(rows, live)), e[live, -1]


def simulate_chain(spec: LifetimeSpec, steps: int, rng: np.random.Generator) -> np.ndarray:
    """One stationary renewal indicator chain X_0..X_{steps-1}: bits set at its
    renewal epochs, written straight into the uint8 result."""
    bits = np.zeros(steps, dtype=np.uint8)
    _superpose(ChainLaws.of(spec), steps, [rng], bits)
    return bits


def simulate_counts(config: SimConfig, threads: int | None = None) -> CountSeries:
    """Superpose M independent chains into a count series.

    Pure function of ``config``: replay is bit-identical.  Short chains share
    the numpy calls of a block and long ones are cut into blocks; each group's
    generators are built just before it runs, so the M chains are never held
    at once.  ``threads`` is accepted for compatibility and ignored.
    """
    values = np.zeros(config.steps, dtype=np.int64)
    rngs = (chain_rng(config.seed, i) for i in range(config.M))
    _superpose(ChainLaws.of(config.spec), config.steps, rngs, values)
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
