"""Seeded Monte-Carlo generation of renewal bit chains and binomial count series.

Each of the M superposed chains draws from its own counter-based Philox
stream, keyed deterministically from the run seed as
``SeedSequence(seed, spawn_key=(chain,))``.  Every delay and lifetime is a
function of one uniform, taken in stream order, so the output depends only on
each chain's uniform stream: it is bit-identical for a given configuration,
whatever sizes the uniforms are drawn in.  That freedom lets one kernel,
:func:`_superpose`, map the uniforms of many short chains, or a cache-sized
piece of one long chain, in a block of at most ``BLOCK`` uniforms.

A Philox stream is a pure function of its key and its counter, so the chains
of a count series need no generator each: :func:`_chain_keys` derives many
chains' keys at once with SeedSequence's own hash, and a few generators are
re-keyed in turn, one per row of a block.  That holds for chain indices
below 2**32, which is why M is at most 2**32.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lifetime import LifetimeSpec

BLOCK = 2 ** 15  # uniforms mapped per numpy call: a block stays in cache
MAX_CHAINS = 2 ** 32  # a chain index must fit the one 32-bit word of its spawn key


@dataclass(frozen=True)
class SimConfig:
    spec: LifetimeSpec
    M: int
    steps: int
    seed: int

    def __post_init__(self) -> None:
        if self.M < 1:
            raise ValueError("superposition count must be positive")
        if self.M > MAX_CHAINS:
            raise ValueError("superposition count must be at most 2**32")
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


# SeedSequence's hash constants (O'Neill's seed_seq_fe, as numpy uses them)
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_KEY_CHUNK = BLOCK // 2  # chains keyed per numpy call: their (chains, 2) keys fill a block


def _chain_keys(seed: int, first: int, count: int) -> np.ndarray:
    """The ``(count, 2)`` uint64 Philox keys of chains ``first .. first + count - 1``,
    each equal to ``SeedSequence(seed, spawn_key=(chain,)).generate_state(2, np.uint64)``
    (the key :func:`chain_rng` gets) for chain < 2**32.

    The seed's words, padded to the pool of four because a spawn key follows,
    are hashed and mixed once, in Python ints; the chain's word is hashed into
    each pool word, and the pool hashed out into four state words, in uint64
    arrays masked to 32 bits.
    """
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v ^= h
        h = h * _MULT_A & _MASK
        v = v * h & _MASK
        return v ^ v >> 16

    def mix(x, y):
        v = (_MIX_L * x - _MIX_R * y) & _MASK
        return v ^ v >> 16

    pool = [hashmix(seed >> 32 * i & _MASK) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # the same steps over the chain word, as array ops: a uint64 scalar that
    # overflows warns, an array wraps silently, and the mask keeps 32 bits
    mask, shift = np.uint64(_MASK), np.uint64(16)
    chains = np.arange(first, first + count, dtype=np.uint64)
    words, hb = [], _INIT_B
    for x in pool:
        v = chains ^ np.uint64(h)  # hashmix(chain)
        h = h * _MULT_A & _MASK
        v *= np.uint64(h)
        v &= mask
        v ^= v >> shift
        v *= np.uint64(_MIX_R)  # mix(x, hashmix(chain))
        v = np.uint64(_MIX_L * x & _MASK) - v
        v &= mask
        v ^= v >> shift
        v ^= np.uint64(hb)  # generate_state's output word
        hb = hb * _MULT_B & _MASK
        v *= np.uint64(hb)
        v &= mask
        v ^= v >> shift
        words.append(v)
    keys = np.empty((count, 2), dtype=np.uint64)
    keys[:, 0] = words[0] | words[1] << np.uint64(32)  # state words pair up little-endian
    keys[:, 1] = words[2] | words[3] << np.uint64(32)
    return keys


def _chain_rngs(seed: int, M: int, slots: int):
    """The streams of chains 0 .. M - 1 in order: ``slots`` generators, each
    re-keyed in turn to its next chain's key at counter 0, so that chain c
    yields the stream of ``chain_rng(seed, c)``.  A chain's slot is taken
    again ``slots`` chains later, so at most ``slots`` are in use at once."""
    pool = [np.random.Generator(np.random.Philox(0)) for _ in range(slots)]
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": None},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for first in range(0, M, _KEY_CHUNK):
        for i, key in enumerate(_chain_keys(seed, first, min(_KEY_CHUNK, M - first)), first):
            rng = pool[i % slots]
            state["state"]["key"] = key
            rng.bit_generator.state = state  # copied in: a slot keeps no reference to it
            yield rng


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


def _rows(laws: ChainLaws, steps: int) -> tuple[int, int]:
    """The lifetimes a row of :func:`_superpose` maps per round, and the chains
    in a group: as many rows as fill a block in round 1, at least one."""
    width = min(laws.batch(steps), BLOCK)
    return width, max(1, BLOCK // (width + 1))


def _superpose(laws: ChainLaws, steps: int, rngs, out: np.ndarray) -> None:
    """Add 1 into ``out`` (int64 counts, or the uint8 bits of one chain) at each
    renewal epoch below ``steps`` of each stationary chain, one per generator
    that ``rngs`` yields.

    A chain's first renewal comes after an equilibrium delay, drawn from its
    first uniform, and each later one after a lifetime.  Chains run in groups
    that fill a block of ``BLOCK`` uniforms, one row each, for as many rounds
    as the longest needs.  In round 1 a row takes the delay's uniform and then
    ``width`` lifetimes', so one cumsum gives every epoch from the first
    renewal on; a chain whose delay is past ``steps`` still fills that row.
    Each later round fills ``width`` lifetimes' uniforms per live row and adds
    the row's last epoch.  Every round fills each row from its own generator,
    in stream order, so no epoch depends on the block size.  A group's
    generators are taken from ``rngs`` only once the group before is done, so
    they may be the earlier group's, re-keyed.
    """
    width, size = _rows(laws, steps)
    one = out.dtype.type(1)  # an untyped 1 sends add.at on uint8 down a path about 30x slower
    rngs = iter(rngs)
    while rows := list(itertools.islice(rngs, size)):
        u = np.empty(len(rows) * (width + 1))
        block, carry = u.reshape(len(rows), width + 1), None
        while rows:
            for rng, row in zip(rows, block):
                rng.random(out=row)
            e = laws.lifetime.map(block)
            if carry is None:
                e[:, 0] = laws.delay.map(block[:, 0])
            else:
                e[:, 0] += carry
            np.cumsum(e, axis=1, out=e)
            np.add.at(out, e[e < steps], one)  # chains may share an epoch
            live = e[:, -1] < steps
            rows, carry = list(itertools.compress(rows, live)), e[live, -1]
            block = u[: len(rows) * width].reshape(len(rows), width)


def simulate_chain(spec: LifetimeSpec, steps: int, rng: np.random.Generator) -> np.ndarray:
    """One stationary renewal indicator chain X_0..X_{steps-1}: bits set at its
    renewal epochs, written straight into the uint8 result.  The delay and the
    lifetimes come from ``rng`` in stream order; a delay past ``steps`` still
    fills its first row, so ``rng`` advances by a row's uniforms whatever the
    delay."""
    bits = np.zeros(steps, dtype=np.uint8)
    _superpose(ChainLaws.of(spec), steps, [rng], bits)
    return bits


def simulate_counts(config: SimConfig, threads: int | None = None) -> CountSeries:
    """Superpose M independent chains into a count series.

    Pure function of ``config``: replay is bit-identical.  Short chains share
    the numpy calls of a block and long ones are cut into blocks.  Chain c
    reads the stream of ``chain_rng(config.seed, c)``, from one of a group's
    worth of generators re-keyed to its key, so the M chains are never held
    at once.  ``threads`` is accepted for compatibility and ignored.
    """
    values = np.zeros(config.steps, dtype=np.int64)
    laws = ChainLaws.of(config.spec)
    rngs = _chain_rngs(config.seed, config.M, min(config.M, _rows(laws, config.steps)[1]))
    _superpose(laws, config.steps, rngs, values)
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
