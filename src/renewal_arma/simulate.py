"""Seeded Monte-Carlo generation of renewal bit chains and binomial count series.

Each of the M superposed chains draws from its own counter-based Philox
stream, keyed deterministically from the run seed as
``SeedSequence(seed, spawn_key=(chain,))``.  A chain's stream is its
sequence of 64-bit Philox words; word w is the uniform ``(w >> 11) * 2**-53``
that ``Generator.random`` would give.  Every delay and lifetime is a function
of one word, taken in stream order, so the output depends only on each
chain's words: it is bit-identical for a given configuration, whatever sizes
the words are drawn in.  That freedom lets one kernel, :func:`_superpose`,
map the words of many short chains, or a cache-sized piece of one long chain,
in a block of at most ``BLOCK`` words.

A draw is a step function of its uniform, so most words are mapped by one
gather from their law's guide table (Chen & Asau 1974), which each law builds
once, on first use, indexed by the word's top bits: each bucket of words that
all give one draw holds that draw, and only a word in a mixed bucket goes
through :meth:`DrawLaw.map`, which defines every draw with one
``searchsorted`` over the law's cuts, whatever their number.  A bucket whose
tail quotient comes within a rounding margin of an integer is counted as
mixed, so the table gives the bytes the map gives (:attr:`DrawLaw.guide`).

A Philox stream is a pure function of its key and its counter, so the chains
of a count series need no generator each: :func:`_chain_keys` derives many
chains' keys at once with SeedSequence's own hash, and a few generators are
re-keyed in turn, one per row of a block.  That holds for chain indices
below 2**32, which is why M is at most 2**32.
"""

from __future__ import annotations

import itertools
import math
import mmap
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lifetime import LifetimeSpec

BLOCK = 2 ** 15  # words mapped per numpy call: a block stays in cache
MAX_CHAINS = 2 ** 32  # a chain index must fit the one 32-bit word of its spawn key
_GUIDE_BITS = 12  # a word's top bits index its law's guide table: 2**12 int64 entries, 32 KB
_GUIDE_SHIFT = np.uint64(64 - _GUIDE_BITS)
_MIXED = -1  # the guide entry of a bucket whose words may give more than one draw
_UNIT = 2.0 ** -53  # the uniform of word w is (w >> 11) * _UNIT, as Generator.random makes it
_MAPPED_BYTES = 2 ** 20  # a series_zeros array this big or bigger gets a memory map of its own
# private pages, faulted in by the one call that maps them where the system can
_MAP_ARGS = ({"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)}
             if hasattr(mmap, "MAP_ANONYMOUS") else {})


def series_zeros(n: int, dtype) -> np.ndarray:
    """A zero array of ``n`` items; from ``_MAPPED_BYTES`` up, in an anonymous
    memory map of its own.

    A freed series-sized block of the malloc heap stays resident, and a small
    allocation that lands in it can leave the next series no room but the top
    of the heap, so the peak resident size would hang on the order of
    unrelated allocations.  A mapped array's pages go back to the system with
    its last view: the peak is the arrays alive at once.
    """
    dtype = np.dtype(dtype)
    if n * dtype.itemsize >= _MAPPED_BYTES:
        try:
            return np.frombuffer(mmap.mmap(-1, n * dtype.itemsize, **_MAP_ARGS), dtype=dtype)
        except (OSError, OverflowError):
            pass  # no map that size: numpy's allocation raises its own error, or succeeds
    return np.zeros(n, dtype=dtype)


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
    """Integer series in [0, M] together with the configuration that produced it.

    ``values`` holds the counts in the smallest unsigned type that holds M,
    ``np.min_scalar_type(M)``: uint8 up to M = 255, uint16 up to 65535, and
    so on.  Arithmetic in that type wraps, so widen the counts before
    summing products or differences of them.
    """

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
    draw depends on its own uniform only.  The law's :attr:`guide` table and
    :attr:`cut_array` are built on first use and are no fields, so equal laws
    compare and hash equal.
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
        # the offset plus the number of cuts at or below u: the cuts are a
        # cumulative sum of nonnegative terms, so they are sorted
        hits = np.searchsorted(self.cut_array, u, side="right")
        hits += self.offset
        if self.tail == 0.0:
            return hits
        # the geometric excess over the whole block: >= 0 on a tail draw, where
        # truncation is floor; on a head draw fl(1 - u) >= tail, so it is <= 0
        # and clips to 0
        k = self._quotient(u).astype(np.int64)
        np.maximum(k, 0, out=k)
        k += hits
        return k

    def _quotient(self, u: np.ndarray) -> np.ndarray:
        """log((1 - u) / tail) / log r, in the float operations :meth:`map` truncates."""
        x = np.subtract(1.0, u)
        x /= self.tail
        np.log(x, out=x)
        x /= self.log_r
        return x

    @cached_property
    def cut_array(self) -> np.ndarray:
        """``cuts`` as a read-only float array, so that :meth:`map` does not convert the tuple per call."""
        cuts = np.array(self.cuts, dtype=np.float64)
        cuts.flags.writeable = False
        return cuts

    @cached_property
    def guide(self) -> np.ndarray:
        """The guide table of :meth:`map` over words: entry b is the draw of every
        word whose top ``_GUIDE_BITS`` bits are b, or ``_MIXED`` unless the map
        is shown to give one draw over the whole bucket.

        A bucket holds a draw when the map gives that draw at its first and
        last uniform, a and b, and, with a geometric tail, the quotient x the
        map computes lies more than ``eta`` from every integer at both.  The
        cut count is monotone in u, exactly.  The exact quotient
        q(u) = log((1 - u)/tail)/log r (with the stored tail and log r) is
        monotone too; the map computes x = fl(fl(log(fl((1 - u)/tail)))/log r),
        and 1 - u is exact for every uniform of a word.  With e = 2**-53 and
        numpy's log within 4 ulp (2e relative per ulp), the three rounded
        operations give |x - q| <= delta = e (1.03 + 9.01 L)/|log r|, where
        L = 36.75 + |log tail| bounds |log((1 - u)/tail)| over 1 - u in
        [2**-53, 1].  With eta = 2 delta, q is more than delta from every
        integer at a and b, so it has x's integer part there, and the draw
        made from q equals the map's at both ends.  That draw is monotone in
        u, so it is constant over [a, b], and q(u) stays more than delta
        inside one step of it; x(u) is within delta of q(u), so the map,
        however its log is evaluated, gives that draw at every u between.
        ``eta = (4 + 20 L) e/|log r|`` covers 2 delta; as r nears 1 it only
        marks more buckets mixed.
        """
        shift = 64 - _GUIDE_BITS
        first = np.arange(2 ** _GUIDE_BITS, dtype=np.uint64) << np.uint64(shift)
        ends = _uniforms(np.stack([first, first | np.uint64(2 ** shift - 1)]))
        draws = self.map(ends)
        table = np.where(draws[0] == draws[1], draws[0], _MIXED)
        if self.tail != 0.0:
            x = self._quotient(ends)
            eta = (4.0 + 20.0 * (36.75 + abs(math.log(self.tail)))) * _UNIT / abs(self.log_r)
            table[(np.abs(x - np.round(x)) <= eta).any(axis=0)] = _MIXED
        return table

    def draw_words(self, words: np.ndarray, index: np.ndarray, out: np.ndarray) -> None:
        """Write the draw of each word in ``words`` into ``out``, in its shape:
        the entry of :attr:`guide` for the word's top bits, or :meth:`map` of
        its uniform in a mixed bucket.  ``index`` is an intp buffer in the
        shape of ``words``."""
        np.right_shift(words, _GUIDE_SHIFT, out=index.view(np.uint64))
        np.take(self.guide, index, out=out, mode="clip")  # the index is in range: clip skips the bounds check
        mixed = np.flatnonzero(out == _MIXED)
        if mixed.size:
            out.reshape(-1)[mixed] = self.map(_uniforms(words.reshape(-1)[mixed]))


def _uniforms(words: np.ndarray) -> np.ndarray:
    """The uniform of each Philox word, ``(w >> 11) * 2**-53``: what ``Generator.random``
    returns for the same words."""
    u = (words >> np.uint64(11)).astype(np.float64)
    u *= _UNIT
    return u


def lifetime_law(spec: LifetimeSpec) -> DrawLaw:
    """Inverse CDF over f_1..f_p, analytic geometric tail from p + 1."""
    return DrawLaw.of(spec.head, spec.r, spec.tail_first == 0.0, 1)


def delay_law(spec: LifetimeSpec) -> DrawLaw:
    """b_j = P(L > j)/E[L]; beyond lag p the tail of b is geometric with ratio r."""
    return DrawLaw.of(spec.survivals(spec.p) / spec.mean(), spec.r, spec.r == 0.0, 0)


def sample_lifetimes(law: DrawLaw, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n lifetimes from ``law``, a :func:`lifetime_law`, off the next n uniforms of ``rng``."""
    return law.map(rng.random(n))


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
    """Add 1 into ``out`` (counts in the smallest unsigned type that holds M,
    or the uint8 bits of one chain) at each renewal epoch below ``steps`` of
    each stationary chain, one per generator that ``rngs`` yields.

    A chain's first renewal comes after an equilibrium delay, drawn from its
    first word, and each later one after a lifetime.  Chains run in groups
    that fill a block of ``BLOCK`` words, one row each, for as many rounds as
    the longest needs.  In round 1 a row takes the delay's word and then
    ``width`` lifetimes', so one cumsum gives every epoch from the first
    renewal on; a chain whose delay is past ``steps`` still fills that row.
    Each later round fills ``width`` lifetimes' words per live row and adds
    the row's last epoch.  Every round fills each row from its own generator,
    in stream order, so no epoch depends on the block size.  A group's
    generators are taken from ``rngs`` only once the group before is done, so
    they may be the earlier group's, re-keyed.  The word, index and epoch
    buffers are made once and serve every round.
    """
    width, size = _rows(laws, steps)
    one = out.dtype.type(1)  # an untyped 1 sends add.at on uint8 down a path about 30x slower
    n = size * (width + 1)
    words, index, epochs = np.empty(n, dtype=np.uint64), np.empty(n, dtype=np.intp), np.empty(n, dtype=np.int64)
    rngs = iter(rngs)
    while rows := list(itertools.islice(rngs, size)):
        cols, carry = width + 1, None
        while rows:
            shape, used = (len(rows), cols), len(rows) * cols
            block, e = words[:used].reshape(shape), epochs[:used].reshape(shape)
            for rng, row in zip(rows, block):
                row[:] = rng.bit_generator.random_raw(cols)
            laws.lifetime.draw_words(block, index[:used].reshape(shape), e)
            if carry is None:
                laws.delay.draw_words(block[:, 0], index[: len(rows)], e[:, 0])
            else:
                e[:, 0] += carry
            np.cumsum(e, axis=1, out=e)
            np.add.at(out, e[e < steps], one)  # chains may share an epoch
            live = e[:, -1] < steps
            rows, carry, cols = list(itertools.compress(rows, live)), e[live, -1], width


def simulate_chain(spec: LifetimeSpec, steps: int, rng: np.random.Generator) -> np.ndarray:
    """One stationary renewal indicator chain X_0..X_{steps-1}: bits set at its
    renewal epochs, written straight into the uint8 result.  The delay and the
    lifetimes come from the words of ``rng``'s bit generator in stream order,
    one each, as from the uniforms of ``rng.random``; a delay past ``steps``
    still fills its first row, so ``rng`` advances by a row's words whatever
    the delay."""
    bits = series_zeros(steps, np.uint8)
    _superpose(ChainLaws.of(spec), steps, [rng], bits)
    return bits


def simulate_counts(config: SimConfig, threads: int | None = None) -> CountSeries:
    """Superpose M independent chains into a count series.

    Pure function of ``config``: replay is bit-identical.  Short chains share
    the numpy calls of a block and long ones are cut into blocks.  Chain c
    reads the stream of ``chain_rng(config.seed, c)``, from one of a group's
    worth of generators re-keyed to its key, so the M chains are never held
    at once.  The counts are held in the smallest unsigned type that holds M,
    ``np.min_scalar_type(M)``, which no count can overflow.  ``threads`` is
    accepted for compatibility and ignored.
    """
    values = series_zeros(config.steps, np.min_scalar_type(config.M))
    laws = ChainLaws.of(config.spec)
    rngs = _chain_rngs(config.seed, config.M, min(config.M, _rows(laws, config.steps)[1]))
    _superpose(laws, config.steps, rngs, values)
    return CountSeries(values=values, config=config)


def sample_acvf(series, hmax: int) -> np.ndarray:
    """Biased sample autocovariance (divisor n), which is positive semidefinite.

    ``series`` holds integers or floats and is read in place, ``BLOCK`` values
    at a time.  The mean is its sum over n: an integer sum is exact (while it
    fits 64 bits, in which numpy sums any integer type), a float one is
    numpy's pairwise sum, and on integer-valued floats the two agree.  Each
    block is centred into one buffer behind the last ``hmax`` centred values
    of the block before, and the lag-h products of its values are one dot
    product per lag, added to the running sums; so nothing series-sized is
    made, and the block size moves only the rounding of those sums.
    """
    y = np.asarray(series.values if isinstance(series, CountSeries) else series)
    if y.dtype.kind not in "biu":
        y = y.astype(float, copy=False)
    n = len(y)
    if hmax >= n:
        raise ValueError("hmax must be smaller than the series length")
    mean = y.sum() / n
    buf, sums = np.zeros(hmax + min(n, BLOCK)), np.zeros(hmax + 1)  # the zeros stand before time 0
    for lo in range(0, n, BLOCK):
        block = y[lo : lo + BLOCK]
        k = len(block)
        cur = np.subtract(block, mean, out=buf[hmax : hmax + k])
        for h in range(hmax + 1):
            sums[h] += np.dot(cur, buf[hmax - h : hmax - h + k])
        buf[:hmax] = buf[k : k + hmax]
    return sums / n


def context_frequencies(bits, order: int) -> np.ndarray:
    """Counts ``tally[c, x]`` of the times t >= ``order`` whose context is c and whose bit is x.

    The context code c = x_{t-1} + 2 x_{t-2} + ... + 2**(order-1) x_{t-order}
    is that of :func:`.markov.context_hazards`, so ``tally[c, 1] / tally[c].sum()``
    estimates ``context_hazards(spec, order)[c]``; ``tally.ravel()`` is indexed
    by the window code x_t + 2 x_{t-1} + ... of :func:`.markov.window_law`.
    The codes of ``BLOCK`` times at a time are built in the smallest unsigned
    type that holds them, and each block's tally is added to the whole.
    """
    bits = np.asarray(bits)
    n = len(bits)
    if n <= order:
        raise ValueError("bit sequence too short for the requested context length")
    # the window code, x_{t-order} in the top bit down to x_t in bit 0
    # (the unsafe cast lets float 0.0/1.0 bits count as integers)
    buf = np.empty(min(n - order, BLOCK), dtype=np.min_scalar_type(2 ** (order + 1) - 1))
    tally = np.zeros(2 ** (order + 1), dtype=np.intp)
    for lo in range(order, n, BLOCK):
        codes = buf[: min(BLOCK, n - lo)]
        np.copyto(codes, bits[lo - order : lo - order + len(codes)], casting="unsafe")
        for j in range(order - 1, -1, -1):
            codes <<= 1
            np.add(codes, bits[lo - j : lo - j + len(codes)], out=codes, casting="unsafe")
        tally += np.bincount(codes, minlength=len(tally))
    return tally.reshape(-1, 2)
