"""Markov structure of renewal indicator chains and their superposition.

Past lag p the lifetime has the constant hazard 1 - r, so one indicator chain
is a finite Markov chain on its *capped age* a in {0, .., p}: the time since
the last renewal, with every age from p on lumped into the last state
(Feller 1968, vol. 1, ch. XIII).  From age a the chain renews at the next
step with the hazard

    h[a] = f_{a+1} / P(L > a)  for a < p,        h[p] = 1 - r,

and moves to age 0; otherwise it moves to age min(a + 1, p).  Its stationary
law P(L > a)/E[L], with the last state holding the whole tail, is the
equilibrium-delay law of the lifetime.  Hence X_t is Markov of order p: a
context (x_{t-1}, .., x_{t-k}) with k >= p fixes the capped age, and the
conditional renewal probability is that age's hazard.

:func:`age_chain` builds the chain, :func:`window_law` steps it to the exact
law of any window of bits, and :func:`context_hazards` gives the conditionals.
Windows and contexts are coded as integers with x_t in bit 0, x_{t-1} in bit
1, and so on (contexts start at x_{t-1}).  Simulated bits are counted in the
same codes by :func:`.simulate.context_frequencies`, so a table of counts
lines up cell for cell with :func:`window_law` and :func:`context_hazards`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .lifetime import LifetimeSpec


def age_chain(spec: LifetimeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Hazards ``h[0..p]`` and stationary law ``pi[0..p]`` of the capped-age chain.

    An age a < p with P(L > a) = 0 is never reached; its hazard is set to 1.
    """
    p, mu = spec.p, spec.mean()
    alive = spec.survivals(p)
    hazard = np.ones(p + 1)
    np.divide(spec.head, alive[:p], out=hazard[:p], where=alive[:p] > 0.0)
    hazard[p] = 1.0 - spec.r
    stationary = alive / mu
    stationary[p] /= 1.0 - spec.r  # P(L > a) is geometric in a >= p
    return hazard, stationary


def window_law(spec: LifetimeSpec, w: int) -> np.ndarray:
    """Stationary law of the window (X_t, .., X_{t-w+1}) of one chain.

    Entry c is the probability of the window whose bits are
    x_t + 2 x_{t-1} + 4 x_{t-2} + ...; the 2**w entries sum to 1.
    """
    hazard, law = age_chain(spec)
    law = law[:, None]  # law[a, c]: the chain is at age a and the window so far reads c
    for _ in range(w):
        renew, stay = hazard[:, None] * law, (1.0 - hazard)[:, None] * law
        law = np.zeros((len(hazard), 2 * law.shape[1]))
        law[0, 1::2] = renew.sum(axis=0)  # the new bit enters at the bottom
        law[1:, 0::2] = stay[:-1]
        law[-1, 0::2] += stay[-1]
    return law.sum(axis=0)


def context_hazards(spec: LifetimeSpec, k: int) -> np.ndarray:
    """P(X_t = 1 | context c) for every context of length k >= p.

    Context c codes x_{t-1} + 2 x_{t-2} + ...; its capped age is the position
    of its lowest set bit, or p when the last p bits are all zero.
    """
    p = spec.p
    if k < p:
        raise ValueError(f"a context shorter than p = {p} does not fix the capped age")
    hazard, _ = age_chain(spec)
    codes = np.arange(2 ** k)
    age = np.full(2 ** k, p)
    for j in reversed(range(p)):
        age[(codes >> j) & 1 == 1] = j
    return hazard[age]


def window_marginals(law: np.ndarray) -> np.ndarray:
    """P(X_{t-j} = 1) for each position j of a window law; all equal 1/E[L]."""
    w = len(law).bit_length() - 1
    codes = np.arange(len(law))
    return np.array([law[(codes >> j) & 1 == 1].sum() for j in range(w)])


def _require_p2(spec: LifetimeSpec) -> None:
    if spec.p != 2:
        raise ValidationError("second-order tables require a head of exactly two probabilities")


def joint_probs_p2(spec: LifetimeSpec) -> dict[str, float]:
    """The three-bit window law keyed as the ``markov`` command emits it.

    ``q`` is the all-zero cell and ``p`` followed by indices names the bits
    that are 1, with 1 <-> X_t, 2 <-> X_{t-1}, 3 <-> X_{t-2}: ``p13`` is
    P(X_t = 1, X_{t-1} = 0, X_{t-2} = 1).
    """
    _require_p2(spec)
    keys = ["p" + "".join(str(j + 1) for j in range(3) if c >> j & 1) for c in range(8)]
    keys[0] = "q"
    return dict(zip(keys, window_law(spec, 3).tolist()))


def conditional_probs_p2(spec: LifetimeSpec) -> dict[str, float]:
    """The eight conditionals P(X_t = x | X_{t-1} = a, X_{t-2} = b).

    Keys read ``pxgab``: ``p1g00`` is P(X_t=1 | 0, 0) = 1 - r, ``p1g01`` is
    f2 / (1 - f1), and ``p1g10`` = ``p1g11`` is f1.
    """
    _require_p2(spec)
    ones = context_hazards(spec, 2).tolist()
    pairs = [(a, b) for a in (0, 1) for b in (0, 1)]
    table = {f"p1g{a}{b}": ones[a + 2 * b] for a, b in pairs}
    table.update({f"p0g{a}{b}": 1.0 - ones[a + 2 * b] for a, b in pairs})
    return table


def step_pair_law(law: np.ndarray, hazards: np.ndarray) -> np.ndarray:
    """Push the law of a k-bit context through the order-k conditional kernel.

    ``law`` is indexed by context code (x_{t-1} in bit 0) and ``hazards`` by
    the same code.  The image is the law of the window one step later; under
    stationarity it equals the input law.
    """
    window = np.empty(2 * len(law))
    window[0::2] = law * (1.0 - hazards)
    window[1::2] = law * hazards
    return window.reshape(2, -1).sum(axis=0)  # drop the oldest bit


def mgf_trivariate(law: np.ndarray, M: int, s1: float, s2: float, s3: float) -> float:
    """Moment generating function E[exp(s1 Y_t + s2 Y_{t-1} + s3 Y_{t-2})].

    ``law`` is the three-bit window law of one chain, which contributes the
    mixture sum_c law[c] * prod_{j: bit j of c} exp(s_{j+1}); superposing M
    independent chains raises it to the M-th power.  Raises
    :class:`ValidationError` when that value overflows a float.
    """
    bits = (np.arange(8)[:, None] >> np.arange(3)) & 1
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        one_chain = math.fsum(law * np.where(bits, np.exp([s1, s2, s3]), 1.0).prod(axis=1))
        value = float(np.float64(one_chain) ** M)
    if not math.isfinite(value):
        raise ValidationError(f"the MGF at exponents ({s1}, {s2}, {s3}) overflows a float for M = {M}")
    return value
