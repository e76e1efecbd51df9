"""Reference quantities computed from a head and tail rate alone.

Nothing here imports renewal_arma: these are the benchmark's own
computations, against which the program's outputs are checked and by which
battery draws that hit a known program fault are left out.

A lifetime has ``P(L = n) = head[n-1]`` for ``n <= p`` and
``(1 - r) (1 - sum(head)) r**(n-p-1)`` beyond.
"""

from __future__ import annotations

import math

import numpy as np


def pmf(head, r: float, n: int) -> np.ndarray:
    """``f_1..f_n`` as an array of length n (index 0 holds f_1)."""
    p = len(head)
    f = np.zeros(n)
    f[: min(p, n)] = head[:n]
    if n > p:
        tail_first = (1.0 - r) * (1.0 - math.fsum(head))
        f[p:] = tail_first * r ** np.arange(n - p)
    return f


def mean(head, r: float) -> float:
    """E[L] as the sum of n f_n, with the geometric tail summed in closed form."""
    p = len(head)
    tail_first = (1.0 - r) * (1.0 - math.fsum(head))
    head_part = math.fsum((i + 1) * f for i, f in enumerate(head))
    # sum_{k>=0} (p + 1 + k) r**k = (p + 1)/(1 - r) + r/(1 - r)**2
    return head_part + tail_first * ((p + 1) / (1.0 - r) + r / (1.0 - r) ** 2)


def renewal_acvf(head, r: float, M: int, hmax: int) -> np.ndarray:
    """``gamma(0..hmax) = (M/mu) (u_h - 1/mu)`` from u_0 = 1, u_n = sum_j u_j f_{n-j}."""
    f = pmf(head, r, hmax)
    u = np.zeros(hmax + 1)
    u[0] = 1.0
    for n in range(1, hmax + 1):
        u[n] = sum(u[j] * f[n - j - 1] for j in range(n))
    mu = mean(head, r)
    return (M / mu) * (u - 1.0 / mu)


def pgf_polys(head, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending numerator P and denominator Q of the lifetime pgf, Q = 1 - r z.

    P(z) = z [f_1 + sum_{i=1..p} (f_{i+1} - f_i r) z**i] with f_{p+1} the
    first tail probability.
    """
    p = len(head)
    f = list(head) + [(1.0 - r) * (1.0 - math.fsum(head))]
    P = np.array([0.0, f[0]] + [f[i] - f[i - 1] * r for i in range(1, p + 1)])
    Q = np.zeros(len(P))
    Q[0] = 1.0
    Q[1] -= r
    return P, Q


def ar_ma_root_gap(head, r: float) -> float:
    """Smallest distance between an AR root and an outside spectral (MA) root.

    AR roots are those of (Q - P)/(1 - z); MA roots are the outside members of
    the reciprocal pairs of (Q Q* - P P*) / ((1 - z)(1 - 1/z)).
    """
    P, Q = pgf_polys(head, r)
    ar = np.polydiv((Q - P)[::-1], [-1.0, 1.0])[0]
    d = len(P) - 1
    c = np.array([Q[: d + 1 - h] @ Q[h:] - P[: d + 1 - h] @ P[h:] for h in range(d + 1)])
    spectral = np.polydiv(np.concatenate([c[::-1], c[1:]]), [1.0, -2.0, 1.0])[0]
    ma = [z for z in np.roots(spectral) if abs(z) > 1.0] if len(spectral) > 1 else []
    return min((abs(a - b) for a in np.roots(ar) for b in ma), default=math.inf)


def phi_p2(f1: float, f2: float, r: float) -> tuple[float, float]:
    """The paper's closed form at p = 2: phi_1 = r + f_1 - 1, phi_2 = f_2 r - f_3."""
    f3 = (1.0 - r) * (1.0 - f1 - f2)
    return r + f1 - 1.0, f2 * r - f3


def batch_se(x: np.ndarray, batches: int = 30) -> float:
    """Standard error of the mean of a correlated series, from batch means."""
    n = len(x) // batches
    means = x[: n * batches].reshape(batches, n).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(batches))
