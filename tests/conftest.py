import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from renewal_arma import make_constant_hazard
from renewal_arma.polynomials import Poly

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from battery_sweep import draw_spec  # noqa: E402  (one copy of the Dirichlet draw rule)


@pytest.fixture
def p2_spec():
    """Running two-term-head example: f1=0.2, f2=0.3, r=0.6 (mu = 3.05)."""
    return make_constant_hazard([0.2, 0.3], 0.6)


@pytest.fixture
def geometric_spec():
    """Memoryless lifetime P(L=n) = 0.5**n."""
    return make_constant_hazard([], 0.5)


def dirichlet_specs(seed, ps=(1, 2, 3, 5, 10, 20, 30), per_p=2):
    """Heads drawn as Dirichlet weights by ``battery_sweep.draw_spec``, which reach every p."""
    rng = np.random.default_rng(seed)
    return [draw_spec(rng, p) for p in ps for _ in range(per_p)]


def lifetime_sums(seed, k, count):
    """``count`` pgf pairs ``(num, den)`` of sums of ``k`` independent lifetimes:
    each the product of ``k`` Dirichlet lifetimes' pgfs with p in {1, 2}."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        num, den = Poly((1.0,)), Poly((1.0,))
        for _ in range(k):
            pgf = draw_spec(rng, int(rng.integers(1, 3))).pgf()
            num, den = num * pgf.num, den * pgf.den
        out.append((num, den))
    return out


def exact_moments(spec) -> tuple[Fraction, Fraction]:
    """E[L] and E[L**2] in rational arithmetic from the head, r and the geometric tail sums."""
    head, r = [Fraction(f) for f in spec.head], Fraction(spec.r)
    tail = (1 - r) * (1 - sum(head))  # f_{p+1}; then f_{p+1+k} = tail * r**k
    a = len(head) + 1
    s0, s1, s2 = 1 / (1 - r), r / (1 - r) ** 2, r * (1 + r) / (1 - r) ** 3  # sum of k**j r**k
    m1 = sum(n * f for n, f in enumerate(head, 1)) + tail * (a * s0 + s1)
    m2 = sum(n * n * f for n, f in enumerate(head, 1)) + tail * (a * a * s0 + 2 * a * s1 + s2)
    return m1, m2


def exact_variance(spec) -> Fraction:
    """Var[L] in rational arithmetic."""
    m1, m2 = exact_moments(spec)
    return m2 - m1 * m1


def exact_acvf(spec, M, hmax) -> list[Fraction]:
    """gamma(0..hmax) of M superposed stationary chains in rational arithmetic:
    gamma(h) = (M/mu)(u_h - 1/mu), with u_0 = 1 and the renewal recursion
    u_n = f_1 u_{n-1} + ... + f_n u_0."""
    head, r = [Fraction(f) for f in spec.head], Fraction(spec.r)
    tail = (1 - r) * (1 - sum(head))
    f = [Fraction(0), *head, *(tail * r ** k for k in range(hmax))]
    mu = exact_moments(spec)[0]
    u = [Fraction(1)]
    for n in range(1, hmax + 1):
        u.append(sum(f[k] * u[n - k] for k in range(1, n + 1)))
    return [M / mu * (x - 1 / mu) for x in u]


@pytest.fixture(scope="session")
def small_battery():
    """Quick cross-module battery: 10 Dirichlet specs per head length 1..5."""
    return dirichlet_specs(1234, ps=(1, 2, 3, 4, 5), per_p=10)
