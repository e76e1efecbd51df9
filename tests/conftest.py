import sys
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


@pytest.fixture(scope="session")
def small_battery():
    """Quick cross-module battery: 10 Dirichlet specs per head length 1..5."""
    return dirichlet_specs(1234, ps=(1, 2, 3, 4, 5), per_p=10)
