import sys
from pathlib import Path

import numpy as np
import pytest

from renewal_arma import make_constant_hazard

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


def random_spec(rng: np.random.Generator, p: int):
    """One well-conditioned random lifetime with p explicit head terms.

    Draws stay away from degenerate edges: quasi-periodic heads (tiny f_1 with
    a small tail rate mix too slowly for desk-scale limits), a vanishing
    leading numerator coefficient (the MA order would drop), and tail rates
    close to 1.  Within those margins the tolerances of every analytic
    identity hold with orders of magnitude to spare.
    """
    while True:
        head = rng.uniform(0.2, 1.0, size=p)
        head *= rng.uniform(0.3, 0.85) / head.sum()
        if head[0] < 0.15:
            continue
        r = rng.uniform(0.2, 0.9)
        f_next = (1.0 - r) * (1.0 - head.sum())
        if abs(f_next - head[-1] * r) < 1e-3:
            continue
        return make_constant_hazard(tuple(float(f) for f in head), float(r))


def make_battery(seed: int, per_p: int, ps=(1, 2, 3, 4, 5)):
    """``per_p`` draws of :func:`random_spec` for each head length in ``ps``, at most 5."""
    if max(ps) > 5:
        # random_spec's rejection loop slows as p grows: at p = 14 it had not returned after 20 s
        raise ValueError(f"make_battery draws heads of length at most 5, not {max(ps)}; "
                         f"use dirichlet_specs for longer heads")
    rng = np.random.default_rng(seed)
    return [(p, random_spec(rng, p)) for p in ps for _ in range(per_p)]


def dirichlet_specs(seed, ps=(1, 2, 3, 5, 10, 20, 30), per_p=2):
    """Heads drawn as Dirichlet weights by ``battery_sweep.draw_spec``, which reach every p."""
    rng = np.random.default_rng(seed)
    return [draw_spec(rng, p) for p in ps for _ in range(per_p)]


@pytest.fixture(scope="session")
def small_battery():
    """Quick cross-module battery: 10 specs per head length."""
    return make_battery(1234, per_p=10)
