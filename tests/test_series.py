"""The rational-series kernel against the term-by-term loops it replaced.

``renewal_recursion`` and ``psi_recursion`` are those loops, kept here as
references: the O(N^2) renewal convolution and the one-term-at-a-time
MA(infinity) recurrence.
"""

import numpy as np
import pytest

from conftest import dirichlet_specs
from renewal_arma import arma_acvf, factorize
from renewal_arma.polynomials import Poly, deflate_at_one, rational_series
from renewal_arma.renewal import renewal_probs

N = 2000
TOL = 1e-12


def renewal_recursion(spec, N):
    """``u[0..N]`` by u_0 = 1, u_n = sum_{j<n} u_j f_{n-j}."""
    u = np.zeros(N + 1)
    u[0] = 1.0
    f = spec.pmfs(N)
    for n in range(1, N + 1):
        u[n] = np.dot(u[:n], f[n - 1 :: -1])
    return u


def psi_recursion(phi, theta, length):
    """MA(infinity) weights psi_j = theta_j + sum_i phi_i psi_{j-i}, psi_0 = 1."""
    p, q = len(phi), len(theta)
    psi = np.zeros(length)
    psi[0] = 1.0
    for j in range(1, length):
        acc = theta[j - 1] if j <= q else 0.0
        for i in range(1, min(j, p) + 1):
            acc += phi[i - 1] * psi[j - i]
        psi[j] = acc
    return psi


@pytest.fixture(scope="module")
def specs(small_battery):
    return small_battery + dirichlet_specs(2024)


def arma_pair(spec):
    """A causal (phi, theta) pair of the spec: the deflated AR part over the pgf numerator."""
    pgf = spec.pgf()
    ar = deflate_at_one(pgf.den - pgf.num)
    ma = pgf.num.coeffs[1:]
    return tuple(-c / ar.coeffs[0] for c in ar.coeffs[1:]), tuple(c / ma[0] for c in ma[1:])


class TestRationalSeries:
    def test_exact_cases(self):
        geometric = rational_series(Poly((1.0,)), Poly((1.0, -0.5)), 6)
        assert geometric.tolist() == [0.5 ** n for n in range(6)]
        assert rational_series(Poly((3.0, 2.0, 1.0)), Poly((2.0,)), 2).tolist() == [1.5, 1.0]
        # a denominator longer than the requested series
        assert rational_series(Poly((1.0,)), Poly((1.0, 0.5, 0.25, 0.125)), 2).tolist() == [1.0, -0.5]
        assert rational_series(Poly(()), Poly((1.0, 0.5)), 3).tolist() == [0.0, 0.0, 0.0]
        assert rational_series(Poly((1.0,)), Poly((1.0,)), 0).size == 0

    def test_rejects_vanishing_constant_term(self):
        with pytest.raises(ValueError):
            rational_series(Poly((1.0,)), Poly((0.0, 1.0)), 4)
        with pytest.raises(ValueError):
            rational_series(Poly((1.0,)), Poly(()), 4)

    def test_renewal_probs_match_quadratic_recursion(self, specs):
        for spec in specs:
            err = np.max(np.abs(renewal_probs(spec.pgf(), N) - renewal_recursion(spec, N)))
            assert err <= TOL, (spec.p, err)

    def test_matches_psi_loop(self, specs, small_battery):
        pairs = [arma_pair(spec) for spec in specs]
        for spec in small_battery:
            model = factorize(spec.pgf(), 1)
            pairs.append((model.phi, model.theta))
        for phi, theta in pairs:
            got = rational_series(Poly((1.0,) + theta), Poly((1.0,) + tuple(-c for c in phi)), N)
            err = np.max(np.abs(got - psi_recursion(phi, theta, N)))
            assert err <= TOL, (len(phi), err)

    def test_arma_acvf_matches_psi_loop(self, small_battery):
        hmax = 50
        for spec in small_battery:
            model = factorize(spec.pgf(), 3)
            psi = psi_recursion(model.phi, model.theta, N + hmax)
            want = model.sigma2 * np.array([np.dot(psi[: N + hmax - h], psi[h:]) for h in range(hmax + 1)])
            assert np.max(np.abs(arma_acvf(model, hmax) - want)) <= TOL
