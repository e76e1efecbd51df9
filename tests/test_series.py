"""The rational-series kernel against the term-by-term loops it replaced and
against exact forward substitution.

``renewal_recursion`` and ``psi_recursion`` are those loops, kept here as
references: the O(N^2) renewal convolution and the one-term-at-a-time
MA(infinity) recurrence.  ``exact_series`` is the recurrence in exact
rationals.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import dirichlet_specs
from battery_sweep import draw_spec
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


def exact_series(num, den, terms):
    """The first ``terms`` coefficients of num/den by forward substitution in exact
    rationals, each rounded once to the nearest double.

    Every coefficient is a ``Fraction``; over their common denominator they are
    integers N_i and D_j, and y_n = Y_n / D_0**(n + 1) with the integer
    Y_n = N_n D_0**n - sum_{j>=1} D_j Y_{n-j} D_0**(j - 1), the sum taken by
    Horner's rule in D_0.  Dividing the two integers rounds once.
    """
    fracs = [Fraction(c) for c in (*num, *den)]
    scale = math.lcm(*(f.denominator for f in fracs))
    N = [int(f * scale) for f in fracs[: len(num)]]
    D = [int(f * scale) for f in fracs[len(num) :]]
    Y, out, power = [], [], 1
    for n in range(terms):
        acc = 0
        for j in range(min(n, len(D) - 1), 0, -1):
            acc = acc * D[0] + D[j] * Y[n - j]
        Y.append((N[n] * power if n < len(N) else 0) - acc)
        power *= D[0]
        out.append(Y[n] / power)
    return np.array(out)


def assert_exact(num, den, terms):
    """rational_series(num, den, terms) is within TOL, relative to the largest term, of exact_series."""
    got = rational_series(Poly(num), Poly(den), terms)
    want = exact_series(Poly(num).coeffs, Poly(den).coeffs, terms)
    assert got.shape == (terms,)
    err = np.max(np.abs(got - want), initial=0.0)
    assert err <= TOL * max(1.0, np.max(np.abs(want), initial=0.0)), err


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

    def test_kept_rows_do_not_change_the_series(self, specs):
        # a den keeps the rows of its longest expansion; a shorter one reads their prefix,
        # a longer one builds them again, and neither changes a bit of the result
        for spec in specs:
            pgf = spec.pgf()
            num, den = pgf.den.coeffs, pgf.renewal_denominator().coeffs
            kept = Poly(den)
            for terms in (501, 51, 2, 3000, 200):
                assert np.array_equal(rational_series(Poly(num), kept, terms),
                                      rational_series(Poly(num), Poly(den), terms)), (spec.p, terms)
            assert not kept._series_rows.flags.writeable

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


class TestExactSeries:
    """rational_series against exact_series."""

    def test_renewal_series_does_not_decay(self, p2_spec):
        # den / (den - num) has its pole at z = 1: u_n tends to 1/mu, not to 0
        pgf = p2_spec.pgf()
        assert_exact(pgf.den.coeffs, (pgf.den - pgf.num).coeffs, 3000)

    @pytest.mark.parametrize("p", [30, 120])
    def test_high_order_renewal_series(self, p):
        pgf = draw_spec(np.random.default_rng(0), p).pgf()
        assert_exact(pgf.den.coeffs, (pgf.den - pgf.num).coeffs, 2000)

    @pytest.mark.parametrize("pair", [(-0.6, 0.49), (-0.99, 0.9801)])
    def test_psi_series_near_circle(self, pair):
        # an AR root at 1/0.99 beside a complex pair of modulus 1/0.7 or 1/0.99 (at +-60 degrees):
        # psi_j decays as 0.99**j, so 4000 terms reach 2e-18 of the peak
        phi = Poly((1.0, -0.99)) * Poly((1.0,) + pair)
        assert_exact((1.0, 0.4, -0.2), phi.coeffs, 4000)

    @pytest.mark.parametrize("terms", [0, 1, 2, 3, 4, 5, 6, 40])
    def test_short_series(self, terms):
        # terms below, at and past deg den = 4, and deg num = 6 at or past terms
        num = (0.5, 0.25, -1.0, 2.0, 0.125, 3.0, -0.75)
        den = (1.0, -0.5, 0.25, -0.125, 0.0625)
        assert_exact(num, den, terms)
        assert_exact(num[:1], den, terms)
        assert_exact((), den, terms)

    @pytest.mark.parametrize("den", [(2.0,), (3.0,), (-0.1,), (3.0, 0.0, 0.0, 0.0)])
    def test_constant_denominator(self, den):
        # a series of num / den_0 that ends where num does
        for terms in (0, 1, 3, 9):
            assert_exact((0.5, 0.25, -1.0, 2.0), den, terms)

    def test_long_numerator_over_short_denominator(self):
        # the pmf series' shape: deg num far past deg den, over several blocks
        num = tuple(np.random.default_rng(3).uniform(-1.0, 1.0, 90))
        assert_exact(num, (1.0, -0.7), 3000)
        assert_exact(num, (2.0, -0.7, 0.1), 60)
