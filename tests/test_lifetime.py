import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewal_arma.errors import LatticeError, ValidationError
from renewal_arma.lifetime import (
    LifetimeSpec,
    make_constant_hazard,
    make_rational_pgf,
)
from renewal_arma.markov import age_chain
from renewal_arma.polynomials import Poly, deflate_at_one, rational_series
from conftest import dirichlet_specs, lifetime_sums


@st.composite
def specs(draw, max_p=4):
    p = draw(st.integers(0, max_p))
    if p == 0:
        return make_constant_hazard([], draw(st.floats(0.05, 0.9)))
    head = [draw(st.floats(0.01, 0.95)) for _ in range(p)]
    scale = draw(st.floats(0.1, 0.9)) / sum(head)
    head = [f * scale for f in head]
    r = draw(st.one_of(st.just(0.0), st.floats(0.05, 0.9)))
    return make_constant_hazard(head, r)


class TestMakeConstantHazard:
    def test_geometric(self):
        spec = make_constant_hazard([0.5], 0.5)
        assert spec.pmfs(2)[1] == pytest.approx(0.25)
        assert spec.tail_first == pytest.approx(0.25)
        assert spec.r == 0.5

    def test_p2_example_tail(self):
        spec = make_constant_hazard([0.2, 0.3], 0.6)
        assert spec.tail_first == pytest.approx(0.2)
        assert spec.pmfs(4)[3] == pytest.approx(0.2 * 0.6)

    def test_invalid_probability(self):
        with pytest.raises(ValidationError):
            make_constant_hazard([1.1], 0.5)

    def test_negative_probability(self):
        with pytest.raises(ValidationError):
            make_constant_hazard([-0.1], 0.5)

    def test_mass_violation(self):
        with pytest.raises(ValidationError, match="sum"):
            make_constant_hazard([0.7, 0.4], 0.2)

    def test_tail_rate_range(self):
        with pytest.raises(ValidationError):
            make_constant_hazard([0.5], 1.0)

    def test_zero_f1_needs_flag(self):
        with pytest.raises(ValidationError, match="f_1"):
            make_constant_hazard([0.0, 0.5], 0.5)
        spec = make_constant_hazard([0.0, 0.5], 0.5, allow_zero_f1=True)
        assert spec.pmfs(1)[0] == 0.0

    def test_lattice_rejected(self):
        with pytest.raises(LatticeError):
            make_constant_hazard([0.0, 1.0], 0.0, allow_zero_f1=True)

    def test_shifted_lattice_rejected(self):
        # support {1, 3} has gcd 1, but the theorem needs the gcd of its differences
        with pytest.raises(LatticeError, match=r"\[1, 3\]"):
            make_constant_hazard([0.4, 0.0, 0.6], 0.0)

    def test_one_point_support_is_lattice(self):
        with pytest.raises(LatticeError, match=r"\[3\]"):
            make_constant_hazard([0.0, 0.0, 1.0], 0.0, allow_zero_f1=True)

    def test_degenerate_unit_lifetime_rejected(self):
        with pytest.raises(ValidationError):
            make_constant_hazard([], 0.0)

    def test_two_point_support(self):
        spec = make_constant_hazard([0.9], 0.0)
        assert spec.mean() == pytest.approx(1.1)


class TestPmfMoments:
    def test_geometric_pmf(self, geometric_spec):
        assert geometric_spec.pmfs(3)[2] == pytest.approx(0.125)

    def test_p2_tail_pmf(self, p2_spec):
        assert p2_spec.pmfs(5)[4] == pytest.approx(0.2 * 0.36)

    def test_p2_head_readback(self, p2_spec):
        assert p2_spec.pmfs(2)[1] == 0.3

    def test_pmfs_rejects_negative_count(self, p2_spec):
        with pytest.raises(ValueError):
            p2_spec.pmfs(-1)

    def test_geometric_moments(self, geometric_spec):
        assert geometric_spec.mean() == pytest.approx(2.0)
        assert geometric_spec.variance() == pytest.approx(2.0)

    def test_p2_mean(self, p2_spec):
        assert p2_spec.mean() == pytest.approx(3.05)
        # alternative closed form via the constant-hazard structure
        f1, f2, r = 0.2, 0.3, 0.6
        assert p2_spec.mean() == pytest.approx(1 - f1 + (2 - r - f1 - f2) / (1 - r))

    @given(specs())
    @settings(max_examples=60, deadline=None)
    def test_moments_match_series(self, spec):
        n, f = np.arange(1, 2500), spec.pmfs(2499)
        mean_series = math.fsum(n * f)
        var_series = math.fsum(n * n * f) - mean_series ** 2
        assert spec.mean() == pytest.approx(mean_series, abs=1e-10)
        assert spec.variance() == pytest.approx(var_series, abs=1e-8)

    @given(specs())
    @settings(max_examples=60, deadline=None)
    def test_pmf_sums_with_closed_tail(self, spec):
        total = math.fsum(spec.pmfs(100)) + spec.survivals(100)[100]
        assert abs(total - 1.0) < 1e-12


class TestHazard:
    """The hazard P(L = k | L >= k) = pmf(k) / P(L > k - 1), read off the arrays
    and off the capped-age chain, whose age a holds the hazard of lag a + 1."""

    def test_constant_after_lag(self, p2_spec):
        assert p2_spec.pmfs(7)[6] / p2_spec.survivals(6)[6] == pytest.approx(0.4)
        assert age_chain(p2_spec)[0][-1] == pytest.approx(0.4)  # every lag past p

    def test_memoryless_everywhere(self, geometric_spec):
        assert age_chain(geometric_spec)[0].tolist() == [0.5]

    def test_head_hazard(self, p2_spec):
        assert age_chain(p2_spec)[0][0] == pytest.approx(0.2)
        assert age_chain(p2_spec)[0][1] == pytest.approx(0.3 / 0.8)

    @given(specs())
    @settings(max_examples=40, deadline=None)
    def test_exactly_one_minus_r_in_tail(self, spec):
        if spec.r == 0.0:
            return
        p = spec.p
        hazards = spec.pmfs(p + 20)[p:] / spec.survivals(p + 19)[p:]  # lags p + 1 .. p + 20
        assert np.all(np.abs(hazards - (1.0 - spec.r)) < 1e-14)
        assert age_chain(spec)[0][-1] == 1.0 - spec.r

    def test_no_survivors(self):
        # P(L > 2) = 0: the ages 2 and 3 are never reached, and the chain
        # gives them hazard 1 instead of dividing by zero
        spec = make_constant_hazard([0.5, 0.5, 0.0], 0.0)
        with np.errstate(all="raise"):
            hazard, law = age_chain(spec)
        assert hazard.tolist() == [0.5, 1.0, 1.0, 1.0]
        assert law[2:].tolist() == [0.0, 0.0]


class TestPgf:
    def test_geometric(self, geometric_spec):
        pgf = geometric_spec.pgf()
        assert pgf.num.coeffs == pytest.approx((0.0, 0.5))
        assert pgf.den.coeffs == pytest.approx((1.0, -0.5))

    def test_one_term_head_reduces(self):
        pgf = make_constant_hazard([0.5], 0.5).pgf()
        assert pgf.num.coeffs == pytest.approx((0.0, 0.5))

    def test_p2_example(self, p2_spec):
        pgf = p2_spec.pgf()
        assert pgf.num.coeffs == pytest.approx((0.0, 0.2, 0.18, 0.02))
        assert pgf.den.coeffs == pytest.approx((1.0, -0.6))

    def test_finite_support_polynomial(self):
        pgf = make_constant_hazard([0.9], 0.0).pgf()
        assert pgf.num.coeffs == pytest.approx((0.0, 0.9, 0.1))
        assert pgf.den.coeffs == (1.0,)

    def test_tiny_tail_mass(self):
        # tail mass 1e-13: the pair is coprime by construction, but
        # common_root reads it as shared (the numerator is 6.7e-14 of its
        # size at the pole 2), so only pgf(), which skips validation, builds it
        spec = make_constant_hazard([0.5, 0.5 - 1e-13], 0.5)
        coeffs = spec.pgf().series(50)
        assert coeffs[1:].tolist() == spec.pmfs(49).tolist()

    @given(specs())
    @settings(max_examples=60, deadline=None)
    def test_series_matches_pmf(self, spec):
        coeffs = spec.pgf().series(200)
        assert np.all(np.abs(coeffs[1:] - spec.pmfs(199)) < 1e-12)

    @given(specs())
    @settings(max_examples=60, deadline=None)
    def test_quotient_rule_moments(self, spec):
        # the pgf's moments come from its survival series A/Q, not the closed form
        pgf = spec.pgf()
        assert abs(pgf.mean() - spec.mean()) < 1e-10
        assert abs(pgf.variance() - spec.variance()) < 1e-10

    @pytest.mark.parametrize("r", [0.99, 0.999, 0.9999])
    def test_mean_near_unit_tail_rate(self, r):
        # A(1)/Q(1) divides by 1 - r only once, so the mean keeps its relative precision as r -> 1
        spec = make_constant_hazard([0.2, 0.3], r)
        f1, f2, rr = (Fraction(x) for x in (*spec.head, spec.r))
        tail = (1 - rr) * (1 - f1 - f2)
        exact = f1 + 2 * f2 + tail * (3 - 2 * rr) / (1 - rr) ** 2
        assert abs(Fraction(spec.pgf().mean()) - exact) / exact < 1e-14

    def test_survival_series(self):
        # A/Q with A = (Q - P)/(1 - z) is the survival series P(L > j), j = 0..n
        for spec in dirichlet_specs(11):
            pgf = spec.pgf()
            series = rational_series(pgf.survival_numerator(), pgf.den, 301)
            assert np.max(np.abs(series - spec.survivals(300))) <= 1e-14, spec

    def test_survival_numerator_kept(self, p2_spec):
        # built on the first call and kept, outside equality and replace
        pgf = p2_spec.pgf()
        a = pgf.survival_numerator()
        assert pgf.survival_numerator() is a and pgf.renewal_denominator() is pgf.renewal_denominator()
        assert a == deflate_at_one(pgf.den - pgf.num) and pgf.renewal_denominator() == pgf.den - pgf.num
        assert pgf == dataclasses.replace(pgf)
        assert dataclasses.replace(pgf)._survival is None and dataclasses.replace(pgf)._renewal is None


class TestMakeRationalPgf:
    def test_normalizes_den_constant(self):
        pgf = make_rational_pgf(Poly((0.0, 1.0)), Poly((2.0, -1.0)))
        assert pgf.den.coeffs[0] == 1.0
        assert pgf(1.0) == pytest.approx(1.0)

    def test_rejects_mass_at_zero(self):
        with pytest.raises(ValidationError, match="z=0"):
            make_rational_pgf(Poly((0.5, 0.5)), Poly((1.0,)))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError, match="z=1"):
            make_rational_pgf(Poly((0.0, 0.5)), Poly((1.0,)))

    def test_rejects_common_factor(self):
        # both numerator and denominator carry the factor (1 - 0.5 z)
        num = Poly((0.0, 0.5)) * Poly((1.0, -0.5))
        den = Poly((1.0, -0.5)) * Poly((1.0, -0.5))
        with pytest.raises(ValidationError, match="lowest terms"):
            make_rational_pgf(num, den)

    def test_rejects_negative_series(self):
        # F(1) = 1 but the series has a negative coefficient
        with pytest.raises(ValidationError, match="negative"):
            make_rational_pgf(Poly((0.0, 1.5, -0.5)), Poly((1.0,)))

    @pytest.mark.parametrize("num,den", [
        ((0.0, 2.0, -2.5), (1.0, -1.5)),  # pole at 2/3: series 0, 2, 0.5, 0.75, ...
        ((0.0, 2.0), (1.0, 1.0)),  # pole at -1, on the circle
    ])
    def test_rejects_pole_in_closed_disk(self, num, den):
        with pytest.raises(ValidationError, match="pole"):
            make_rational_pgf(Poly(num), Poly(den))

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_accepts_lifetime_sums(self, k):
        # the pgf of a sum of k lifetimes is the product of theirs: degree up to 3k over k
        for num, den in lifetime_sums(k, k, 50):
            make_rational_pgf(num, den)

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_refuses_lifetime_sums_with_shared_factor(self, k):
        # each shared factor keeps F(1) = 1: a real one on both sides, a double
        # one on one side against a simple one on the other, a complex pair
        rng = np.random.default_rng(k)
        pair = Poly((1.0, -1.0, 0.34))
        for num, den in lifetime_sums(k, k, 20):
            a = rng.uniform(-0.9, 0.9)
            f = Poly((1.0, -a))
            f2 = (f * f).scale(1.0 / (1.0 - a))
            for bad in [(num * f, den * f), (num * f2, den * f), (num * f, den * f2), (num * pair, den * pair)]:
                with pytest.raises(ValidationError, match="lowest terms"):
                    make_rational_pgf(*bad)


class TestEquilibrium:
    """The equilibrium delay law b_n = P(L > n) / E[L], read off ``survivals``."""

    def test_geometric_at_zero(self, geometric_spec):
        assert geometric_spec.survivals(0)[0] / geometric_spec.mean() == pytest.approx(0.5)

    def test_geometric_at_two(self, geometric_spec):
        assert geometric_spec.survivals(2)[2] / geometric_spec.mean() == pytest.approx(0.125)

    def test_normalization(self, p2_spec):
        head = math.fsum(p2_spec.survivals(499) / p2_spec.mean())
        # closed-form remainder of the geometric tail of b
        mu, r, p = p2_spec.mean(), p2_spec.r, p2_spec.p
        tail = p2_spec.tail_first * r ** (500 - p) / ((1 - r) ** 2 * mu)
        assert head + tail == pytest.approx(1.0, abs=1e-12)

    def test_negative_rejected(self, p2_spec):
        with pytest.raises(ValueError):
            p2_spec.survivals(-1)


class TestSurvivals:
    @pytest.mark.parametrize("head,r", [
        ((), 0.5), ((), 0.9999), ((0.2, 0.3), 0.0), ((0.2, 0.3), 0.6), ((0.1, 0.2, 0.3), 0.9999),
    ])
    def test_matches_survival(self, head, r):
        # against the survival function summed from the pmf: 1 - fsum(f_1..f_j)
        spec = make_constant_hazard(head, r)
        p, n = spec.p, spec.p + 300
        got = spec.survivals(n)
        assert got.shape == (n + 1,)
        f = spec.pmfs(n)
        summed = np.array([1.0 - math.fsum(f[:j]) for j in range(n + 1)])
        assert got[:p].tolist() == summed[:p].tolist()  # bit for bit inside the head
        assert np.all(np.abs(got - summed) <= 1e-15)

    def test_horizon_inside_head(self):
        spec = make_constant_hazard([0.1, 0.2, 0.3], 0.5)
        assert spec.survivals(1).tolist() == [1.0, 1.0 - 0.1]


class TestPmfs:
    @pytest.mark.parametrize("head,r", [((0.2, 0.3), 0.0), ((0.2, 0.3), 0.6), ((), 0.5), ((0.1, 0.2, 0.3), 0.9999)])
    def test_matches_pmf(self, head, r):
        # against the pmf as the power series of the pgf, by long division
        spec = make_constant_hazard(head, r)
        p, n = spec.p, spec.p + 300
        got = spec.pmfs(n)
        assert got.shape == (n,)
        assert got[:p].tolist() == list(head)
        assert np.all(np.abs(got - spec.pgf().series(n + 1)[1:]) <= 1e-15)

    def test_horizon_inside_head(self):
        spec = make_constant_hazard([0.1, 0.2, 0.3], 0.5)
        assert spec.pmfs(2).tolist() == [0.1, 0.2]
        assert spec.pmfs(0).shape == (0,)


def test_spec_is_frozen(p2_spec):
    with pytest.raises(AttributeError):
        p2_spec.r = 0.5


def test_direct_dataclass_derives_tail():
    spec = LifetimeSpec(head=(0.2, 0.3), r=0.6)
    assert spec.tail_first == pytest.approx(0.2)
