import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renewal_arma.errors import FactorizationError
from renewal_arma.polynomials import (
    TRIM_REL,
    Poly,
    SymLaurent,
    common_root,
    deflate_at_one,
    divide_sym_by_unit_pair,
    factor_outside,
    roots,
    sym_product_diff,
    values,
)


def expand_from_roots(rts):
    """Monic polynomial with the given roots, by convolution."""
    coeffs = np.array([1.0 + 0.0j])
    for r in rts:
        coeffs = np.convolve(coeffs, [-r, 1.0])
    assert np.max(np.abs(coeffs.imag)) < 1e-12 * max(1.0, np.max(np.abs(coeffs)))
    return Poly(tuple(coeffs.real))


def well_separated(rts, gap=0.05):
    return all(abs(a - b) > gap for i, a in enumerate(rts) for b in rts[i + 1 :])


def sorted_roots(rts):
    return sorted(rts, key=lambda z: (round(z.real, 6), round(z.imag, 6)))


class TestEval:
    def test_root_of_linear(self):
        assert Poly((1.0, -1.0))(1.0) == 0.0

    def test_constant(self):
        assert Poly((1.0,))(1j) == 1.0

    def test_linear_at_two(self):
        assert Poly((1.0, -0.5))(2.0) == 0.0

    def test_zero_poly(self):
        assert Poly(())(3.7) == 0.0

    def test_trim_keeps_leading(self):
        p = Poly((0.0, 0.5, 0.0))
        assert p.coeffs == (0.0, 0.5)
        assert p.degree == 1

    def test_trim_drops_zeros_below_subnormal_top(self):
        # TRIM_REL * top underflows to 0 here; the zero must still go.
        assert Poly((2.225073858507e-311, 0.0)).degree == 0
        assert SymLaurent((2.225073858507e-311, 0.0)).c == (2.225073858507e-311,)


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u), with u the unit roundoff."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


def table_points(rng):
    """Real and complex points inside, on and outside the unit circle (|z| <= 3), with their reciprocals."""
    real = np.array([-3.0, -1.0, -0.5, 0.3, 0.9, 1.0, 1.1, 2.5, 3.0])
    cplx = np.array([0.3, 0.9, 1.0, 1.1, 2.0, 3.0]) * np.exp(2j * np.pi * rng.uniform(size=6))
    return np.concatenate((real, 1.0 / real)), np.concatenate((cplx, 1.0 / cplx))


class TestPowerTable:
    """An array is evaluated from one power table; checked against exact sums."""

    @pytest.mark.parametrize("degree", range(61))
    def test_within_horner_bound(self, degree):
        # |p(z) - exact| <= gamma_2n sum|c_i| |z|**i, Horner's bound for degree n, with the
        # exact sums in rational arithmetic at real points and in 60 digits at complex ones
        rng = np.random.default_rng(degree)
        p = Poly(tuple(rng.uniform(-1.0, 1.0, degree).tolist() + [1.0]))
        real, cplx = table_points(rng)
        for z, got in zip(real, p(real)):
            x = Fraction(float(z))
            exact = sum(Fraction(c) * x ** i for i, c in enumerate(p.coeffs))
            size = sum(abs(Fraction(c)) * abs(x) ** i for i, c in enumerate(p.coeffs))
            assert abs(Fraction(float(got)) - exact) <= Fraction(gamma(2 * degree)) * size, z
        with mpmath.workdps(60):
            for z, got in zip(cplx, p(cplx)):
                x = mpmath.mpc(z.real, z.imag)
                exact = mpmath.fsum(c * x ** i for i, c in enumerate(p.coeffs))
                size = mpmath.fsum(abs(c) * abs(x) ** i for i, c in enumerate(p.coeffs))
                assert abs(mpmath.mpc(got.real, got.imag) - exact) <= gamma(2 * degree) * size, z

    @pytest.mark.parametrize("degree", [0, 1, 2, 5, 13, 30, 60])
    def test_point_alone_same_bits(self, degree):
        rng = np.random.default_rng(100 + degree)
        p = Poly(tuple(rng.uniform(-1.0, 1.0, degree + 1)))
        grid = np.exp(2j * np.pi * np.arange(1, 64) / 64)
        for z in (*table_points(rng), grid, 1.0 / grid):
            alone = np.concatenate([p(z[j : j + 1]) for j in range(z.size)])
            assert alone.tobytes() == p(z).tobytes()

    def test_values_shares_one_table(self):
        a, b = Poly((1.0, -0.5, 0.25)), Poly((0.0, 2.0))
        z = np.array([[0.5, -2.0], [1j, 3.0 + 0.5j]])
        got = values((a, b), z)
        assert got.shape == (2, 2, 2)
        for poly, row in zip((a, b), got):
            for w, v in zip(z.ravel(), row.ravel()):
                assert v == pytest.approx(poly(complex(w)), rel=1e-15)

    def test_scalar_keeps_its_type(self):
        assert isinstance(Poly((1.0, 2.0))(1.0), float)
        assert Poly(())(np.array([1.0, 2.0])).tolist() == [0.0, 0.0]


class TestRoots:
    def test_linear(self):
        assert roots(Poly((1.0, -1.0))) == [pytest.approx(1.0)]

    def test_quadratic_sym(self):
        got = sorted_roots(roots(Poly((1.0, 0.0, -0.25))))
        assert got[0] == pytest.approx(-2.0)
        assert got[1] == pytest.approx(2.0)

    def test_degree5_known_roots(self):
        want = [-2.0, 2.0, 3.0, 1.5 + 0.5j, 1.5 - 0.5j]
        got = sorted_roots(roots(expand_from_roots(want)))
        for g, w in zip(got, sorted_roots(want)):
            assert abs(g - w) < 1e-9

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            roots(Poly((2.0,)))

    def test_conjugates_exact(self):
        p = expand_from_roots([1.2 + 3.4j, 1.2 - 3.4j, -5.0, 2.2 + 0.1j, 2.2 - 0.1j])
        got = roots(p)
        complexes = [z for z in got if z.imag != 0.0]
        for z in complexes:
            assert z.conjugate() in complexes

    def test_order_and_exact_conjugates(self):
        # the real roots first, in eigenvalue order, then each pair as (a, conj(a))
        # with a the upper member, pairs in eigenvalue order
        p = expand_from_roots([2.0, 1 + 2j, 1 - 2j, -3.0, -2 + 0.5j, -2 - 0.5j, 5.0, 4 + 3j, 4 - 3j])
        n = p.degree
        comp = np.diag(np.ones(n - 1), -1)
        comp[:, -1] = -np.asarray(p.coeffs[:n]) / p.coeffs[-1]
        eig = np.linalg.eigvals(comp)
        want = list(eig[eig.imag == 0.0]) + [z for a in eig[eig.imag > 0.0] for z in (a, a.conjugate())]
        got = roots(p)
        assert len(got) == len(want) == n
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-9 * abs(w)
        assert all(z.imag == 0.0 for z in got[:3])
        for a, b in zip(got[3::2], got[4::2]):
            assert a.imag > 0.0 and b == a.conjugate()

    @given(
        st.lists(st.tuples(st.floats(1.1, 10.0), st.booleans()), min_size=0, max_size=4),
        st.lists(st.tuples(st.floats(1.1, 8.0), st.floats(0.2, 6.0)), min_size=0, max_size=2),
    )
    # the two sets a Horner-loop polish missed by 1.07e-9 and 1.41e-9
    @example(real_mods=[(4.0, True), (6.0, True), (7.0, True), (6.25, True)],
             complex_parts=[(3.0, 1.0), (6.0, 1.0)])
    @example(real_mods=[(6.0, True), (1.5, True), (6.25, True)],
             complex_parts=[(4.0, 1.0), (6.0, 0.21875)])
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_random(self, real_mods, complex_parts):
        rts = []
        for m, positive in real_mods:
            rts.append(m if positive else -m)
        for re, im in complex_parts:
            rts.extend([complex(re, im), complex(re, -im)])
        if not rts or not well_separated(rts):
            return
        got = sorted_roots(roots(expand_from_roots(rts)))
        for g, w in zip(got, sorted_roots(rts)):
            assert abs(g - complex(w)) < 1e-9


class TestDeflateAtOne:
    def test_linear(self):
        assert deflate_at_one(Poly((1.0, -1.0))).coeffs == (1.0,)

    def test_two_factors(self):
        got = deflate_at_one(Poly((1.0, -1.8, 0.8)))
        assert got.coeffs == pytest.approx((1.0, -0.8))

    def test_p2_example(self):
        # den - num for head (0.2, 0.3), r = 0.6
        got = deflate_at_one(Poly((1.0, -0.8, -0.18, -0.02)))
        assert got.coeffs == pytest.approx((1.0, 0.2, 0.02), abs=1e-15)

    def test_no_zero_at_one(self):
        with pytest.raises(FactorizationError, match="z=1"):
            deflate_at_one(Poly((1.0, -0.5)))

    @given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=7))
    @settings(max_examples=80, deadline=None)
    def test_multiply_back(self, qc):
        q = Poly(tuple(qc))
        if q.degree < 0:
            return
        p = Poly((1.0, -1.0)) * q
        back = deflate_at_one(p)
        diff = back - q
        assert all(abs(c) < 1e-12 for c in diff.coeffs)


class TestSymProductDiff:
    def test_geometric(self):
        got = sym_product_diff(Poly((0.0, 0.5)), Poly((1.0, -0.5)))
        assert got.c == pytest.approx((1.0, -0.5))

    def test_trivial(self):
        assert sym_product_diff(Poly((0.0,)), Poly((1.0,))).c == (1.0,)

    def test_identical_cancel(self):
        p = Poly((0.3, -0.2, 0.7))
        assert sym_product_diff(p, p).c == ()

    @given(
        st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=7),
        st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=7),
        st.floats(0.01, 2 * math.pi - 0.01),
    )
    @example(pc=[0.0], qc=[1e-12, 1.0, 1.5, 1.5, 1.5, 0.75], t=0.5)  # c[5] = 7.5e-13 is trimmed
    @settings(max_examples=80, deadline=None)
    def test_circle_identity(self, pc, qc, t):
        P, Q = Poly(tuple(pc)), Poly(tuple(qc))
        z = complex(math.cos(t), math.sin(t))
        want = abs(Q(z)) ** 2 - abs(P(z)) ** 2
        got = sym_product_diff(P, Q)
        # The result drops trailing coefficients below TRIM_REL * max|c|, and each
        # one dropped moves the value on the circle by at most 2 * TRIM_REL * max|c|;
        # at most d = max(deg P, deg Q) of the d + 1 coefficients can go.
        trimmed = 2 * TRIM_REL * max(map(abs, got.c), default=0.0) * max(P.degree, Q.degree, 0)
        assert abs(got(z) - want) < 1e-12 + trimmed
        assert abs(got(z).imag) < 1e-12

    @given(
        st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=9),
        st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=9),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_lag_sums(self, pc, qc):
        # reference: each lag's products summed exactly; numpy adds them in its own
        # order (and may fuse multiply and add), so each coefficient may miss by the
        # dot-product bound n * (eps * sum|terms| + smallest subnormal)
        P, Q = Poly(tuple(pc)), Poly(tuple(qc))
        got = sym_product_diff(P, Q).c
        top = max(map(abs, got), default=0.0)
        for h in range(max(P.degree, Q.degree, 0) + 1):
            terms = [s * x[j] * x[j + h] for s, x in ((1.0, Q.coeffs), (-1.0, P.coeffs))
                     for j in range(len(x) - h)]
            eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
            bound = len(terms) * (eps * math.fsum(map(abs, terms)) + tiny)
            if h >= len(got):  # trimmed: below TRIM_REL * max|c|
                bound += TRIM_REL * top
            assert abs((got[h] if h < len(got) else 0.0) - math.fsum(terms)) <= bound, h


class TestDivideSymByUnitPair:
    def test_unit_pair_itself(self):
        assert divide_sym_by_unit_pair(SymLaurent((2.0, -1.0))).c == (1.0,)

    def test_geometric(self):
        assert divide_sym_by_unit_pair(SymLaurent((1.0, -0.5))).c == pytest.approx((0.5,))

    def test_degree_two(self):
        # (2 - z - 1/z) * (2 - (z + 1/z)) expanded is 6 - 4(z + 1/z) + (z^2 + 1/z^2)
        got = divide_sym_by_unit_pair(SymLaurent((6.0, -4.0, 1.0)))
        assert got.c == pytest.approx((2.0, -1.0))

    def test_missing_factor(self):
        with pytest.raises(FactorizationError, match="factor"):
            divide_sym_by_unit_pair(SymLaurent((1.0, -0.2)))

    @given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5))
    @example([2.225073858507e-311, 0.0])
    @example([1.0, 1e-13])
    @example([0.5, 8.27e-14])
    @settings(max_examples=80, deadline=None)
    def test_multiply_back(self, dc):
        d = SymLaurent(tuple(dc))
        if not d.c:
            return
        # n = (2 - z - 1/z) * d, assembled coefficient-wise
        n = [2.0 * d.c[0] - 2.0 * (d.c[1] if d.degree >= 1 else 0.0)]
        for h in range(1, d.degree + 2):
            lo = d.c[h - 1] if h - 1 <= d.degree else 0.0
            mid = d.c[h] if h <= d.degree else 0.0
            hi = d.c[h + 1] if h + 1 <= d.degree else 0.0
            n.append(2.0 * mid - lo - hi)
        n = SymLaurent(tuple(n))
        got = divide_sym_by_unit_pair(n)
        # a top coefficient of d near TRIM_REL makes n's top fall below the
        # trim, so the quotient's degree follows n, not d
        assert got.degree == n.degree - 1
        bound = 1e-11 * max(max(abs(c) for c in d.c), 1.0)
        for a, b in zip(got.c, d.c):
            assert abs(a - b) < bound
        assert all(abs(b) < bound for b in d.c[got.degree + 1 :])


class TestFactorOutside:
    def test_constant(self):
        theta, k = factor_outside(SymLaurent((0.5,)))
        assert theta.coeffs == (1.0,)
        assert k == 0.5

    def test_degree_one(self):
        theta, k = factor_outside(SymLaurent((2.5, 1.0)))
        assert theta.coeffs == pytest.approx((1.0, 0.5))
        assert k == pytest.approx(2.0)

    def test_p2_example_ma_coefficient(self):
        # spectral numerator of the running two-term example after removing
        # the unit pair: center 0.6476, side 0.004
        theta, k = factor_outside(SymLaurent((0.6476, 0.004)))
        side, center = 0.004, 0.6476
        a1 = (-center - math.sqrt(center ** 2 - 4 * side ** 2)) / (2 * side)
        assert theta.coeffs[1] == pytest.approx(-1.0 / a1, rel=1e-12)
        assert theta.coeffs[1] == pytest.approx(6.18e-3, rel=1e-2)

    def test_circle_zero_rejected(self):
        # double zero on the circle at an off-grid angle (1 radian): the
        # density stays nonnegative, so the root-modulus check must fire
        c = math.cos(1.0)
        with pytest.raises(FactorizationError, match="unit circle"):
            factor_outside(SymLaurent((4 * c * c + 2, -4 * c, 1.0)))

    def test_sign_change_on_circle_rejected(self):
        # 2 + z + 1/z touches zero at z = -1, which sits on the sample grid
        with pytest.raises(FactorizationError, match="spectral density"):
            factor_outside(SymLaurent((2.0, 1.0)))

    def test_negative_density_rejected(self):
        with pytest.raises(FactorizationError, match="spectral density"):
            factor_outside(SymLaurent((-1.0,)))

    @given(
        st.lists(st.floats(1.3, 6.0), min_size=0, max_size=2),
        st.lists(st.tuples(st.floats(1.3, 5.0), st.floats(0.3, 4.0)), min_size=0, max_size=2),
        st.floats(0.1, 4.0),
        st.lists(st.booleans(), min_size=2, max_size=2),
    )
    # d(e^{2 pi i 63/64}) = 2.9e-5 against sum|d_h| = 277: the factor misses it
    # by 3.1e-14, which is 1.07e-9 relative
    @example(real_mods=[2.0, 1.375], complex_parts=[(1.75, 0.375), (1.5, 0.375)], k_in=1.0,
             signs=[True, True])
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_on_circle(self, real_mods, complex_parts, k_in, signs):
        rts = [m if positive else -m for m, positive in zip(real_mods, signs)]
        for re, im in complex_parts:
            rts.extend([complex(re, im), complex(re, -im)])
        if not rts or not well_separated(rts):
            return
        self.check_reconstruction(rts, k_in)

    def test_reconstruction_clustered_roots(self):
        # six outside roots within 0.5 of each other: rooting z^q d(z) and
        # pairing reciprocal roots misses d(z) here by 1.7e-9 relative
        rts = [4.375, 4.287109375, 4.375 + 0.375j, 4.375 - 0.375j, 4.5 + 0.5j, 4.5 - 0.5j]
        self.check_reconstruction(rts, 1.0)

    @staticmethod
    def check_reconstruction(rts, k_in):
        """Build d = k_in * theta_in(z) theta_in(1/z) from the outside roots ``rts``,
        factor it, and compare against d on the circle and against (theta_in, k_in)."""
        theta_in = np.array([1.0 + 0.0j])
        for a in rts:
            theta_in = np.convolve(theta_in, [1.0, -1.0 / a])
        theta_in = Poly(tuple(theta_in.real))
        q = theta_in.degree
        # d = k * theta(z) theta(1/z): coefficient h is k * sum_j c_j c_{j+h}
        c = theta_in.coeffs
        d = SymLaurent(tuple(
            k_in * sum(c[j] * c[j + h] for j in range(len(c) - h)) for h in range(q + 1)
        ))
        theta, k = factor_outside(d)
        assert theta.degree == q
        assert np.max(np.abs(np.subtract(theta.coeffs, c))) < 1e-9 * max(abs(x) for x in c)
        assert abs(k - k_in) < 1e-9 * k_in
        assert all(abs(z) > 1.0 + 1e-8 for z in roots(theta))
        # Near a zero of d on the circle no relative bound can hold, since
        # neither side is computed exactly there.  With |z| = 1, d(z) is a sum of
        # 2q + 1 rounded terms, each at most |d_h| in size, so it errs by about
        # (2q + 1) eps sum|d_h|, summed over both sides of the lag (Higham 2002,
        # section 4.2); k theta(z) theta(1/z) is two Horner sums of q + 1 terms,
        # each erring by about 2q eps sum|theta_j| (Higham 2002, eq. 5.3), so
        # their product errs by about 4q eps k (sum|theta_j|)^2.  The absolute
        # term covers both with room for the complex operations' rounding.
        eps = np.finfo(float).eps
        rounding = (4 * q + 4) * eps * (d.c[0] + 2 * sum(map(abs, d.c[1:]))
                                        + k * sum(map(abs, theta.coeffs)) ** 2)
        grid = np.exp(2j * np.pi * np.arange(1, 64) / 64)
        for z in grid:
            target = d(z)
            got = k * theta(z) * theta(1.0 / z)
            assert abs(got - target) < 1e-9 * abs(target) + rounding


class TestCommonRoot:
    def test_shared_root(self):
        p = Poly((1.0, -1.0))  # root 1
        q = Poly((2.0, -2.0))  # root 1
        assert common_root(p, q) and common_root(q, p)

    def test_coprime(self):
        p, q = Poly((1.0, -0.5)), Poly((1.0, -0.25))
        assert not common_root(p, q) and not common_root(q, p)

    @pytest.mark.parametrize("mult", [2, 3])
    def test_multiple_on_one_side(self, mult):
        # the multiple root comes out of roots split by about eps**(1/mult);
        # the simple side's root finds it, in either argument order
        f = Poly((1.0, -0.5))
        p = Poly((1.0, 0.3))
        for _ in range(mult):
            p = p * f
        q = Poly((1.0, -0.2)) * f
        assert common_root(p, q) and common_root(q, p)

    def test_complex_pair(self):
        pair = Poly((1.0, -1.0, 0.34))  # roots (1 +- 0.6i) / 0.68
        p, q = Poly((0.0, 0.5, 0.5)) * pair, Poly((1.0, -0.4)) * pair
        assert common_root(p, q) and common_root(q, p)

    def test_constant_cases(self):
        for c, q in [(Poly((3.0,)), Poly((1.0, 2.0))), (Poly((3.0,)), Poly((2.0,)))]:
            assert not common_root(c, q) and not common_root(q, c)
