import math

import numpy as np
import pytest

from renewal_arma import (
    acvf_renewal, arma_acvf, factorize, gen_eval_arma, gen_eval_renewal, make_constant_hazard,
    unit_circle_grid,
)
from renewal_arma.errors import SingularEvaluationError, ValidationError
from renewal_arma.lifetime import make_rational_pgf
from renewal_arma.polynomials import Poly
from renewal_arma.renewal import delayed_probs, renewal_probs
from conftest import dirichlet_specs


class TestRenewalProbs:
    def test_memoryless_is_constant(self, geometric_spec):
        u = renewal_probs(geometric_spec.pgf(), 20)
        assert u[0] == 1.0
        assert np.allclose(u[1:], 0.5, atol=1e-15)

    def test_p2_hand_recursion(self, p2_spec):
        u = renewal_probs(p2_spec.pgf(), 2)
        assert u[1] == pytest.approx(0.2)
        assert u[2] == pytest.approx(0.34)  # u1*f1 + f2

    def test_p2_renewal_limit(self, p2_spec):
        u = renewal_probs(p2_spec.pgf(), 50)
        assert abs(u[50] - 1 / 3.05) < 1e-8

    def test_limit_reached_at_desk_scale(self, small_battery):
        for spec in small_battery:
            u = renewal_probs(spec.pgf(), 200)
            assert np.max(np.abs(u[100:] - 1.0 / spec.mean())) < 1e-6

    def test_negative_horizon(self, p2_spec):
        with pytest.raises(ValueError):
            renewal_probs(p2_spec.pgf(), -1)


class TestDelayedProbs:
    def test_memoryless(self, geometric_spec):
        nu = delayed_probs(geometric_spec.pgf(), 30)
        assert np.allclose(nu, 0.5, atol=1e-14)

    def test_p2_stationary(self, p2_spec):
        nu = delayed_probs(p2_spec.pgf(), 200)
        assert np.max(np.abs(nu - 1 / 3.05)) < 1e-12

    def test_battery_stationary(self, small_battery):
        for spec in small_battery:
            nu = delayed_probs(spec.pgf(), 500)
            assert np.max(np.abs(nu - 1.0 / spec.mean())) < 1e-12

    def test_delay_mass_at_zero(self, small_battery):
        for spec in small_battery:
            assert spec.survivals(0)[0] / spec.mean() == pytest.approx(1.0 / spec.mean())

    def test_shapes_and_range(self, p2_spec):
        u, nu = renewal_probs(p2_spec.pgf(), 64), delayed_probs(p2_spec.pgf(), 64)
        assert p2_spec.mean() == pytest.approx(3.05)
        assert u[0] == 1.0
        assert len(u) == len(nu) == 65
        assert np.all((u >= 0) & (u <= 1))


class TestAcvf:
    def test_iid_binomial(self, geometric_spec):
        gamma = acvf_renewal(geometric_spec.pgf(), 4, 5)
        assert gamma[0] == pytest.approx(1.0)
        assert np.allclose(gamma[1:], 0.0, atol=1e-14)

    def test_p2_negative_lag_one(self, p2_spec):
        gamma = acvf_renewal(p2_spec.pgf(), 5, 1)
        assert gamma[1] < 0
        assert gamma[1] == pytest.approx((5 / 3.05) * (0.2 - 1 / 3.05))

    def test_p2_variance(self, p2_spec):
        gamma = acvf_renewal(p2_spec.pgf(), 5, 0)
        assert gamma[0] == pytest.approx((5 / 3.05) * (1 - 1 / 3.05))
        assert gamma[0] == pytest.approx(1.1019, abs=1e-4)

    def test_variance_is_binomial(self, small_battery):
        for spec in small_battery:
            M = 3
            gamma0 = acvf_renewal(spec.pgf(), M, 0)[0]
            p = 1.0 / spec.mean()
            assert gamma0 == pytest.approx(M * p * (1 - p), rel=1e-15)

    def test_rejects_zero_chains(self, p2_spec):
        with pytest.raises(ValueError):
            acvf_renewal(p2_spec.pgf(), 0, 5)


class TestGenEvalRenewal:
    def test_memoryless_white_noise(self, geometric_spec):
        z = np.exp(1j * np.pi / 3)
        val = gen_eval_renewal(geometric_spec.pgf(), 4, z)
        assert val == pytest.approx(1.0)

    def test_real_positive_on_circle(self, small_battery):
        for spec in small_battery[::5]:
            pgf = spec.pgf()
            for j in (1, 13, 31, 63):
                z = np.exp(2j * np.pi * j / 64)
                val = gen_eval_renewal(pgf, 3, z)
                assert abs(val.imag) < 1e-10 * abs(val)
                assert val.real > 0

    def test_matches_truncated_series(self, p2_spec):
        M = 5
        gamma = acvf_renewal(p2_spec.pgf(), M, 200)
        assert abs(gamma[200]) < 1e-12
        z = np.exp(1j * np.pi / 4)
        series = gamma[0] + sum(gamma[h] * (z ** h + z ** (-h)) for h in range(1, 201))
        val = gen_eval_renewal(p2_spec.pgf(), M, z)
        assert abs(val - series) < 1e-8

    def test_series_agreement_on_grid(self):
        for spec in dirichlet_specs(77, ps=(1, 2, 3), per_p=2):
            M = 2
            pgf = spec.pgf()
            hmax = 200
            gamma = acvf_renewal(spec.pgf(), M, hmax)
            while abs(gamma[hmax]) > 1e-12:
                hmax *= 2
                gamma = acvf_renewal(spec.pgf(), M, hmax)
            for j in (1, 9, 32, 50):
                z = np.exp(2j * np.pi * j / 64)
                series = gamma[0] + sum(gamma[h] * (z ** h + z ** (-h)) for h in range(1, hmax + 1))
                val = gen_eval_renewal(pgf, M, z)
                assert abs(val - series) <= 1e-8 * abs(series)

    def test_singular_points_rejected(self, p2_spec):
        pgf = p2_spec.pgf()
        with pytest.raises(SingularEvaluationError):
            gen_eval_renewal(pgf, 5, 0.0)
        with pytest.raises(SingularEvaluationError):
            gen_eval_renewal(pgf, 5, 1.0)


    def test_array_matches_points(self, small_battery):
        grid = unit_circle_grid()
        for spec in small_battery:
            pgf = spec.pgf()
            points = np.array([gen_eval_renewal(pgf, 3, z) for z in grid])
            assert np.max(np.abs(gen_eval_renewal(pgf, 3, grid) - points) / np.abs(points)) <= 1e-15

    @pytest.mark.parametrize("bad", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("where", [0, 31, 62])
    def test_one_singular_point_rejects_array(self, bad, where):
        spec = make_constant_hazard([0.2, 0.3], 0.5)  # F has its pole at z = 1/r = 2
        z = unit_circle_grid()
        z[where] = bad
        with pytest.raises(SingularEvaluationError):
            gen_eval_renewal(spec.pgf(), 5, z)


def test_convolution_identity_spot_check():
    # nu_n must equal sum_k b_k u_{n-k} term by term, not only in the limit
    spec = make_constant_hazard([0.3, 0.1], 0.4)
    u = renewal_probs(spec.pgf(), 6)
    b = spec.survivals(6) / spec.mean()
    nu = delayed_probs(spec.pgf(), 6)
    for n in range(7):
        assert nu[n] == pytest.approx(math.fsum(b[k] * u[n - k] for k in range(n + 1)))


def ar2_pgfs():
    """Rational lifetimes outside the constant-hazard family whose count series is pure AR(2).

    F = P/Q with P = P1 z + P2 z**2 + P3 z**3 and Q = 1 + Q1 z + Q2 z**2.  With
    Q2 = P1 P3 the lag-2 term of QQ* - PP* vanishes, so the spectral numerator
    D is a constant; P2 solves F(1) = 1.  This AR(2) family is consistent with
    the paper's AR(p) cases.  Draws that ``make_rational_pgf`` rejects are
    skipped: 882 of the first 1082, each with a negative series term (71 of
    them also have a pole in the disk).  The 1082 is pinned, so that a change
    to the validation rules cannot change the pgfs the tests below run on.
    """
    rng = np.random.default_rng(0)
    kept, draws = [], 0
    while len(kept) < 200:
        draws += 1
        p1, p3, q1 = rng.uniform(0, 1), rng.uniform(-0.5, 0.5), rng.uniform(-1, 1)
        q2 = p1 * p3
        try:
            kept.append(make_rational_pgf(Poly((0.0, p1, 1 + q1 + q2 - p1 - p3, p3)), Poly((1.0, q1, q2))))
        except ValidationError:
            continue
    assert draws == 1082, draws
    return kept


class TestGeneralRationalLifetime:
    """The renewal layer reads only the pgf, so it serves lifetimes with no closed forms."""

    @pytest.fixture(scope="class")
    def models(self):
        return [(pgf, factorize(pgf, 3)) for pgf in ar2_pgfs()]

    def test_factors_as_pure_ar(self, models):
        for pgf, model in models:
            assert model.theta == () and len(model.phi) == 2, (pgf, model)

    def test_acvf_identity(self, models):
        for pgf, model in models:
            assert np.max(np.abs(arma_acvf(model, 50) - acvf_renewal(pgf, 3, 50))) <= 1e-8, pgf

    def test_delayed_probs_stationary(self, models):
        for pgf, _ in models:
            assert np.max(np.abs(delayed_probs(pgf, 500) - 1.0 / pgf.mean())) <= 1e-12, pgf

    def test_generating_function_identity(self, models):
        grid = unit_circle_grid()
        for pgf, model in models:
            renewal_side = gen_eval_renewal(pgf, 3, grid)
            rel = np.abs(gen_eval_arma(model, grid) - renewal_side) / np.abs(renewal_side)
            assert np.max(rel) <= 1e-9, pgf
