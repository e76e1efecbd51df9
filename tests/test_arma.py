import dataclasses
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from renewal_arma import (
    FactorizationError,
    acvf_renewal,
    arma_acvf,
    check_causal_invertible,
    closed_form_p2,
    factorize,
    gen_eval_arma,
    gen_eval_renewal,
    make_constant_hazard,
    second_moment_limit,
    unit_circle_grid,
)
from renewal_arma import arma
from renewal_arma.arma import ArmaModel, model_from_dict, model_to_dict, phi_poly, theta_poly, validate_model
from renewal_arma.errors import SingularEvaluationError
from renewal_arma.polynomials import roots
from renewal_arma.verify import verify_spec
from conftest import dirichlet_specs, exact_variance


def p2_oracle_theta(f1, f2, r):
    """Independent restatement of the explicit MA solution for two-term heads."""
    f3 = (1 - r) * (1 - f1 - f2)
    side = f1 * (f3 - f2 * r)
    center = f1 * f2 * (1 - r) ** 2 + f1 * f3 * (2 - r) + r * (1 - f1 ** 2 - f2 ** 2) + f2 * f3
    a1 = (-center - math.sqrt(center ** 2 - 4 * side ** 2)) / (2 * side)
    return -1.0 / a1


class TestFactorize:
    def test_memoryless_white_noise(self, geometric_spec):
        model = factorize(geometric_spec.pgf(), 1)
        assert model.phi == ()
        assert model.theta == ()
        assert model.k == pytest.approx(0.5, abs=1e-12)
        assert model.sigma2 == pytest.approx(0.25, abs=1e-12)

    def test_p2_example(self, p2_spec):
        model = factorize(p2_spec.pgf(), 5)
        assert model.phi == pytest.approx((-0.2, -0.02), abs=1e-9)
        assert model.theta == pytest.approx((p2_oracle_theta(0.2, 0.3, 0.6),), abs=1e-9)
        assert len(model.theta) == 1
        assert model.mu == pytest.approx(3.05)
        assert model.sigma2 == pytest.approx(model.k * 5 / 3.05, rel=1e-15)

    def test_p4_structure(self):
        spec = make_constant_hazard([0.1, 0.2, 0.1, 0.2], 0.5)
        model = factorize(spec.pgf(), 3)
        assert len(model.phi) == 4
        assert len(model.theta) == 3
        validate_model(model)

    def test_rejects_zero_chains(self, p2_spec):
        with pytest.raises(ValueError):
            factorize(p2_spec.pgf(), 0)

    def test_battery_invariants(self, small_battery):
        for spec in small_battery:
            model = factorize(spec.pgf(), 3)
            assert len(model.phi) == spec.p
            assert len(model.theta) == spec.p - 1
            assert model.k > 0 and model.sigma2 > 0
            report = check_causal_invertible(model)
            assert report.passes


@pytest.fixture
def solves(monkeypatch):
    """Calls of Wilson's iteration and of the root finder, as factorize reaches them."""
    calls = Counter()

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    for name in ("factor_outside", "roots"):
        monkeypatch.setattr(arma, name, counting(name, getattr(arma, name)))
    return calls


class TestKeptFactorization:
    def test_spec_keeps_one_pgf(self, p2_spec):
        assert p2_spec.pgf() is p2_spec.pgf()

    def test_models_share_all_but_M(self, p2_spec):
        a, b = factorize(p2_spec.pgf(), 5), factorize(p2_spec.pgf(), 7)
        assert (a.phi, a.theta, a.k, a.mu) == (b.phi, b.theta, b.k, b.mu)
        assert check_causal_invertible(a) is check_causal_invertible(b)
        assert (a.M, a.sigma2, b.M, b.sigma2) == (5, a.k * 5 / a.mu, 7, b.k * 7 / b.mu)
        # the same model as a cold factorization at M = 7
        assert b == factorize(make_constant_hazard(p2_spec.head, p2_spec.r).pgf(), 7)

    def test_second_call_neither_solves_nor_roots(self, solves):
        spec = make_constant_hazard([0.1, 0.2, 0.3], 0.5)
        factorize(spec.pgf(), 5)
        assert solves == {"factor_outside": 1, "roots": 2}
        factorize(spec.pgf(), 7)
        assert all(g.passed for g in verify_spec(spec, M=5, level="quick"))
        assert solves == {"factor_outside": 1, "roots": 2}

    def test_refusal_is_not_kept(self, solves):
        # an AR root and an MA root 2e-9 apart
        pgf = make_constant_hazard(np.random.default_rng(4).dirichlet(np.ones(16))[:15] * 0.9, 0.5).pgf()
        for attempt in (1, 2):
            with pytest.raises(FactorizationError, match="share the root"):
                factorize(pgf, 5)
            assert solves["factor_outside"] == attempt

    def test_equality_and_hash_ignore_kept_values(self, solves):
        a, b = (make_constant_hazard([0.2, 0.3], 0.6) for _ in range(2))
        before = hash(a), hash(a.pgf())
        factorize(a.pgf(), 5)
        assert a == b and a.pgf() == b.pgf()
        assert (hash(a), hash(a.pgf())) == before == (hash(b), hash(b.pgf()))
        factorize(b.pgf(), 5)  # nothing crosses from a to b
        assert solves["factor_outside"] == 2

    def test_replace_keeps_nothing(self, p2_spec, solves):
        factorize(p2_spec.pgf(), 5)
        spec = dataclasses.replace(p2_spec)
        assert spec == p2_spec and spec.pgf() is not p2_spec.pgf()
        factorize(dataclasses.replace(p2_spec.pgf()), 5)
        assert solves["factor_outside"] == 2


class TestClosedFormP2:
    def test_running_example(self):
        phi, theta, k = closed_form_p2(0.2, 0.3, 0.6)
        assert phi == pytest.approx((-0.2, -0.02))
        side = 0.2 * (0.4 * 0.5 - 0.18)
        assert side == pytest.approx(0.004)
        assert theta[0] == pytest.approx(p2_oracle_theta(0.2, 0.3, 0.6))
        # matching constant terms: k * theta(1)^2 equals center + 2*side
        assert k * (1 + theta[0]) ** 2 == pytest.approx(0.6476 + 2 * 0.004, rel=1e-12)

    def test_center_value(self):
        # hand substitution: f1 f2 (1-r)^2 + f1 f3 (2-r) + r (1-f1^2-f2^2) + f2 f3
        f1, f2, r = 0.2, 0.3, 0.6
        f3 = (1 - r) * (1 - f1 - f2)
        center = f1 * f2 * (1 - r) ** 2 + f1 * f3 * (2 - r) + r * (1 - f1 * f1 - f2 * f2) + f2 * f3
        assert center == pytest.approx(0.6476)

    def test_matches_factorization_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            f1 = rng.uniform(0.05, 0.9)
            f2 = rng.uniform(0.01, 1.0 - f1 - 0.05)
            r = rng.uniform(0.05, 0.9)
            spec = make_constant_hazard([f1, f2], r)
            phi, theta, k = closed_form_p2(f1, f2, r)
            model = factorize(spec.pgf(), 2)
            assert model.phi == pytest.approx(phi, abs=1e-8)
            assert len(model.theta) == len(theta)
            if theta:
                assert model.theta[0] == pytest.approx(theta[0], abs=1e-8)
            assert model.k == pytest.approx(k, abs=1e-8)

    def test_degenerate_ma_order_drops(self):
        # choose f3 = f2 * r exactly: r=0.5, f2=0.3 gives f3=0.15, f1=0.4
        f1, f2, r = 0.4, 0.3, 0.5
        f3 = (1 - r) * (1 - f1 - f2)
        assert f3 == pytest.approx(f2 * r)
        phi, theta, k = closed_form_p2(f1, f2, r)
        assert theta == ()
        model = factorize(make_constant_hazard([f1, f2], r).pgf(), 2)
        assert model.theta == ()
        assert model.k == pytest.approx(k, abs=1e-12)
        assert model.phi == pytest.approx(phi, abs=1e-12)


class TestArmaAcvf:
    def test_white_noise(self):
        model = ArmaModel(phi=(), theta=(), k=0.5, M=4, mu=2.0)
        gamma = arma_acvf(model, 5)
        assert gamma[0] == pytest.approx(1.0)
        assert np.allclose(gamma[1:], 0.0)

    def test_ar1_textbook(self):
        model = ArmaModel(phi=(0.5,), theta=(), k=1.0, M=1, mu=1.0)  # sigma2 = 1
        gamma = arma_acvf(model, 6)
        for h in range(7):
            assert gamma[h] == pytest.approx((4.0 / 3.0) * 0.5 ** h, rel=1e-12)

    def test_matches_renewal_side(self, p2_spec):
        model = factorize(p2_spec.pgf(), 5)
        want = acvf_renewal(p2_spec.pgf(), 5, 50)
        got = arma_acvf(model, 50)
        assert np.max(np.abs(got - want)) < 1e-8

    def test_noncausal_rejected(self):
        model = ArmaModel(phi=(1.0,), theta=(), k=1.0, M=1, mu=1.0)
        with pytest.raises(FactorizationError, match="non-causal"):
            arma_acvf(model, 5)


class TestGenEvalArma:
    def test_white_noise_constant(self):
        model = ArmaModel(phi=(), theta=(), k=0.5, M=4, mu=2.0)
        for j in (1, 17, 40):
            z = np.exp(2j * np.pi * j / 64)
            assert gen_eval_arma(model, z) == pytest.approx(1.0)

    def test_identity_with_renewal_side(self, p2_spec):
        model = factorize(p2_spec.pgf(), 5)
        z = np.exp(1j * np.pi / 4)
        ga = gen_eval_arma(model, z)
        gr = gen_eval_renewal(p2_spec.pgf(), 5, z)
        assert abs(ga - gr) < 1e-9 * abs(gr)

    def test_real_on_circle(self, small_battery):
        for spec in small_battery[::7]:
            model = factorize(spec.pgf(), 2)
            for j in (3, 29):
                val = gen_eval_arma(model, np.exp(2j * np.pi * j / 64))
                assert abs(val.imag) < 1e-10 * abs(val)

    def test_identity_battery(self):
        grid = unit_circle_grid()
        for spec in dirichlet_specs(7, ps=(1, 2, 3, 4, 5), per_p=4):
            pgf = spec.pgf()
            model = factorize(pgf, 4)
            for z in grid[::5]:
                gr = gen_eval_renewal(pgf, 4, z)
                assert abs(gen_eval_arma(model, z) - gr) <= 1e-9 * abs(gr)


    def test_array_matches_points(self, small_battery):
        grid = unit_circle_grid()
        for spec in small_battery:
            model = factorize(spec.pgf(), 3)
            points = np.array([gen_eval_arma(model, z) for z in grid])
            assert np.max(np.abs(gen_eval_arma(model, grid) - points) / np.abs(points)) <= 1e-15

    @pytest.mark.parametrize("p", [1, 2, 5, 10, 30])
    def test_point_alone_same_bits(self, p):
        # phi and theta of order p and p - 1 with every root outside the circle
        rng = np.random.default_rng(p)
        phi = tuple(0.9 * rng.dirichlet(np.ones(p + 1))[:p])
        theta = tuple(0.5 * rng.dirichlet(np.ones(p))[: p - 1])
        model = ArmaModel(phi=phi, theta=theta, k=0.7, M=3, mu=2.5)
        grid = unit_circle_grid()
        for z in (grid, 0.5 * grid, 2.0 * grid):
            points = np.array([gen_eval_arma(model, w) for w in z])
            assert points.tobytes() == gen_eval_arma(model, z).tobytes()

    @pytest.mark.parametrize("where", [0, 31, 62])
    def test_one_singular_point_rejects_array(self, p2_spec, where):
        model = factorize(p2_spec.pgf(), 5)
        pole = check_causal_invertible(model).ar_roots[0]
        for bad in (0.0, pole):
            z = unit_circle_grid()
            z[where] = bad
            with pytest.raises(SingularEvaluationError):
                gen_eval_arma(model, z)


class TestCausalInvertible:
    def test_factorized_model_passes(self, p2_spec):
        report = check_causal_invertible(factorize(p2_spec.pgf(), 5))
        assert report.passes
        assert all(m > 1 for m in report.ar_root_moduli + report.ma_root_moduli)

    def test_explosive_ar_fails(self):
        model = ArmaModel(phi=(1.5,), theta=(), k=1.0, M=1, mu=1.0)
        report = check_causal_invertible(model)
        assert not report.passes
        assert report.ar_root_moduli[0] == pytest.approx(2.0 / 3.0)

    def test_constant_theta_vacuous(self):
        model = ArmaModel(phi=(0.5,), theta=(), k=1.0, M=1, mu=1.0)
        report = check_causal_invertible(model)
        assert report.ma_root_moduli == ()
        assert report.passes

    @pytest.mark.parametrize("phi,theta,part", [((1.5,), (), "AR root"), ((0.5,), (0.1, -1.2), "MA root")])
    def test_validate_names_root_inside_circle(self, phi, theta, part):
        model = ArmaModel(phi=phi, theta=theta, k=1.0, M=1, mu=1.0)
        with pytest.raises(FactorizationError, match=f"{part} .* not outside the unit circle"):
            validate_model(model)

    def test_validate_rejects_common_root(self):
        model = ArmaModel(phi=(0.5,), theta=(-0.5,), k=1.0, M=1, mu=1.0)
        with pytest.raises(FactorizationError, match="share"):
            validate_model(model)


class TestSecondMomentLimit:
    def test_p2_example(self, p2_spec):
        assert abs(second_moment_limit(p2_spec.pgf()) - p2_spec.variance()) < 1e-6

    def test_geometric(self, geometric_spec):
        assert abs(second_moment_limit(geometric_spec.pgf()) - 2.0) < 1e-6

    def test_battery(self, small_battery):
        for spec in small_battery:
            assert abs(second_moment_limit(spec.pgf()) - spec.variance()) < 1e-6

    @pytest.mark.parametrize("head", [(0.2, 0.3), ()])
    @pytest.mark.parametrize("r", [0.99, 0.999, 0.9999])
    def test_exact_near_unit_tail_rate(self, head, r):
        # Var[L] grows like 1/(1 - r)**2 here, so only a limit read exactly at z = 1 stays within 1e-12
        spec = make_constant_hazard(head, r)
        want = exact_variance(spec)
        assert abs(Fraction(second_moment_limit(spec.pgf())) - want) <= Fraction(1e-12) * want

    def test_dirichlet_battery(self):
        for spec in dirichlet_specs(5, ps=(1, 2, 3, 5, 10, 20, 30, 40, 60), per_p=20):
            var_l = spec.variance()
            assert abs(second_moment_limit(spec.pgf()) - var_l) <= 1e-12 * var_l


class TestSerialization:
    def test_roundtrip(self, p2_spec):
        model = factorize(p2_spec.pgf(), 5)
        blob = json.dumps(model_to_dict(model))
        back = model_from_dict(json.loads(blob))
        assert back == model

    def test_sigma2_defaults_to_consistent(self):
        model = ArmaModel(phi=(0.1,), theta=(), k=2.0, M=3, mu=1.5)
        assert model.sigma2 == pytest.approx(4.0)

    def test_stored_sigma2_preserved(self):
        # a corrupted file may disagree with k*M/mu; loading must not hide that
        model = model_from_dict({"phi": [], "theta": [], "k": 1.0, "M": 1, "mu": 2.0, "sigma2": 9.0})
        assert model.sigma2 == 9.0


def test_degree_law_battery(small_battery):
    for spec in small_battery:
        model = factorize(spec.pgf(), 1)
        assert len(model.phi) == spec.p
        assert len(model.theta) == spec.p - 1


def test_p1_is_pure_ar1():
    spec = make_constant_hazard([0.3], 0.5)
    model = factorize(spec.pgf(), 2)
    assert len(model.phi) == 1
    assert model.theta == ()
    assert model.phi[0] == pytest.approx(0.5 + 0.3 - 1.0, abs=1e-12)


def test_phi_theta_polys():
    model = ArmaModel(phi=(0.2, -0.1), theta=(0.3,), k=1.0, M=1, mu=2.0)
    assert phi_poly(model).coeffs == (1.0, -0.2, 0.1)
    assert theta_poly(model).coeffs == (1.0, 0.3)
    assert len(roots(phi_poly(model))) == 2
