"""Spectral factorization of the count-series autocovariance into ARMA form.

The autocovariance generating function of a count series built from a
nonlattice lifetime with rational generating function P/Q factors as

    G(z) = (k M / mu) * theta(z) theta(1/z) / (phi(z) phi(1/z)),

with all roots of phi and theta strictly outside the unit circle.  phi is
read off the pgf's survival numerator and theta and k are split from its
spectral numerator (both built by :class:`.lifetime.RationalPGF`).
``factorize`` carries that factorization out numerically; ``closed_form_p2``
gives the explicit coefficients available for the two-term-head family;
``arma_acvf`` and ``gen_eval_arma`` recompute the autocovariance from the
ARMA side for cross-validation against the renewal side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FactorizationError, SingularEvaluationError, ValidationError
from .lifetime import RationalPGF
from .polynomials import TOL_CIRCLE, Poly, factor_outside, rational_series, roots, values

K_CROSS_CHECK_RTOL = 1e-9
CIRCLE_POINTS = 64


@dataclass(frozen=True)
class ArmaModel:
    """Causal, invertible ARMA model for a superposed renewal count series.

    ``phi`` and ``theta`` are the AR and MA coefficients in
    ``X_t - phi_1 X_{t-1} - ... = Z_t + theta_1 Z_{t-1} + ...`` and
    ``sigma2 = k * M / mu`` is the white-noise variance.
    """

    phi: tuple[float, ...]
    theta: tuple[float, ...]
    k: float
    M: int
    mu: float
    sigma2: float = field(default=None)  # type: ignore[assignment]
    _causality: CausalityReport | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.sigma2 is None:
            object.__setattr__(self, "sigma2", self.k * self.M / self.mu)


def phi_poly(model: ArmaModel) -> Poly:
    """AR characteristic polynomial 1 - phi_1 z - ... - phi_p z**p."""
    return Poly((1.0,) + tuple(-c for c in model.phi))


def theta_poly(model: ArmaModel) -> Poly:
    """MA characteristic polynomial 1 + theta_1 z + ... + theta_q z**q."""
    return Poly((1.0,) + tuple(model.theta))


def factorize(pgf: RationalPGF, M: int) -> ArmaModel:
    """Factor the autocovariance generating function of the count series.

    Both inputs come from the pgf: phi is its survival numerator
    ``(den - num) / (1 - z)`` normalized by its constant term, and its
    spectral numerator is factored into ``k_raw * theta theta(1/z)`` with
    theta-roots outside the circle (Wilson's Newton iteration, in
    :func:`factor_outside`).  The constant is cross-checked
    against :func:`scale_constant`; disagreement beyond 1e-9 relative is
    treated as a bug, not a warning.

    phi, theta, k and mu depend on the pgf alone; M only scales
    ``sigma2 = k M / mu``.  After the first successful call those parts and
    the model's causality report are kept on the (immutable) pgf, and a later
    call, with any M, builds a fresh model from them without solving or
    rooting again.  A refusal is not kept: it is raised on every call.
    """
    if M < 1:
        raise ValueError("superposition count must be positive")
    if pgf._factors is None:
        phi, theta, k, mu = _solve(pgf)
        report = None
    else:
        phi, theta, k, mu, report = pgf._factors
    model = ArmaModel(phi=phi, theta=theta, k=k, M=M, mu=mu)
    object.__setattr__(model, "_causality", report)
    validate_model(model)  # roots phi and theta unless the report came from the pgf
    object.__setattr__(pgf, "_factors", (phi, theta, k, mu, model._causality))
    return model


def _solve(pgf: RationalPGF) -> tuple[tuple[float, ...], tuple[float, ...], float, float]:
    """phi, theta, k and mu of :func:`factorize`, k cross-checked."""
    survival = pgf.survival_numerator()
    q0 = survival.coeffs[0] if survival.degree >= 0 else 0.0
    if q0 == 0.0:
        raise FactorizationError("degenerate AR factor: constant term vanished")
    phi = tuple(-c for c in survival.scale(1.0 / q0).coeffs[1:])

    theta_p, k_raw = factor_outside(pgf.spectral_numerator())
    theta = tuple(theta_p.coeffs[1:])
    k = k_raw / pgf.den.coeffs[0] ** 2

    k_formula = scale_constant(pgf.variance(), pgf.den, theta_p)
    if abs(k - k_formula) > K_CROSS_CHECK_RTOL * abs(k_formula):
        raise FactorizationError(
            f"factorization inconsistent with the closed-form constant: "
            f"{k!r} vs {k_formula!r}"
        )
    return phi, theta, k, pgf.mean()


def scale_constant(var_l: float, den: Poly, theta: Poly) -> float:
    """Closed-form scale constant ``Var[L] * den(1)**2 / (theta(1)**2 * den(0)**2)``."""
    return var_l * den(1.0) ** 2 / (theta(1.0) ** 2 * den.coeffs[0] ** 2)


def closed_form_p2(f1: float, f2: float, r: float) -> tuple[tuple[float, ...], tuple[float, ...], float]:
    """Explicit ARMA(2,1) coefficients for a two-term head with tail rate r.

    With ``f3 = (1 - r)(1 - f1 - f2)`` the AR coefficients are
    ``phi_1 = r + f1 - 1`` and ``phi_2 = f2 r - f3``.  The spectral numerator
    reduces to ``side*z + center + side/z``; its outside root gives the single
    MA coefficient, and the scale constant comes from matching constant terms.
    When ``side`` vanishes (``f3 = f2 r``) the MA order drops to zero.

    Returns ``(phi, theta, k)``.
    """
    f3 = (1.0 - r) * (1.0 - f1 - f2)
    # route through Poly so the trim semantics match the numeric factorization
    # (when f3 = f2 r both phi_2 and the MA side coefficient vanish together)
    ar = Poly((1.0, -(r + f1 - 1.0), -(f2 * r - f3)))
    phi = tuple(-c for c in ar.coeffs[1:])
    side = f1 * (f3 - f2 * r)
    center = f1 * f2 * (1.0 - r) ** 2 + f1 * f3 * (2.0 - r) + r * (1.0 - f1 ** 2 - f2 ** 2) + f2 * f3
    constant_term = (
        (1.0 - f1 ** 2 - f2 ** 2 - f3 ** 2)
        + r ** 2 * (1.0 - f1 ** 2 - f2 ** 2)
        + 2.0 * f1 * f2 * r
        + 2.0 * f2 * f3 * r
    )
    if abs(side) <= 1e-13 * abs(center):
        return phi, (), constant_term / 2.0
    root_out = (-center - math.sqrt(center ** 2 - 4.0 * side ** 2)) / (2.0 * side)
    ma1 = -1.0 / root_out
    k = constant_term / (2.0 + 2.0 * ma1 ** 2 - 2.0 * ma1)
    return phi, (ma1,), k


def arma_acvf(model: ArmaModel, hmax: int) -> np.ndarray:
    """Autocovariance gamma(0..hmax) via the truncated infinite moving average.

    psi(z) = theta(z)/phi(z) is expanded by :func:`rational_series` until the
    geometric tail bound ``rho**T / (1 - rho) < 1e-14`` holds, with rho the
    largest reciprocal modulus of the AR roots; then
    gamma(h) = sigma2 * sum_{j<T} psi_j psi_{j+h}, all lags from one
    correlation of psi_0..psi_{T+hmax-1} with psi_0..psi_{T-1}, so the cost
    grows as T * hmax.
    """
    if hmax < 0:
        raise ValueError("hmax must be nonnegative")
    T = len(model.theta) + 1
    ar_moduli = check_causal_invertible(model).ar_root_moduli
    if ar_moduli:
        rho = 1.0 / min(ar_moduli)
        if rho > 1.0 - 1e-6:
            raise FactorizationError("numerically non-causal")
        T = max(T, math.ceil(math.log(1e-14 * (1.0 - rho)) / math.log(rho)) + 1)
    length = T + hmax
    psi = rational_series(theta_poly(model), phi_poly(model), length)
    return model.sigma2 * np.correlate(psi, psi[:T], "valid")


def gen_eval_arma(model: ArmaModel, z):
    """``sigma2 * theta(z) theta(1/z) / (phi(z) phi(1/z))`` at ``z``, a point
    or an array of points; one singular point rejects the whole array.

    phi and theta at z and at 1/z come from one power table over both."""
    shape = np.shape(z)
    # a point is evaluated as a one-point array, so it gets the bits it would get inside an array
    z = np.asarray(z, dtype=complex).reshape(-1)
    if np.any(z == 0):
        raise SingularEvaluationError("singular evaluation point")
    ar, ma = values((phi_poly(model), theta_poly(model)), np.concatenate((z, 1.0 / z)))
    if np.any(np.abs(ar) < 1e-12):
        raise SingularEvaluationError("pole of the generating function")
    m = z.size
    return (model.sigma2 * ma[:m] * ma[m:] / (ar[:m] * ar[m:])).reshape(shape)[()]


@dataclass(frozen=True)
class CausalityReport:
    """Roots of the AR and MA polynomials and their moduli; ``passes`` means
    every root lies farther than ``TOL_CIRCLE`` outside the unit circle."""

    ar_roots: tuple[complex, ...]
    ma_roots: tuple[complex, ...]
    ar_root_moduli: tuple[float, ...]
    ma_root_moduli: tuple[float, ...]
    passes: bool


def check_causal_invertible(model: ArmaModel) -> CausalityReport:
    """The one place that roots phi and theta; the report is kept on the
    (immutable) model, so later calls for the same model do not root again."""
    if model._causality is not None:
        return model._causality
    ar_roots, ma_roots = (roots(p) if p.degree >= 1 else [] for p in (phi_poly(model), theta_poly(model)))
    moduli = np.abs(np.array(ar_roots + ma_roots, dtype=complex)).tolist()
    p = len(ar_roots)
    report = CausalityReport(tuple(ar_roots), tuple(ma_roots), tuple(moduli[:p]), tuple(moduli[p:]),
                             passes=all(m > 1.0 + TOL_CIRCLE for m in moduli))
    object.__setattr__(model, "_causality", report)
    return report


def validate_model(model: ArmaModel) -> None:
    """Raise unless the model is causal, invertible, and nondegenerate.

    No AR root is checked against the MA roots: for a pgf P/Q in lowest
    terms, causality already rules out a shared root.  phi is
    A = (Q - P)/(1 - z) up to scale, and each root of theta is one of D, where
    (1 - z)(1 - 1/z) D(z) = Q(z)Q(1/z) - P(z)P(1/z).  A root z0 of both has
    P(z0) = Q(z0), nonzero in lowest terms, so 0 = Q(z0)(1 - 1/z0)A(1/z0):
    phi would have the root 1/z0 inside the circle.
    """
    if model.k <= 0.0 or model.sigma2 <= 0.0:
        raise FactorizationError("model constants must be positive")
    report = check_causal_invertible(model)
    if not report.passes:  # name the first root that fails the report's test
        part, z = next((part, z) for part, zs in (("AR", report.ar_roots), ("MA", report.ma_roots))
                       for z in zs if not abs(z) > 1.0 + TOL_CIRCLE)
        raise FactorizationError(f"{part} root {z} not outside the unit circle")


def second_moment_limit(pgf: RationalPGF) -> float:
    """Limit of ``(1 - F(z)F(1/z)) / ((1-z)(1-1/z))`` as z -> 1; equals Var[L].

    With ``F = P/Q`` the ratio is ``D(z) / (Q(z)Q(1/z))``, where ``D`` is the
    spectral numerator that :func:`factorize` splits, so the limit is exactly
    ``D(1) / Q(1)**2``.
    """
    return pgf.spectral_numerator()(1.0) / pgf.den(1.0) ** 2


def unit_circle_grid() -> np.ndarray:
    """Grid points exp(2 pi i j / n) for j = 1..n-1 (z = 1 excluded), n = ``CIRCLE_POINTS``."""
    return np.exp(2j * np.pi * np.arange(1, CIRCLE_POINTS) / CIRCLE_POINTS)


def model_to_dict(model: ArmaModel) -> dict:
    return {
        "phi": list(model.phi),
        "theta": list(model.theta),
        "k": model.k,
        "M": model.M,
        "mu": model.mu,
        "sigma2": model.sigma2,
    }


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def model_from_dict(obj: dict) -> ArmaModel:
    """Deserialize without validating; ``verify --model`` gates it with :func:`.verify.verify_model`.
    ``phi`` and ``theta`` must be lists of numbers and ``M`` an integral number
    (a bool is neither); every number must be finite and ``mu`` nonzero."""
    try:
        if not all(isinstance(obj[key], list) and all(map(_is_number, obj[key])) for key in ("phi", "theta")):
            raise ValueError(f"phi and theta must be lists of numbers, got {obj['phi']!r}, {obj['theta']!r}")
        phi, theta = (tuple(float(x) for x in obj[key]) for key in ("phi", "theta"))
        k, mu, M = float(obj["k"]), float(obj["mu"]), float(obj["M"])
        sigma2 = float(obj["sigma2"]) if obj.get("sigma2") is not None else None
        if not all(math.isfinite(x) for x in phi + theta + (k, mu, sigma2 or 0.0)):
            raise ValueError("phi, theta, k, mu and sigma2 must be finite")
        if not (_is_number(obj["M"]) and M.is_integer()):
            raise ValueError(f"M must be an integer, got {obj['M']!r}")
        if mu == 0.0:  # sigma2 = k * M / mu
            raise ValueError("mu must be nonzero")
        return ArmaModel(phi=phi, theta=theta, k=k, M=int(M), mu=mu, sigma2=sigma2)
    except (KeyError, OverflowError, TypeError, ValueError) as e:
        raise ValidationError(f"malformed model JSON: {e}") from None
