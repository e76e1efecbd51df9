"""Exact renewal-theoretic quantities for the count series, from the pgf alone.

Pure and delayed renewal probabilities, the autocovariance of the superposed
count series, and direct evaluation of its autocovariance generating function,
for any lifetime with a rational generating function ``F = num / den``.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularEvaluationError
from .lifetime import RationalPGF
from .polynomials import rational_series


def renewal_probs(pgf: RationalPGF, N: int) -> np.ndarray:
    """``u[0..N]`` for the pure process: u_0 = 1, u_n = sum_{j<n} u_j f_{n-j}.

    u is the power series of 1 / (1 - F) = den / (den - num); u_n tends to 1/E[L].
    """
    if N < 0:
        raise ValueError("horizon must be nonnegative")
    return rational_series(pgf.den, pgf.renewal_denominator(), N + 1)


def delayed_probs(pgf: RationalPGF, N: int) -> np.ndarray:
    """``nu[0..N]`` for the equilibrium-delayed process; constantly 1/E[L]."""
    if N < 0:
        raise ValueError("horizon must be nonnegative")
    # the equilibrium delay law b_n = P(L > n) / E[L]: the survival series A / den over the mean
    b = rational_series(pgf.survival_numerator(), pgf.den, N + 1) / pgf.mean()
    return np.convolve(b, renewal_probs(pgf, N))[: N + 1]


def acvf_renewal(pgf: RationalPGF, M: int, hmax: int) -> np.ndarray:
    """Autocovariance gamma(0..hmax) of the count series: (M/mu) * (u_h - 1/mu)."""
    if M < 1:
        raise ValueError("superposition count must be positive")
    mu = pgf.mean()
    u = renewal_probs(pgf, hmax)
    return (M / mu) * (u - 1.0 / mu)


def gen_eval_renewal(pgf: RationalPGF, M: int, z):
    """Autocovariance generating function of the count series at ``z``, a
    point or an array of points.

    ``(M/mu) * (1 - F(z)F(1/z)) / ((1 - F(z))(1 - F(1/z)))`` with F = pgf and
    mu = ``pgf.mean()``.
    The point z = 1 is a removable singularity and is rejected, as are z = 0
    and any pole of F; one such point rejects the whole array.
    """
    shape = np.shape(z)
    # a point is evaluated as a one-point array, so it gets the bits it would get inside an array
    z = np.asarray(z, dtype=complex).reshape(-1)
    if np.any(z == 0) or np.any(np.abs(z - 1.0) < 1e-12):
        raise SingularEvaluationError("singular evaluation point")
    fz = pgf(z)
    fw = pgf(1.0 / z)
    if np.any(np.abs(1.0 - fz) < 1e-14) or np.any(np.abs(1.0 - fw) < 1e-14):
        raise SingularEvaluationError("singular evaluation point")
    return ((M / pgf.mean()) * (1.0 - fz * fw) / ((1.0 - fz) * (1.0 - fw))).reshape(shape)[()]
