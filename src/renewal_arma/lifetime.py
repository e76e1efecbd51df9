"""Integer lifetime distributions with a geometric tail after a finite head.

A lifetime L takes values in {1, 2, ...} with ``P(L = n) = head[n-1]`` for
``n <= p`` and ``P(L = n) = tail_first * r**(n - p - 1)`` for ``n >= p + 1``,
where ``tail_first = (1 - r) * (1 - sum(head))`` is derived from normalization.
Equivalently the hazard rate is constant and equal to ``1 - r`` from lag
``p + 1`` on.  With ``r = 0`` the support is finite.

The lifetime's generating function is a :class:`RationalPGF` ``num / den``,
the one place that derives from that pair the survival numerator (the moments,
the delay law and the AR polynomial) and the spectral numerator (the MA part and k).
The spec's closed forms serve the sampler, the age chain and the closed-form gates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import LatticeError, SingularEvaluationError, ValidationError
from .polynomials import (
    Poly,
    SymLaurent,
    common_root,
    deflate_at_one,
    divide_sym_by_unit_pair,
    rational_series,
    roots,
    sym_product_diff,
)

SERIES_CHECK_TERMS = 200


@dataclass(frozen=True)
class LifetimeSpec:
    """Validated lifetime distribution; build via :func:`make_constant_hazard`."""

    head: tuple[float, ...]
    r: float
    tail_first: float = field(init=False)
    _pgf: RationalPGF | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tail_first", (1.0 - self.r) * (1.0 - math.fsum(self.head)))

    @property
    def p(self) -> int:
        """Number of explicit head probabilities (hazard is constant after this lag)."""
        return len(self.head)

    def pmfs(self, n: int) -> np.ndarray:
        """P(L = j) for j = 1..n as one array: the head up to j = p, then
        ``tail_first * r**(j - p - 1)`` as one vector power."""
        if n < 0:
            raise ValueError("the number of lifetimes must be nonnegative")
        p = self.p
        out = np.empty(n)
        out[:p] = self.head[:n]
        # at r = 0 the tail is tail_first at p + 1 and zeros after it, since 0.0 ** 0 is 1
        out[p:] = self.tail_first * self.r ** np.arange(n - p)
        return out

    def survivals(self, n: int) -> np.ndarray:
        """P(L > j) for j = 0..n as one array: ``1 - fsum(f_1..f_j)`` below
        j = p, then the closed geometric tail ``tail_first * r**(j - p) / (1 - r)``
        as one vector power."""
        if n < 0:
            raise ValueError("survival lags are nonnegative integers")
        p = self.p
        out = np.empty(n + 1)
        out[:p] = [1.0 - math.fsum(self.head[:j]) for j in range(min(n + 1, p))]
        # at r = 0 the tail is tail_first at p and zeros after it, since 0.0 ** 0 is 1
        out[p:] = self.tail_first * self.r ** np.arange(n - p + 1) / (1.0 - self.r)
        return out

    def mean(self) -> float:
        head_part = math.fsum((i + 1) * f for i, f in enumerate(self.head))
        if self.tail_first == 0.0:
            return head_part
        p, r = self.p, self.r
        return head_part + self.tail_first * ((p + 1) - p * r) / (1.0 - r) ** 2

    def variance(self) -> float:
        m = self.mean()
        return self._second_factorial_moment() + m - m * m

    def _second_factorial_moment(self) -> float:
        """E[L(L-1)] in closed form."""
        head_part = math.fsum((i + 1) * i * f for i, f in enumerate(self.head))
        if self.tail_first == 0.0:
            return head_part
        p, r = self.p, self.r
        s0 = 1.0 / (1.0 - r)
        s1 = r / (1.0 - r) ** 2
        s2 = r * (1.0 + r) / (1.0 - r) ** 3
        return head_part + self.tail_first * (s2 + (2 * p + 1) * s1 + p * (p + 1) * s0)

    def pgf(self) -> RationalPGF:
        """Probability generating function ``F(z) = num(z) / den(z)``.

        Numerator ``z * [f_1 + (f_2 - f_1 r) z + ... + (f_{p+1} - f_p r) z**p]``
        over denominator ``1 - r z``.  The pair needs no validation: it is in
        lowest terms because the numerator does not vanish at ``1/r``, and its
        series is the pmf, which is nonnegative.

        Built on the first call and kept on the (immutable) spec: every call
        returns the same object, so what that pgf keeps (its spectral
        numerator and factorization) is shared by every caller of this spec.
        """
        if self._pgf is None:
            f = list(self.head) + [self.tail_first]
            num = [0.0, f[0]] + [f[i] - f[i - 1] * self.r for i in range(1, len(f))]
            object.__setattr__(self, "_pgf", RationalPGF(num=Poly(tuple(num)), den=Poly((1.0, -self.r))))
        return self._pgf


def make_constant_hazard(head, r: float, *, allow_zero_f1: bool = False) -> LifetimeSpec:
    """Validated lifetime with head probabilities ``f_1..f_p`` and tail rate ``r``.

    Raises :class:`ValidationError` on a mass or range violation and
    :class:`LatticeError` if the support sits on a proper sublattice (such a
    lifetime cannot arise from any aperiodic renewal structure and the
    factorization theory excludes it).
    """
    head = tuple(float(f) for f in head)
    r = float(r)
    if not all(math.isfinite(f) for f in head) or not math.isfinite(r):
        raise ValidationError("probabilities must be finite")
    if not 0.0 <= r < 1.0:
        raise ValidationError(f"tail rate must lie in [0, 1), got {r}")
    if any(f < 0.0 for f in head):
        raise ValidationError("head probabilities must be nonnegative")
    if any(f > 1.0 for f in head):
        raise ValidationError("head probabilities must not exceed 1")
    s = math.fsum(head)
    if s > 1.0:
        raise ValidationError(f"head probabilities sum to {s} > 1")
    if r > 0.0 and s >= 1.0:
        raise ValidationError("geometric tail requires strictly positive tail mass (sum of head < 1)")

    spec = LifetimeSpec(head=head, r=r)
    f1 = head[0] if head else spec.tail_first
    if not allow_zero_f1 and f1 <= 0.0:
        raise ValidationError("f_1 must be positive (pass allow_zero_f1=True to relax)")
    if f1 >= 1.0:
        raise ValidationError("f_1 must be strictly less than 1")

    support = {i + 1 for i, f in enumerate(head) if f > 0.0}
    if spec.tail_first > 0.0:
        support.add(spec.p + 1)
        if r > 0.0:
            support.add(spec.p + 2)  # consecutive support makes the gcd 1
    if not support:
        raise ValidationError("lifetime has no support")
    if math.gcd(*support) != 1:
        raise LatticeError(f"lifetime support {sorted(support)} lies on a sublattice")
    return spec


@dataclass(frozen=True)
class RationalPGF:
    """``F(z) = num(z) / den(z)`` in lowest terms with ``den(0) = 1`` and ``num(0) = 0``.

    Everything else derives from three polynomials built from the pair.
    ``den - num`` is the denominator of the renewal series
    ``den / (den - num) = 1 / (1 - F)``.  The survival numerator
    ``A = (den - num) / (1 - z)`` gives ``A / den = sum_j P(L > j) z**j``,
    hence the moments, and ``A / A(0)`` is the AR polynomial.  The spectral
    numerator ``D = (den den* - num num*) / |1 - z|**2`` is what the MA part
    and its scale are split from.  Each is built on its first call and kept,
    den - num in ``_renewal``, A in ``_survival`` and D in ``_spectral``.
    ``_factors`` keeps the parts of the first successful
    :func:`.arma.factorize` that do not depend on M.  None of the four fields
    takes part in equality, hashing or ``dataclasses.replace``.
    """

    num: Poly
    den: Poly
    _renewal: Poly | None = field(default=None, init=False, repr=False, compare=False)
    _survival: Poly | None = field(default=None, init=False, repr=False, compare=False)
    _spectral: SymLaurent | None = field(default=None, init=False, repr=False, compare=False)
    _factors: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __call__(self, z):
        den = self.den(z)
        if np.any(den == 0):  # numpy division returns inf here rather than raising
            raise SingularEvaluationError("evaluation at a pole of the generating function")
        return self.num(z) / den

    def series(self, terms: int) -> np.ndarray:
        """Power-series coefficients ``P(L = 0), ..., P(L = terms - 1)`` of num/den."""
        return rational_series(self.num, self.den, terms)

    def renewal_denominator(self) -> Poly:
        """``den - num``, which vanishes at z = 1; built once and kept on the (immutable) pgf."""
        if self._renewal is None:
            object.__setattr__(self, "_renewal", self.den - self.num)
        return self._renewal

    def survival_numerator(self) -> Poly:
        """``A = (den - num) / (1 - z)``, so that ``A / den = sum_j P(L > j) z**j``;
        built once and kept on the (immutable) pgf."""
        if self._survival is None:
            object.__setattr__(self, "_survival", deflate_at_one(self.renewal_denominator()))
        return self._survival

    def spectral_numerator(self) -> SymLaurent:
        """``D = (den(z)den(1/z) - num(z)num(1/z)) / ((1 - z)(1 - 1/z))``; built once
        and kept on the (immutable) pgf."""
        if self._spectral is None:
            object.__setattr__(self, "_spectral", divide_sym_by_unit_pair(sym_product_diff(self.num, self.den)))
        return self._spectral

    def mean(self) -> float:
        """``S(1) = A(1) / den(1)``, with ``S = A / den`` the survival series."""
        return self.survival_numerator()(1.0) / self.den(1.0)

    def variance(self) -> float:
        """``2 S'(1) + m - m**2``, since ``S'(1) = sum_j j P(L > j) = E[L(L - 1)] / 2``."""
        a, q = self.survival_numerator(), self.den
        a1, q1 = a(1.0), q(1.0)
        m = a1 / q1
        return 2.0 * (a.derivative()(1.0) * q1 - a1 * q.derivative()(1.0)) / q1 ** 2 + m - m * m


def make_rational_pgf(num: Poly, den: Poly) -> RationalPGF:
    """Normalize and validate a rational probability generating function; the root
    tests raise :class:`FactorizationError` on a polynomial too ill-conditioned to root."""
    if den.degree < 0 or den.coeffs[0] == 0.0:
        raise ValidationError("denominator must have a nonzero constant term")
    q0 = den.coeffs[0]
    num, den = num.scale(1.0 / q0), den.scale(1.0 / q0)
    scale = sum(abs(c) for c in num.coeffs) + sum(abs(c) for c in den.coeffs)
    if num.degree >= 0 and abs(num.coeffs[0]) > 1e-12 * scale:
        raise ValidationError("numerator must vanish at z=0 (no mass at lifetime 0)")
    if num.degree >= 0 and num.coeffs[0] != 0.0:
        num = Poly((0.0,) + num.coeffs[1:])
    if abs(num(1.0) - den(1.0)) > 1e-12 * scale:
        raise ValidationError("generating function must equal 1 at z=1")
    if common_root(num, den):
        raise ValidationError("numerator and denominator share a factor; reduce to lowest terms")
    if den.degree >= 1 and any(abs(z) <= 1.0 for z in roots(den)):
        raise ValidationError("generating function has a pole in the closed unit disk")
    pgf = RationalPGF(num=num, den=den)
    coeffs = pgf.series(SERIES_CHECK_TERMS)
    if coeffs.min() < -1e-12:
        raise ValidationError("power series of the generating function has negative coefficients")
    return pgf


def spec_to_dict(spec: LifetimeSpec) -> dict:
    return {"head": list(spec.head), "r": spec.r}

