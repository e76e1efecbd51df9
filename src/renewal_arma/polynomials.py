"""Dense real polynomials and symmetric Laurent polynomials.

This is the computational substrate for factoring rational autocovariance
generating functions: deflation of the structural zero at z = 1, splitting a
symmetric Laurent polynomial that is positive on the unit circle into
``k * theta(z) * theta(1/z)`` with every root of ``theta`` strictly outside
the circle (Wilson's Newton iteration, no roots), and root finding for the
causality report.

All values are immutable after construction; every operation is a pure
function of its inputs.  A ``Poly`` keeps the rows that
:func:`rational_series` builds over it as a denominator, outside equality,
hashing and repr; they change no result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FactorizationError

# The zero at z = 1 is structural (coefficients cancel exactly up to rounding),
# so TOL_ZERO_AT_ONE is tight enough to separate it from accidental near-zeros.
TRIM_REL = 1e-13
TOL_ZERO_AT_ONE = 1e-10
TOL_CIRCLE = 1e-8
TOL_RESID = 1e-10
NEWTON_STEPS = 2
POSITIVITY_GRID = 128  # circle points at which a spectral numerator must be positive
WILSON_TOL = 1e-10  # relative step that factor_outside must reach
WILSON_STEPS = 60
SERIES_CALL_MACS = 4096  # multiply-adds that cost about one numpy call's overhead


def _trim(coeffs) -> tuple[float, ...]:
    c = [float(x) for x in coeffs]
    if not all(math.isfinite(x) for x in c):
        raise ValueError("coefficients must be finite real numbers")
    top = max((abs(x) for x in c), default=0.0)
    if top == 0.0:
        return ()
    # Compare ratios, not ``TRIM_REL * top``: for a subnormal ``top`` that
    # product underflows to 0 and trailing zeros would survive the trim.
    end = len(c)
    while end > 0 and abs(c[end - 1]) / top < TRIM_REL:
        end -= 1
    return tuple(c[:end])


def _horner(coeffs, z):
    acc = z * 0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


@dataclass(frozen=True)
class Poly:
    """Real polynomial with dense ascending coefficients; ``coeffs[i]`` multiplies z**i.

    Trailing coefficients below ``TRIM_REL * max|c|`` are dropped at
    construction, so the leading coefficient of a nonzero Poly is nonzero and
    the zero polynomial is the empty tuple (degree -1).
    """

    coeffs: tuple[float, ...] = ()
    # the rows of :func:`rational_series` over this denominator, kept from its longest expansion so far
    _series_rows: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        """Evaluate at a real or complex point by Horner's rule."""
        return _horner(self.coeffs, z)

    def __sub__(self, other: "Poly") -> "Poly":
        return Poly(tuple(a - b for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0.0)))

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.coeffs or not other.coeffs:
            return Poly(())
        return Poly(tuple(np.convolve(self.coeffs, other.coeffs)))

    def scale(self, s: float) -> "Poly":
        return Poly(tuple(s * c for c in self.coeffs))

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1))


@dataclass(frozen=True)
class SymLaurent:
    """Symmetric Laurent polynomial ``c[0] + sum_h c[h] * (z**h + z**-h)``.

    On the unit circle this is the real trigonometric polynomial
    ``c0 + 2 * sum_h c[h] * cos(h t)``.
    """

    c: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", _trim(self.c))

    @property
    def degree(self) -> int:
        return len(self.c) - 1

    def __call__(self, z):
        if not self.c:
            return z * 0
        acc = z * 0 + self.c[0]
        for h in range(1, len(self.c)):
            acc = acc + self.c[h] * (z ** h + z ** (-h))
        return acc

    def on_circle(self, t):
        """Value at ``z = exp(i t)``; always real. Accepts scalars or arrays."""
        c = np.asarray(self.c)
        if c.size == 0:
            return np.zeros_like(np.asarray(t, dtype=float))
        t = np.asarray(t, dtype=float)
        h = np.arange(1, c.size)
        return c[0] + 2.0 * (np.cos(np.multiply.outer(t, h)) @ c[1:])


def rational_series(num: Poly, den: Poly, terms: int) -> np.ndarray:
    """First ``terms`` power-series coefficients of ``num(z) / den(z)``; needs ``den(0) != 0``.

    The coefficients obey y_n = (num_n - sum_{j>=1} den_j y_{n-j}) / den_0, a
    forward substitution, done here in blocks of matrix products.  With
    q = deg den, row i of ``O`` gives y_i from (y_{1-q}, ..., y_0) when num
    adds nothing after time 0: rows 1-q..0 are the identity and row 1 is
    -den[q..1] / den_0.  As (y_{m-q+1}, ..., y_m) = O[m-q+1..m] (y_{1-q}, ..., y_0),
    rows m+1..2m are O[1..m] @ O[m-q+1..m], so B rows take log2(B) products.
    Column q - 1 of rows 0..B is the series of den_0 / den, and num times it
    gives y_0..y_B.  Each later block of B terms is O[1..B] times the q terms
    before it, one product, since B >= deg num and B >= q - 1.  ``den`` keeps
    the rows of its longest expansion so far, and a shorter one reads their
    prefix, which the doubling builds with the same products; so a result
    does not depend on what was expanded before.

    B is the power of two near sqrt(SERIES_CALL_MACS * terms) / q, which
    balances the B q**2 multiply-adds of the doubling against the one numpy
    call of each later block: about terms * q + B q**2 multiply-adds in
    log2(B) + terms / B numpy calls.  The blocks apply rounded B-step products
    where a term-by-term substitution applies den itself, so with clustered
    roots of den near the unit circle they lose more accuracy than it does.
    """
    if terms < 0:
        raise ValueError("number of terms must be nonnegative")
    if den.degree < 0 or den.coeffs[0] == 0.0:
        raise ValueError("denominator must have a nonzero constant term")
    d = den.coeffs if den.degree else den.coeffs + (0.0,)  # a constant den runs as den_0 + 0 z
    q = len(d) - 1
    k = min(terms, len(num.coeffs))
    want = max(k - 1, q - 1, math.isqrt(SERIES_CALL_MACS * terms) // q)
    B = 1 << (max(min(want, terms - 1), 1) - 1).bit_length()
    O = den._series_rows
    if O is None or len(O) < q + B:
        O = np.zeros((q + B, q))
        O.flat[: q * q : q + 1] = 1.0  # rows 1-q..0: the identity
        np.divide(d[:0:-1], -d[0], out=O[q])
        m = 1
        while m < B:
            O[q : q + m].dot(O[m : m + q], out=O[q + m : q + 2 * m])
            m *= 2
        O.flags.writeable = False
        object.__setattr__(den, "_series_rows", O)
    F = min(terms, B + 1)
    y = np.empty(terms)
    # num times the series of den_0 / den, column q - 1 from row 0: np.convolve's product, without its copies
    head = np.correlate(O[q - 1 : q + B, q - 1], num.coeffs[:k][::-1] or (0.0,), "full")
    np.divide(head[:F], d[0], out=y[:F])
    for n in range(F, terms, B):
        w = min(B, terms - n)
        O[q : q + w].dot(y[n - q : n], out=y[n : n + w])
    return y


def roots(p: Poly) -> list[complex]:
    """All complex roots of ``p``, with conjugate pairs exactly conjugate.

    Eigenvalues of the balanced companion matrix; LAPACK returns each
    conjugate pair exactly conjugate, upper member first.  The real ones and
    the upper members are polished together by ``NEWTON_STEPS`` Newton steps;
    the result is the real roots, then each pair ``(a, conj(a))``.  Raises if
    any residual exceeds ``TOL_RESID * sum|c| * max(1, |root|)**degree``.
    """
    if p.degree < 1:
        raise ValueError("no roots of a constant")
    c = np.asarray(p.coeffs, dtype=float)
    n = p.degree
    comp = np.diag(np.ones(n - 1), -1)
    comp[:, -1] = -(c[:n] / c[-1])
    raw = np.atleast_1d(np.linalg.eigvals(comp)).astype(complex)
    top = raw[raw.imag >= 0.0]
    real = top.imag == 0.0
    z = _newton_polish(p.coeffs, p.derivative().coeffs, top)
    upper = z[~real]
    out = np.concatenate([z[real], np.stack([upper, upper.conj()], axis=1).ravel()])
    with np.errstate(over="ignore", invalid="ignore"):
        resid = np.abs(_horner(p.coeffs, out))
        bound = TOL_RESID * np.sum(np.abs(c)) * np.maximum(1.0, np.abs(out)) ** n
        excess = np.where(resid > bound, resid / bound, 0.0)
    if excess.any():
        worst = int(np.argmax(excess))
        raise FactorizationError(
            f"root residual {resid[worst]:.3e} exceeds {bound[worst]:.3e} at the root {out[worst]:.6g}; "
            "polynomial too ill-conditioned to root reliably"
        )
    return out.tolist()


def _newton_polish(coeffs, dcoeffs, z: np.ndarray) -> np.ndarray:
    # Near a multiple root both f and f' are rounding-level small and their
    # ratio is noise, so a step is kept only where it shrinks the residual;
    # a root whose step was refused stays put, so later steps refuse it too.
    fz = _horner(coeffs, z)
    with np.errstate(all="ignore"):  # a zero f' gives a non-finite step, refused below
        for _ in range(NEWTON_STEPS):
            cand = z - fz / _horner(dcoeffs, z)
            fcand = _horner(coeffs, cand)
            shrank = np.abs(fcand) < np.abs(fz)
            z = np.where(shrank, cand, z)
            fz = np.where(shrank, fcand, fz)
    return z


def deflate_at_one(p: Poly) -> Poly:
    """Divide out the factor ``(1 - z)`` by synthetic division.

    Requires ``|p(1)| <= TOL_ZERO_AT_ONE * sum|c|``; the discarded remainder of
    the division equals ``p(1)``.
    """
    scale = sum(abs(x) for x in p.coeffs)
    if abs(p(1.0)) > TOL_ZERO_AT_ONE * scale:
        raise FactorizationError("no zero at z=1")
    if p.degree < 1:
        return Poly(())
    return Poly(tuple(itertools.accumulate(p.coeffs))[:-1])


def sym_product_diff(P: Poly, Q: Poly) -> SymLaurent:
    """``Q(z)Q(1/z) - P(z)P(1/z)`` as a symmetric Laurent polynomial.

    Coefficient ``c[h] = sum_j Q[j]Q[j+h] - sum_j P[j]P[j+h]``: lags 0.. of
    each coefficient vector's autocorrelation ``np.convolve(x, x[::-1])``.
    """
    out = np.zeros(max(P.degree, Q.degree, 0) + 1)
    for sign, x in ((1.0, Q.coeffs), (-1.0, P.coeffs)):
        if x:
            out[: len(x)] += sign * np.convolve(x, x[::-1])[len(x) - 1 :]
    return SymLaurent(tuple(out))


def divide_sym_by_unit_pair(n: SymLaurent) -> SymLaurent:
    """Divide ``n`` by ``(2 - z - 1/z) = (1 - z)(1 - 1/z)``.

    ``n`` must vanish at z = 1; by symmetry that zero is automatically a double
    zero, so the quotient is again a symmetric Laurent polynomial.  Internally
    ``z**d * n(z)`` is divided twice by ``(1 - z)``; the identity
    ``z**d n(z) = -(1 - z)**2 * z**(d-1) * q(z)`` fixes the sign.
    """
    scale = sum(abs(x) for x in n.c)
    at_one = (n.c[0] + 2.0 * sum(n.c[1:])) if n.c else 0.0
    if abs(at_one) > TOL_ZERO_AT_ONE * scale:
        raise FactorizationError("numerator lacks (1-z)(1-1/z) factor")
    d = n.degree
    if d <= 0:
        return SymLaurent(())
    m = list(reversed(n.c)) + list(n.c[1:])
    m1 = list(itertools.accumulate(m))[:-1]
    m2 = list(itertools.accumulate(m1))[:-1]
    g = [-x for x in m2]  # ascending coefficients of z**(d-1) * quotient
    mid = d - 1
    return SymLaurent(tuple(0.5 * (g[mid - h] + g[mid + h]) for h in range(d)))


def factor_outside(d: SymLaurent) -> tuple[Poly, float]:
    """Factor ``d(z) = k * theta(z) * theta(1/z)`` with theta-roots outside the circle.

    ``d`` must be strictly positive on the unit circle.  Wilson's (1969) Newton
    iteration solves ``sum_j g[j] g[j+h] = d.c[h]`` for ``g = sqrt(k) * theta``
    without roots: from ``g = (sqrt(c0 + 2 sum|c_h|), 0, ...)`` each step solves
    ``A g' = c + (g * g)[lags 0..q]`` with ``A[h, m] = g[m-h] + g[m+h]`` (g is 0
    outside 0..q).  It stops once the relative step is below ``WILSON_TOL`` and
    no longer shrinks; a zero of ``d`` on the circle stalls the step near 1e-8.

    Returns ``(theta, k)`` with ``theta(0) = 1`` and ``k = g[0]**2``.
    """
    if not d.c:
        raise FactorizationError("not a valid symmetric spectral density")
    ts = 2.0 * np.pi * np.arange(1, POSITIVITY_GRID + 1) / POSITIVITY_GRID
    vals = d.on_circle(ts)
    if np.any(vals <= 0.0):
        raise FactorizationError("not a valid symmetric spectral density")
    if d.degree == 0:
        return Poly((1.0,)), float(d.c[0])

    c, q, j = np.asarray(d.c), d.degree, np.arange(d.degree + 1)
    lo, hi = j - j[:, None], j + j[:, None]  # [h, m]; g's q + 1 zeros of pad serve -q..-1 and q+1..2q
    g = np.zeros(2 * q + 2)
    g[0] = math.sqrt(c[0] + 2.0 * np.sum(np.abs(c[1:])))
    best = math.inf
    for _ in range(WILSON_STEPS):
        live = g[: q + 1]
        new = np.linalg.solve(g[lo] + g[hi], c + np.convolve(live, live[::-1])[q:])
        step = float(np.max(np.abs(new - live)) / np.max(np.abs(new)))
        g[: q + 1] = new
        if best < WILSON_TOL and step >= best:
            break
        best = min(best, step)
    if not best < WILSON_TOL:
        raise FactorizationError("zero on unit circle: lifetime may be lattice or input invalid")
    return Poly(tuple(g[: q + 1] / g[0])), float(g[0] ** 2)


def common_root(P: Poly, Q: Poly) -> bool:
    """Whether ``P`` and ``Q`` share a root: whether either is at most
    ``TRIM_REL * sum|c_i| |z|**i`` at some root z of the other.  ``roots``
    splits an m-fold root by about eps**(1/m), so both directions are tried:
    the side where the shared factor has the lower multiplicity is rooted
    accurately enough.  A nonzero constant has no roots; ``roots`` may raise
    :class:`FactorizationError`.
    """
    for a, b in ((P, Q), (Q, P)):
        if a.degree >= 1:
            z = np.asarray(roots(a))
            if np.any(np.abs(_horner(b.coeffs, z)) <= TRIM_REL * _horner(np.abs(b.coeffs), np.abs(z))):
                return True
    return False
