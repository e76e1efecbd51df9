"""Second-order Markov structure of count series from two-term-head lifetimes.

For a lifetime with two explicit head probabilities the indicator chain is a
second-order Markov chain; its trivariate law over (X_t, X_{t-1}, X_{t-2}) and
the implied conditionals are available in closed form, and the superposed
count series has a trivariate binomial law.  ``markov_order_test`` checks the
order claim empirically on simulated bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .lifetime import LifetimeSpec
from .simulate import context_frequencies

# index convention: 1 <-> time t, 2 <-> t-1, 3 <-> t-2


@dataclass(frozen=True)
class TriJointTable:
    """Joint law of (X_t, X_{t-1}, X_{t-2}) for one indicator chain.

    ``p_ij...`` is the probability that exactly the indexed coordinates are 1;
    ``q`` is the all-zero cell.
    """

    q: float
    p1: float
    p2: float
    p3: float
    p12: float
    p13: float
    p23: float
    p123: float

    def as_dict(self) -> dict:
        return {
            "q": self.q, "p1": self.p1, "p2": self.p2, "p3": self.p3,
            "p12": self.p12, "p13": self.p13, "p23": self.p23, "p123": self.p123,
        }

    def total(self) -> float:
        return math.fsum(self.as_dict().values())

    def marginals(self) -> tuple[float, float, float]:
        """P(X_t = 1), P(X_{t-1} = 1), P(X_{t-2} = 1); all equal 1/E[L]."""
        return (
            self.p1 + self.p12 + self.p13 + self.p123,
            self.p2 + self.p12 + self.p23 + self.p123,
            self.p3 + self.p13 + self.p23 + self.p123,
        )

    def cell(self, x_t: int, x_tm1: int, x_tm2: int) -> float:
        key = "".join(str(i + 1) for i, x in enumerate((x_t, x_tm1, x_tm2)) if x)
        return self.as_dict()["p" + key if key else "q"]

    def pair_law(self) -> dict[tuple[int, int], float]:
        """Stationary law of (X_{t-1}, X_{t-2})."""
        return {
            (0, 0): self.q + self.p1,
            (1, 0): self.p2 + self.p12,
            (0, 1): self.p3 + self.p13,
            (1, 1): self.p23 + self.p123,
        }


def _require_p2(spec: LifetimeSpec) -> None:
    if spec.p != 2:
        raise ValidationError("second-order tables require a head of exactly two probabilities")


def joint_probs_p2(spec: LifetimeSpec) -> TriJointTable:
    """Closed-form trivariate table for a two-term-head lifetime."""
    _require_p2(spec)
    f1, f2 = spec.head
    inv = 1.0 / spec.mean()
    p1 = p3 = inv * (1.0 - f1 - f2)
    p13 = inv * f2
    p12 = p23 = inv * f1 * (1.0 - f1)
    p123 = inv * f1 * f1
    p2 = inv * (1.0 - f1) ** 2
    q = 1.0 - math.fsum((p1, p2, p3, p12, p13, p23, p123))
    return TriJointTable(q=q, p1=p1, p2=p2, p3=p3, p12=p12, p13=p13, p23=p23, p123=p123)


def conditional_probs_p2(spec: LifetimeSpec) -> dict[str, float]:
    """The eight conditionals P(X_t = x | X_{t-1} = a, X_{t-2} = b).

    Keys read ``pxgab``: ``p1g00`` is P(X_t=1 | 0, 0) and so on.  The
    simplified value p0g00 = r is cross-checked against the ratio of joint
    masses before returning.
    """
    _require_p2(spec)
    f1, f2 = spec.head
    r = spec.r
    p1g00 = 1.0 - r
    p1g01 = f2 / (1.0 - f1)
    p1g10 = f1
    p1g11 = f1
    table = {
        "p1g00": p1g00, "p1g01": p1g01, "p1g10": p1g10, "p1g11": p1g11,
        "p0g00": 1.0 - p1g00, "p0g01": 1.0 - p1g01, "p0g10": 1.0 - p1g10, "p0g11": 1.0 - p1g11,
    }
    joint = joint_probs_p2(spec)
    inv = 1.0 / spec.mean()
    long_form = joint.q / (1.0 - 2.0 * inv + f1 * inv)
    if not abs(long_form - r) < 1e-10:
        raise ValidationError("conditional table failed its internal consistency check")
    return table


def step_pair_law(pair: dict[tuple[int, int], float], conditionals: dict[str, float]) -> dict:
    """Push the stationary pair law one step through the conditional kernel.

    The image is the law of (X_t, X_{t-1}); under stationarity it must equal
    the input law.
    """
    out = {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0}
    for (a, b), mass in pair.items():
        for x in (0, 1):
            out[(x, a)] += mass * conditionals[f"p{x}g{a}{b}"]
    return out


def mgf_trivariate(table: TriJointTable, M: int, s1: float, s2: float, s3: float) -> float:
    """Moment generating function E[exp(s1 Y_t + s2 Y_{t-1} + s3 Y_{t-2})].

    One chain contributes the bracketed mixture; superposing M independent
    chains raises it to the M-th power.
    """
    e1, e2, e3 = math.exp(s1), math.exp(s2), math.exp(s3)
    base = (
        table.q
        + table.p1 * e1 + table.p2 * e2 + table.p3 * e3
        + table.p12 * e1 * e2 + table.p13 * e1 * e3 + table.p23 * e2 * e3
        + table.p123 * e1 * e2 * e3
    )
    return base ** M


@dataclass(frozen=True)
class ContextDivergence:
    """One extended context compared against its one-lag-shorter truncation."""

    context: tuple[int, ...]
    count: int
    freq: float
    parent_count: int
    parent_freq: float
    divergence: float
    pooled_se: float
    sparse: bool

    @property
    def z(self) -> float:
        if self.pooled_se > 0.0 and math.isfinite(self.divergence):
            return self.divergence / self.pooled_se
        return 0.0


@dataclass(frozen=True)
class OrderComparison:
    """Rows for contexts of one length against their truncations."""

    context_length: int
    rows: tuple[ContextDivergence, ...]

    def max_divergence(self) -> float:
        vals = [r.divergence for r in self.rows if not r.sparse]
        return max(vals, default=0.0)

    def max_z(self) -> float:
        return max((r.z for r in self.rows if not r.sparse), default=0.0)


def markov_order_test(bits, max_order: int, min_count: int = 1000) -> list[OrderComparison]:
    """Divergence of conditional one-frequencies as the context grows by one lag.

    For each length L = 1..max_order, every length-L context is compared with
    its length-(L-1) truncation over the same time points; under an order
    below L the divergence is pure noise with standard error
    ``sqrt(p(1-p) (1/n_child - 1/n_parent))``.  Sparse contexts (fewer than
    ``min_count`` occurrences) are reported but flagged.
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    bits = np.asarray(bits, dtype=np.int64)
    comparisons = []
    for L in range(1, max_order + 1):
        child = context_frequencies(bits, L, t_start=L, min_count=min_count)
        parent = context_frequencies(bits, L - 1, t_start=L, min_count=min_count)
        rows = []
        for ctx, st in sorted(child.items()):
            par = parent[ctx[:-1]]
            if st.count == 0 or par.count == 0:
                rows.append(ContextDivergence(ctx, st.count, math.nan, par.count, math.nan,
                                              math.nan, 0.0, True))
                continue
            pf = par.freq
            div = abs(st.freq - pf)
            var = pf * (1.0 - pf) * max(1.0 / st.count - 1.0 / par.count, 0.0)
            rows.append(ContextDivergence(
                context=ctx, count=st.count, freq=st.freq,
                parent_count=par.count, parent_freq=pf,
                divergence=div, pooled_se=math.sqrt(var), sparse=st.sparse,
            ))
        comparisons.append(OrderComparison(context_length=L, rows=tuple(rows)))
    return comparisons
