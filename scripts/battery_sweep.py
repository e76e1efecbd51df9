#!/usr/bin/env python3
"""Sweep random lifetimes and report the worst-case factorization errors.

For each head length p the sweep draws random valid lifetimes, factors the
autocovariance generating function, and measures how well the ARMA side
reproduces the renewal side on the unit circle and lag by lag, along with the
agreement of the two routes to the scale constant.  Draws whose factorization
is refused are counted in the ``failed`` column, and listed under the row by
reason: the ``FactorizationError`` message with its numbers masked as ``#``.
"""

import argparse
import re
from collections import Counter

import numpy as np

from renewal_arma import (
    FactorizationError,
    acvf_renewal,
    arma_acvf,
    factorize,
    gen_eval_arma,
    gen_eval_renewal,
    make_constant_hazard,
    second_moment_limit,
    unit_circle_grid,
)
from renewal_arma.arma import scale_constant, theta_poly


def draw_spec(rng, p):
    """Head as Dirichlet weights scaled into (0.5, 0.95), tail rate in (0.2, 0.9): valid for every p."""
    w = rng.dirichlet(np.ones(p + 1))
    return make_constant_hazard(w[:p] * rng.uniform(0.5, 0.95), rng.uniform(0.2, 0.9))


def reason(err):
    """A refusal's message with its numbers (and parenthesized complex numbers) masked."""
    return re.sub(r"\(?[-+]?\d[\w.+-]*\)?", "#", str(err))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--per-p", type=int, default=100)
    ap.add_argument("--max-p", type=int, default=5)
    ap.add_argument("--M", type=int, default=5)
    ap.add_argument("--seed", type=int, default=20260811)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    grid = unit_circle_grid()
    print(f"{'p':>2} {'specs':>6} {'failed':>6} {'circle rel err':>15} {'acvf abs err':>13} "
          f"{'k rel err':>10} {'limit err':>10} {'orders':>10}")
    for p in range(1, args.max_p + 1):
        worst_id = worst_acvf = worst_k = worst_lim = 0.0
        orders = set()
        refusals = Counter()
        for _ in range(args.per_p):
            spec = draw_spec(rng, p)
            pgf, mu = spec.pgf(), spec.mean()
            try:
                model = factorize(pgf, args.M)
            except FactorizationError as e:
                refusals[reason(e)] += 1
                continue
            orders.add((len(model.phi), len(model.theta)))
            ref = gen_eval_renewal(pgf, args.M, mu, grid)
            worst_id = max(worst_id, float(np.max(np.abs(gen_eval_arma(model, grid) - ref) / np.abs(ref))))
            worst_acvf = max(worst_acvf, float(np.max(np.abs(
                arma_acvf(model, 50) - acvf_renewal(spec, args.M, 50)))))
            k2 = scale_constant(spec.variance(), pgf.den, theta_poly(model))
            worst_k = max(worst_k, abs(model.k - k2) / abs(k2))
            worst_lim = max(worst_lim, abs(second_moment_limit(pgf) - spec.variance()))
        order_text = ",".join(f"({a},{b})" for a, b in sorted(orders))
        print(f"{p:>2} {args.per_p:>6} {refusals.total():>6} {worst_id:>15.3e} {worst_acvf:>13.3e} "
              f"{worst_k:>10.3e} {worst_lim:>10.3e} {order_text:>10}")
        for text, count in refusals.most_common():
            print(f"{'':>9} {count:>6}  refused: {text}")


if __name__ == "__main__":
    main()
