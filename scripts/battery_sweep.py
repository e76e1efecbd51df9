#!/usr/bin/env python3
"""Sweep random lifetimes and report the worst-case factorization errors.

For each head length p the sweep draws random valid lifetimes, factors the
autocovariance generating function, and reports the worst of four analytic
gates of ``verify``: how well the ARMA side reproduces the renewal side on
the unit circle and lag by lag, the agreement of the two routes to the scale
constant, and the exact variance limit.  Draws whose factorization, or a gate
on it, is refused are counted in the ``failed`` column, and listed under the
row by reason: the ``FactorizationError`` message with its numbers masked as
``#``.
"""

import argparse
import re
from collections import Counter

import numpy as np

from renewal_arma import FactorizationError, factorize, make_constant_hazard
from renewal_arma.verify import analytic_gates

COLUMNS = ("generating_function_identity", "acvf_identity", "scale_constant_routes", "variance_limit")


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
    print(f"{'p':>2} {'specs':>6} {'failed':>6} {'circle rel err':>15} {'acvf abs err':>13} "
          f"{'k rel err':>10} {'limit err':>10} {'orders':>10}")
    for p in range(1, args.max_p + 1):
        worst = dict.fromkeys(COLUMNS, 0.0)
        orders = set()
        refusals = Counter()
        for _ in range(args.per_p):
            spec = draw_spec(rng, p)
            try:
                model = factorize(spec.pgf(), args.M)  # kept on the pgf, so the gates reuse it
                measured = {g.name: g.measured for g in analytic_gates(spec, args.M)}
            except FactorizationError as e:
                refusals[reason(e)] += 1
                continue
            orders.add((len(model.phi), len(model.theta)))
            worst = {name: max(worst[name], measured[name]) for name in COLUMNS}
        id_err, acvf_err, k_err, lim_err = worst.values()
        order_text = ",".join(f"({a},{b})" for a, b in sorted(orders))
        print(f"{p:>2} {args.per_p:>6} {refusals.total():>6} {id_err:>15.3e} {acvf_err:>13.3e} "
              f"{k_err:>10.3e} {lim_err:>10.3e} {order_text:>10}")
        for text, count in refusals.most_common():
            print(f"{'':>9} {count:>6}  refused: {text}")


if __name__ == "__main__":
    main()
