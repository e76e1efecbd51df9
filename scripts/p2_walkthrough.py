#!/usr/bin/env python3
"""End-to-end walkthrough of the two-term-head example (f1=0.2, f2=0.3, r=0.6).

Builds the lifetime, factors the count-series autocovariance into its
ARMA(2,1) form, prints both routes to every constant, and checks the theory
against a seeded simulation.
"""

import argparse
import math

import numpy as np

from renewal_arma import (
    acvf_renewal,
    age_chain,
    arma_acvf,
    check_causal_invertible,
    closed_form_p2,
    conditional_probs_p2,
    factorize,
    joint_probs_p2,
    make_constant_hazard,
    sample_acvf,
    simulate_counts,
)
from renewal_arma.simulate import SimConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--f1", type=float, default=0.2)
    ap.add_argument("--f2", type=float, default=0.3)
    ap.add_argument("--r", type=float, default=0.6)
    ap.add_argument("--M", type=int, default=5)
    ap.add_argument("--steps", type=int, default=10 ** 6)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    spec = make_constant_hazard([args.f1, args.f2], args.r)
    print(f"lifetime: head={spec.head}, r={spec.r}, f_{spec.p + 1}={spec.tail_first:.6g}")
    print(f"mean lifetime mu = {spec.mean():.6g}, variance = {spec.variance():.6g}")
    print(f"hazard beyond lag {spec.p}: {age_chain(spec)[0][-1]:.6g} (constant, = 1 - r)")

    model = factorize(spec.pgf(), args.M)
    print(f"\nARMA({len(model.phi)},{len(model.theta)}) factorization:")
    print(f"  phi   = {model.phi}")
    print(f"  theta = {model.theta}")
    print(f"  k     = {model.k:.10g}   sigma2 = k*M/mu = {model.sigma2:.10g}")
    phi_cf, theta_cf, k_cf = closed_form_p2(args.f1, args.f2, args.r)
    print(f"  closed-form route: phi={phi_cf}, theta={theta_cf}, k={k_cf:.10g}")
    report = check_causal_invertible(model)
    print(f"  root moduli: AR {report.ar_root_moduli}, MA {report.ma_root_moduli} "
          f"-> {'causal and invertible' if report.passes else 'INVALID'}")

    hmax = 8
    theory = acvf_renewal(spec.pgf(), args.M, hmax)
    via_model = arma_acvf(model, hmax)
    series = simulate_counts(SimConfig(spec=spec, M=args.M, steps=args.steps, seed=args.seed))
    empirical = sample_acvf(series, hmax)
    print(f"\nautocovariance, theory vs model vs {args.steps}-step simulation:")
    print(f"  {'h':>2} {'renewal':>12} {'arma':>12} {'empirical':>12}")
    for h in range(hmax + 1):
        print(f"  {h:>2} {theory[h]:>12.6f} {via_model[h]:>12.6f} {empirical[h]:>12.6f}")
    print(f"  max |renewal - arma| = {np.max(np.abs(theory - via_model)):.2e}")

    joint = joint_probs_p2(spec)
    cond = conditional_probs_p2(spec)
    print("\nsecond-order structure of one indicator chain:")
    print("  joint (X_t, X_t-1, X_t-2):  "
          + "  ".join(f"{k}={joint[k]:.6f}" for k in ("q", "p1", "p12", "p123")))
    print("  conditionals: " + "  ".join(f"{k}={v:.4f}" for k, v in cond.items() if k.startswith("p1")))

    mean = series.values.mean()
    se = series.values.std(ddof=1) / math.sqrt(len(series.values))
    print(f"\nsimulated marginal mean {mean:.5f} vs M/mu = {args.M / spec.mean():.5f} "
          f"(diff = {abs(mean - args.M / spec.mean()) / se:.2f} SE)")


if __name__ == "__main__":
    main()
