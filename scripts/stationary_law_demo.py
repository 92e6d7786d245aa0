#!/usr/bin/env python3
"""Sample the stationary law of the geometric-Brownian discounting model
and compare it with its inverse-gamma closed form.

Prints a small quantile table; with --csv the full sorted sample is
written for external plotting.

Usage: python3 scripts/stationary_law_demo.py [--n 10000] [--horizon 15]
"""

import argparse
import os
import sys

import numpy as np
from scipy.special import gammaincc, gammainccinv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from gouflow import stationary_sampler  # noqa: E402
from gouflow.presets import get_preset  # noqa: E402


def run(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=10_000)
    ap.add_argument("--horizon", type=float, default=15.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--csv", default=None)
    args = ap.parse_args(argv)

    model = get_preset("dufresne").model
    dist = stationary_sampler(model, "causal", args.n, args.horizon, args.seed)
    print(
        f"n = {dist.n}, truncation diagnostic failures: "
        f"{dist.metadata['diagnostic_fail_fraction']:.2%}"
    )

    # closed form: inverse-gamma, shape 3, scale 1 (see presets module)
    shape, scale = 3.0, 1.0
    print(f"{'q':>6} {'empirical':>12} {'closed form':>12}")
    for q in (0.05, 0.25, 0.5, 0.75, 0.95):
        exact = scale / gammainccinv(shape, q)
        print(f"{q:>6.2f} {dist.quantile(q):>12.4f} {exact:>12.4f}")

    emp_cdf = np.arange(1, dist.n + 1) / dist.n
    exact_cdf = gammaincc(shape, scale / dist.values)
    print(f"KS distance vs oracle: {np.max(np.abs(emp_cdf - exact_cdf)):.4f}")

    if args.csv:
        dist.export(args.csv)
        print(f"sample written to {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
