#!/usr/bin/env python3
"""Sampling self-test: draw samples from a model and run a one-sample KS test
of each sample against the generating cdf, across sample sizes.

Example:

    python scripts/run_selftest.py --family loggammag1 --base weibull --reps 100
"""

import argparse

from genfit import selftest
from genfit.selftest import default_n_grid


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", default="loggammag1")
    parser.add_argument("--base", default="weibull")
    parser.add_argument("--reps", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-grid", type=int, nargs="*", default=None)
    args = parser.parse_args()

    grid = args.n_grid if args.n_grid else default_n_grid()
    print(f"{args.family} x {args.base}, {args.reps} replications per n")
    print(f"{'n':>4} {'median p':>9} {'frac p>0.05':>12} {'redraws':>8}")
    for row in selftest(args.family, args.base, n_grid=grid,
                        reps=args.reps, seed=args.seed):
        s = row.summary()
        print(f"{s['n']:>4} {s['median']:>9.4f} {s['frac_above_0.05']:>12.3f} "
              f"{s['redraws']:>8}")


if __name__ == "__main__":
    main()
