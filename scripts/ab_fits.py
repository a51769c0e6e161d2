#!/usr/bin/env python3
"""Time genfit's fits at a git ref against the working tree, in one process.

    python scripts/ab_fits.py --ref HEAD~1
    python scripts/ab_fits.py --ref main --layout reference --rounds 10

The ref is checked out as ``compare_outputs.py`` does (``ref_tree``), and its
``genfit`` is imported beside the working tree's under another name, so both
sides run in this one interpreter on the same numpy and scipy.  After an
untimed warm-up (every fit once per side at ``max_iter=5``), each round runs
every fit of the layout on both sides, one right after the other; the side
that goes first alternates from fit to fit and from round to round.  A fit
(its ``SpacingContext`` and ``fit`` call) is timed in process CPU time.

It prints, per fit and for the whole round, each side's median CPU time, the
median of the per-round ratio working tree / ref and the rounds the working
tree was faster.  The exit status is 1 when any fit's theta-hat, S,
evaluation count, converged flag or message differs between the sides in any
round, else 0.

The layouts:

* ``survey``: perfbench fit_survey's 24 fits: family i (sorted) with base
  i mod 15 (sorted), on bearing and pollution alternately, by Nelder-Mead
  with no restarts, seed 0;
* ``reference``: the three reference fits (bearing weibullg x weibull,
  pollution mog x exp, earthquake kumg x birnbaum-saunders), each by
  Nelder-Mead and by BFGS with 3 restarts, seed 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

from compare_outputs import REFERENCE_FITS, REPO, ref_tree


def _import(name, src):
    """The package ``src/genfit`` imported as ``name``."""
    spec = importlib.util.spec_from_file_location(name, src / "genfit" / "__init__.py",
                                                  submodule_search_locations=[str(src / "genfit")])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def layout(genfit, name):
    """The layout's fits as (label, dataset, family, base, OptimizerConfig keywords)."""
    if name == "reference":
        return [(f"{data}:{family}x{base}:{method}", data, family, base, dict(method=method, restarts=3, seed=0))
                for data, family, base in REFERENCE_FITS for method in ("nelder-mead", "bfgs")]
    families = sorted(genfit.family_transforms.FAMILIES)
    bases = sorted(genfit.base_distributions.BASE_DISTRIBUTIONS)
    fits = []
    for i, family in enumerate(families):
        data, base = ("bearing", "pollution")[i % 2], bases[i % len(bases)]
        fits.append((f"{data}:{family}x{base}", data, family, base, dict(method="nelder-mead", restarts=0, seed=0)))
    return fits


def run_fit(genfit, data, family, base, config):
    """(process CPU seconds, the fit's outputs as comparable values)."""
    x = genfit.datasets.load_dataset(data)
    cfg = genfit.optimizers.OptimizerConfig(**config)
    t0 = time.process_time()
    try:
        res = genfit.mps_fit.fit(genfit.mps_fit.SpacingContext(x, family, base, True), cfg)
    except ValueError as exc:  # an infeasible start is an outcome to compare
        out = f"{type(exc).__name__}: {exc}"
    else:
        conv = res.convergence
        out = (res.theta_hat.tobytes(), float(res.s_opt).hex(), conv.n_evals, conv.converged, conv.message)
    return time.process_time() - t0, out


def measure(sides, fits, rounds):
    """Per fit, each side's CPU times over the rounds, and the fits whose
    outputs differed between the sides."""
    for side in sides:  # warm-up: imports done lazily, caches filled
        for _, data, family, base, config in fits:
            run_fit(side, data, family, base, dict(config, max_iter=5))
    times = [([], []) for _ in fits]
    differ = set()
    for r in range(rounds):
        for i, (label, data, family, base, config) in enumerate(fits):
            order = (0, 1) if (r + i) % 2 == 0 else (1, 0)
            outs = [None, None]
            for s in order:
                t, outs[s] = run_fit(sides[s], data, family, base, config)
                times[i][s].append(t)
            if outs[0] != outs[1]:
                differ.add(label)
    return times, differ


def report(fits, times):
    def row(label, ref, new):
        ratios = [b / a for a, b in zip(ref, new)]
        wins = sum(b < a for a, b in zip(ref, new))
        print(f"{label:48s} {statistics.median(ref) * 1e3:9.1f} {statistics.median(new) * 1e3:9.1f} "
              f"{statistics.median(ratios):8.3f} {wins:>4d}/{len(ref)}")

    print(f"{'fit':48s} {'ref ms':>9s} {'new ms':>9s} {'new/ref':>8s} {'wins':>6s}")
    for (label, *_), (ref, new) in zip(fits, times):
        row(label, ref, new)
    row("round (all fits)", *([sum(col) for col in zip(*(t[s] for t in times))] for s in (0, 1)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True, help="the git ref to time the working tree against")
    parser.add_argument("--layout", choices=("survey", "reference"), default="survey")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--repo", type=Path, default=REPO, help="the repository (default: this script's)")
    args = parser.parse_args(argv)
    repo = args.repo.resolve()
    with ref_tree(repo, args.ref) as tree:
        sides = (_import("genfit_ref", tree / "src"), _import("genfit", repo / "src"))
        fits = layout(sides[1], args.layout)
        times, differ = measure(sides, fits, args.rounds)
    report(fits, times)
    for label in sorted(differ):
        print(f"{label}: the outputs differ between the sides")
    print(f"{len(fits) - len(differ)} of {len(fits)} fits identical between the sides")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
