#!/usr/bin/env python3
"""Compare genfit's library outputs between a git ref and the working tree.

    python scripts/compare_outputs.py --ref HEAD~1
    python scripts/compare_outputs.py --ref main --grid small
    python scripts/compare_outputs.py --ref main --expect 'cdf_upper:*:*'

The ref is checked out with ``git worktree add --detach`` into a temporary
directory (local only) and removed again afterwards.  This file's worker half
then runs twice, each time in a fresh interpreter with one side's ``src`` on
``PYTHONPATH``, so both sides evaluate the very same grid.  It looks each
function up as it calls it, so a name one side lacks is recorded as that
side's output, an ``AttributeError``, and its groups are listed as moved.

For every (function, family, base) it reports how many outputs are
bit-identical, the largest change in ulps and the largest relative change;
fits compare theta-hat, S, the evaluation count, the converged flag and the
message; CLI calls (``python -m genfit.cli``, one fresh interpreter each)
compare the exit code, stdout and stderr byte for byte.  It also prints the
infeasible-start counts of each side.  The exit status is 1 when an output
moved whose ``function:family:base`` matches no ``--expect`` pattern
(fnmatch syntax, plus ``{a,b}`` alternatives), else 0.

The grids:

* ``full``: 24 families x 15 bases at two seeded theta each, location on and
  off, arrays and scalars: x = mu + {0, 1e-300, 1e-12, logspace(-8, 10, 60)},
  NaN and mu - 1 through the cdf (both tails, plain and log), the log-pdf
  and, on a p grid, the quantile (both tails, plain and log); per base at two
  seeded theta (mu = 0.5), the public ``base_*`` functions on the same x and
  p grids, keyed ``base_cdf:-:<base>``; ``h_forward``, ``log_h_prime`` and
  ``h_inverse`` per family; eval_bulk's six compositions at seeds 11 and 12;
  a deep-tail group of 2^16-element calls for every
  composition whose chain holds GP (the gamma and chisq bases, the five
  gammag families): upper quantiles at q = 10^-U(0, 320), at ln q down to
  -2,000, and the log-pdf at x - mu up to 1e6; S at every start of all
  1,080 compositions on the three bundled datasets, through ``spacing_value``
  at the natural start and through the fit's own objective at its free
  coordinates; the fit's stack objective at each reference composition's
  start and 16 seeded jittered rows; the three reference fits by Nelder-Mead at the
  optimizer seeds 0-5 that perfbench's fit_reference uses, and by BFGS and CG
  at seed 0; the 24 fit_survey layout fits; and the CLI grid: ``fit`` of the three
  reference models by Nelder-Mead and BFGS, ``cdf`` and ``quantile`` of
  eval_bulk's six compositions, and one seeded ``selftest`` of kumg x weibull.
  About a minute per side; each side's record is about 200 MB.
* ``small``: a few compositions and bases of each kind, the stack objective
  of the pollution reference composition, one short fit, and
  the CLI's ``cdf`` call and the ``selftest`` call.
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent

X_OFFSETS = np.concatenate([[0.0, 1e-300, 1e-12], np.logspace(-8, 10, 60)])
P_GRID = np.array([0.0, 1e-300, 1e-100, 1e-20, 1e-10, 1e-5, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99,
                   1 - 1e-5, 1 - 1e-10, 1 - 2.0**-52, 1.0])
U_GRID = np.concatenate([[0.0, 1e-300, 1e-20, 1e-10], np.linspace(0.01, 0.99, 44), [1 - 1e-10, 1 - 2.0**-52, 1.0]])
SCALAR_X, SCALAR_P = (3, 30, 50), (3, 9, 13)

REFERENCE_FITS = (("bearing", "weibullg", "weibull"), ("pollution", "mog", "exp"),
                  ("earthquake", "kumg", "birnbaum-saunders"))
BULK_COMPOSITIONS = (
    ("kumg", "weibull", (2.0, 3.0, 1.5, 2.0, 0.5)),
    ("mog", "exp", (2.0, 0.5, 0.0)),
    ("weibullg", "log-normal", (1.5, 0.8, 0.3, 0.6, 1.0)),
    ("betag", "gamma", (2.5, 1.5, 2.0, 1.5, 0.0)),
    ("gammag", "lomax", (2.0, 3.0, 2.0, 0.0)),
    ("loggammag1", "birnbaum-saunders", (1.5, 2.0, 0.5, 1.0, 0.0)),
)

# the compositions whose chain holds GP, the gamma cdf map
GP_FAMILIES = ("gammag", "gammag1", "gammag2", "loggammag1", "loggammag2")
GP_BASES = ("chisq", "gamma")


# --- the worker: runs against one side's src ------------------------------------

def _call(fn, *args, **kw):
    """fn's output as a float array, or the text of what it raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return np.array(fn(*args, **kw), dtype=float)
    except Exception as exc:  # noqa: BLE001 -- a raise is an output to compare
        return f"{type(exc).__name__}: {exc}"


def _lazy(module, name):
    """module.name, looked up only when called: a name this side lacks raises
    inside ``_call``."""
    return lambda *args, **kw: getattr(module, name)(*args, **kw)


def _theta(genfit, fi, bi, j, family, base):
    """Seeded in-domain parameters for one composition (location excluded), or
    for the base alone when ``family`` is None."""
    rng = np.random.default_rng([fi, bi, j])
    out = []
    for lo, hi in genfit.family_transforms.get_family(family).domains if family else ():
        out.append(rng.uniform(0.5, 3.0) if math.isinf(hi) else rng.uniform(0.8 * lo + 0.2 * hi, 0.2 * lo + 0.8 * hi))
    dist = genfit.base_distributions.get_base(base)
    out += [rng.uniform(-1.0, 1.0) if math.isinf(lo) else rng.uniform(0.5, 3.0) for lo, _ in dist.domains]
    return tuple(out)


def _composition_grid(genfit, rec, families, bases, n_theta):
    ft = genfit.family_transforms
    cdf, log_pdf, quantile = (_lazy(ft, f"family_{name}") for name in ("cdf", "log_pdf", "quantile"))
    all_f, all_b = sorted(ft.FAMILIES), sorted(genfit.base_distributions.BASE_DISTRIBUTIONS)
    for family in families:
        fi = all_f.index(family)
        for base in bases:
            bi = all_b.index(base)
            for j in range(n_theta):
                shape = _theta(genfit, fi, bi, j, family, base)
                for location, mu in ((True, 0.5), (False, 0.0)):
                    params = shape + ((mu,) if location else ())
                    x = np.concatenate([mu + X_OFFSETS, [np.nan, mu - 1.0]])
                    calls = {
                        "cdf": (cdf, x, {}),
                        "cdf_log": (cdf, x, {"log_p": True}),
                        "cdf_upper": (cdf, x, {"lower_tail": False}),
                        "cdf_upper_log": (cdf, x, {"lower_tail": False, "log_p": True}),
                        "log_pdf": (log_pdf, x, {}),
                        "quantile": (quantile, P_GRID, {}),
                        "quantile_upper": (quantile, P_GRID, {"lower_tail": False}),
                        "quantile_log": (quantile, np.log(P_GRID[1:]), {"log_p": True}),
                    }
                    for name, (fn, pts, kw) in calls.items():
                        rec[(name, family, base, f"{j}:{location}:array")] = _call(
                            fn, family, base, pts, params, location, **kw)
                        for i in SCALAR_P if fn is quantile else SCALAR_X:
                            rec[(name, family, base, f"{j}:{location}:scalar{i}")] = _call(
                                fn, family, base, float(pts[i]), params, location, **kw)
        for j in range(n_theta):
            induced = _theta(genfit, fi, 0, j, family, all_b[0])[: len(ft.get_family(family).param_names)]
            for name, pts in (("h_forward", U_GRID), ("log_h_prime", U_GRID), ("h_inverse", P_GRID)):
                rec[(name, family, "-", str(j))] = _call(_lazy(ft, name), family, pts, induced)


def _base_grid(genfit, rec, bases, n_theta):
    """The public base functions per base, on the x grid (cdf, sf, ln sf, ln pdf,
    ln hazard) and the p grid (quantile)."""
    bd = genfit.base_distributions
    all_b = sorted(bd.BASE_DISTRIBUTIONS)
    for base in bases:
        bi = all_b.index(base)
        for j in range(n_theta):
            params = _theta(genfit, 0, bi, j, None, base) + (0.5,)
            x = np.concatenate([0.5 + X_OFFSETS, [np.nan, -0.5]])
            calls = [(name, x, SCALAR_X) for name in ("cdf", "sf", "log_sf", "log_pdf", "log_hazard")]
            calls += [("quantile", P_GRID, SCALAR_P)]
            for name, pts, scalars in calls:
                name = f"base_{name}"
                fn = _lazy(bd, name)
                rec[(name, "-", base, f"{j}:array")] = _call(fn, base, pts, params)
                for i in scalars:
                    rec[(name, "-", base, f"{j}:scalar{i}")] = _call(fn, base, float(pts[i]), params)


def _bulk(genfit, rec, compositions, n):
    ft = genfit.family_transforms
    for seed in (11, 12):
        for i, (family, base, params) in enumerate(compositions):
            p = np.random.default_rng([seed, i]).uniform(size=n)
            x = _call(_lazy(ft, "family_quantile"), family, base, p, params)
            rec[("bulk_quantile", family, base, str(seed))] = x
            if isinstance(x, str):
                continue
            for name in ("cdf", "pdf"):
                fn = _lazy(ft, f"family_{name}")
                rec[(f"bulk_{name}", family, base, str(seed))] = _call(fn, family, base, x, params)


def deep_tail_inputs(i, n):
    """The deep-tail inputs of the i-th composition: upper-tail q = 10^-U(0, 320),
    upper-tail ln q = -U(0, 2000), and x - mu = 10^U(0, 6)."""
    rng = np.random.default_rng([13, i])
    return 10.0 ** -rng.uniform(0.0, 320.0, n), -rng.uniform(0.0, 2000.0, n), 10.0 ** rng.uniform(0.0, 6.0, n)


def deep_tail_calls(genfit, family, base, i, n):
    """``{name: (fn, points, kwargs)}`` of the deep-tail group for one composition
    at its first seeded theta, mu = 0.5."""
    ft = genfit.family_transforms
    all_f, all_b = sorted(ft.FAMILIES), sorted(genfit.base_distributions.BASE_DISTRIBUTIONS)
    params = _theta(genfit, all_f.index(family), all_b.index(base), 0, family, base) + (0.5,)
    q, log_q, dx = deep_tail_inputs(i, n)
    quantile = _lazy(ft, "family_quantile")
    return params, {
        "deep_quantile_upper": (quantile, q, {"lower_tail": False}),
        "deep_quantile_log": (quantile, log_q, {"lower_tail": False, "log_p": True}),
        "deep_log_pdf": (_lazy(ft, "family_log_pdf"), 0.5 + dx, {}),
    }


def _deep_tail(genfit, rec, compositions, n):
    """Large deep-tail calls, where an element's value once depended on the
    others in its call (the gamma cdf map's solvers stopped on the slowest)."""
    for i, (family, base) in enumerate(compositions):
        params, calls = deep_tail_calls(genfit, family, base, i, n)
        for name, (fn, pts, kw) in calls.items():
            rec[(name, family, base, "0")] = _call(fn, family, base, pts, params, **kw)


def _starts(genfit, rec, datasets, families, bases):
    """S at every start, natural (``S_starts``) and through the fit's objective
    at the start's free coordinates (``S_free_starts``)."""
    mf = genfit.mps_fit

    def at_starts(s, data, family, base):
        ctx = mf.SpacingContext(data, family, base, True)
        return [s(ctx, theta) for theta in mf._starts(ctx)]

    def natural(ctx, theta):
        return mf.spacing_value(theta, ctx)

    def free(ctx, theta):
        return mf._spacing_rows(mf.to_free(ctx, theta)[None], ctx)[0]

    for name in datasets:
        data = genfit.datasets.load_dataset(name)
        for family in families:
            for base in bases:
                for label, s in (("S_starts", natural), ("S_free_starts", free)):
                    rec[(label, family, base, name)] = _call(at_starts, s, data, family, base)


def _stack(genfit, rec, fits):
    """The fit's stack objective at a reference composition's free start and
    16 seeded rows jittered from it as a restart's are."""
    mf = genfit.mps_fit

    def at_start(i, name, family, base):
        ctx = mf.SpacingContext(genfit.datasets.load_dataset(name), family, base, True)
        x = mf.to_free(ctx, mf._start_theta(ctx))
        rows = np.vstack([x, x + np.random.default_rng([17, i]).normal(scale=0.3, size=(16, x.size))])
        return mf._spacing_rows(rows, ctx)

    for i, (name, family, base) in enumerate(fits):
        rec[("S_stack", family, base, name)] = _call(at_start, i, name, family, base)


def _fit(genfit, rec, label, name, family, base, **config):
    mf = genfit.mps_fit
    key = f"{name}:seed{config['seed']}"
    try:
        ctx = mf.SpacingContext(genfit.datasets.load_dataset(name), family, base, True)
        res = mf.fit(ctx, genfit.optimizers.OptimizerConfig(**config))
        conv = res.convergence
        rec[(label, family, base, key)] = np.concatenate(
            [res.theta_hat, [res.s_opt, conv.n_evals, float(conv.converged)]])
        rec[(label + "_message", family, base, key)] = str(conv.message)
    except Exception as exc:  # noqa: BLE001
        rec[(label, family, base, key)] = f"{type(exc).__name__}: {exc}"


CLI_X = "0.05,0.5,1,1.5,2,3,5,10,50"
CLI_P = "0.001,0.01,0.1,0.25,0.5,0.75,0.9,0.99,0.999"


def _cli(rec, key, *argv):
    """One cold ``python -m genfit.cli`` call on this side's src (the worker's
    PYTHONPATH): its exit code, stdout and stderr as one text."""
    proc = subprocess.run([sys.executable, "-m", "genfit.cli", *argv], capture_output=True, text=True)
    rec[key] = f"exit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}"


def _cli_evaluate(rec, family, base, params):
    for verb, flag, points in (("cdf", "--x", CLI_X), ("quantile", "--p", CLI_P)):
        _cli(rec, (f"cli_{verb}", family, base, "-"), verb, "--family", family, "--base", base,
             "--params", ",".join(map(repr, params)), flag, points, "--output", "json")


def run_worker(grid, out):
    import genfit
    import genfit.datasets
    import genfit.mps_fit
    import genfit.optimizers

    rec = {}
    families = sorted(genfit.family_transforms.FAMILIES)
    bases = sorted(genfit.base_distributions.BASE_DISTRIBUTIONS)
    if grid == "small":
        _composition_grid(genfit, rec, ["kumg", "mog", "betag"], ["weibull", "gamma"], 1)
        _base_grid(genfit, rec, ["weibull", "gamma"], 1)
        _bulk(genfit, rec, BULK_COMPOSITIONS[:2], 1000)
        _starts(genfit, rec, ["bearing"], ["kumg", "mog", "betag"], ["weibull", "gamma"])
        _stack(genfit, rec, REFERENCE_FITS[1:2])
        _fit(genfit, rec, "fit_reference", "pollution", "mog", "exp", method="nelder-mead", max_iter=50, seed=0)
        _cli(rec, ("cli_cdf", "mog", "exp", "-"), "cdf", "--family", "mog", "--base", "exp",
             "--params", "2,0.5,0", "--x", CLI_X, "--output", "json")
    else:
        _composition_grid(genfit, rec, families, bases, 2)
        _base_grid(genfit, rec, bases, 2)
        _bulk(genfit, rec, BULK_COMPOSITIONS, 100_000)
        _deep_tail(genfit, rec, [(f, b) for f in families for b in bases if f in GP_FAMILIES or b in GP_BASES],
                   2**16)
        _starts(genfit, rec, ["bearing", "pollution", "earthquake"], families, bases)
        _stack(genfit, rec, REFERENCE_FITS)
        for name, family, base in REFERENCE_FITS:
            for seed in range(6):  # fit_reference's Nelder-Mead seeds
                _fit(genfit, rec, "fit_nelder-mead", name, family, base, method="nelder-mead", restarts=3, seed=seed)
            for method in ("bfgs", "cg"):
                _fit(genfit, rec, f"fit_{method}", name, family, base, method=method, restarts=3, seed=0)
            for method in ("nelder-mead", "bfgs"):
                _cli(rec, (f"cli_fit_{method}", family, base, name), "fit", "--family", family, "--base", base,
                     "--data", name, "--method", method, "--seed", "0", "--output", "json")
        for i, family in enumerate(families):
            _fit(genfit, rec, "fit_survey", ("bearing", "pollution")[i % 2], family, bases[i % len(bases)],
                 method="nelder-mead", restarts=0, seed=0)
        for family, base, params in BULK_COMPOSITIONS:
            _cli_evaluate(rec, family, base, params)
    # a seeded self-test checks its theta draws and samples byte for byte
    _cli(rec, ("cli_selftest", "kumg", "weibull", "-"), "selftest", "--family", "kumg", "--base", "weibull",
         "--n-grid", "5,10", "--reps", "3", "--seed", "1", "--output", "json")
    with open(out, "wb") as fh:
        pickle.dump(rec, fh)


# --- the comparison -----------------------------------------------------------------

def _ulps(a, b):
    """|a - b| in units in the last place (the count of doubles between them)."""
    i, j = (np.where(x.view(np.int64) < 0, np.int64(-(2**63)) - x.view(np.int64), x.view(np.int64)) for x in (a, b))
    with np.errstate(over="ignore"):
        d = np.abs(i - j).astype(float)
    # opposite signs may overflow the integer difference
    return np.where((i < 0) != (j < 0), np.abs(i.astype(float) - j.astype(float)), d)


def compare_values(a, b):
    """(count, bit-identical, max ulps, max relative change) of two outputs."""
    if isinstance(a, str) or isinstance(b, str) or a.shape != b.shape:
        same = isinstance(a, str) and isinstance(b, str) and a == b
        return 1, int(same), (0.0 if same else math.inf), (0.0 if same else math.inf)
    a, b = np.ravel(a).astype(float), np.ravel(b).astype(float)
    both_nan = np.isnan(a) & np.isnan(b)
    same = (a.view(np.int64) == b.view(np.int64)) | both_nan
    fin = np.isfinite(a) & np.isfinite(b)
    ulp = np.where(fin, _ulps(a, b), np.where(same | (a == b), 0.0, math.inf))
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(fin, np.abs(a - b) / np.maximum(np.abs(a), np.abs(b)), np.where(same | (a == b), 0.0, math.inf))
    rel = np.where(np.isnan(rel), 0.0, rel)
    return a.size, int(same.sum()), float(ulp.max(initial=0.0)), float(rel.max(initial=0.0))


def infeasible_counts(rec):
    """Per dataset: (moment start -inf, every start -inf) over S_starts."""
    out = {}
    for (fn, _, _, name), v in rec.items():
        if fn != "S_starts":
            continue
        m, a = out.get(name, (0, 0))
        bad = isinstance(v, str) or not np.isfinite(v[0])
        out[name] = (m + bad, a + (isinstance(v, str) or not np.any(np.isfinite(v))))
    return out


def _alternatives(pattern):
    """The fnmatch patterns a pattern with ``{a,b,...}`` groups stands for."""
    m = re.search(r"\{([^{}]*)\}", pattern)
    if not m:
        return [pattern]
    return [q for alt in m.group(1).split(",") for q in _alternatives(pattern[: m.start()] + alt + pattern[m.end():])]


def compare(old, new, expect):
    """Print the report; True when every moved group is expected."""
    groups = {}
    for key in sorted(set(old) | set(new), key=str):
        a, b = old.get(key, "missing"), new.get(key, "missing")
        g = groups.setdefault(key[:3], [0, 0, 0.0, 0.0])
        n, same, ulp, rel = compare_values(a, b)
        g[0] += n
        g[1] += same
        g[2], g[3] = max(g[2], ulp), max(g[3], rel)
    moved = {k: g for k, g in groups.items() if g[1] < g[0]}
    total = sum(g[0] for g in groups.values())
    print(f"{total} outputs in {len(groups)} groups; {len(moved)} groups moved")
    unexpected = []
    if moved:
        print(f"{'function:family:base':48s} {'identical':>13s} {'max ulp':>10s} {'max rel':>10s}")
    for (fn, fam, base), (n, same, ulp, rel) in sorted(moved.items()):
        name = f"{fn}:{fam}:{base}"
        ok = any(fnmatch.fnmatchcase(name, pat) for pat in expect for pat in _alternatives(pat))
        unexpected += [] if ok else [name]
        print(f"{name:48s} {same:>6d}/{n:<6d} {ulp:10.3g} {rel:10.3g}{'' if ok else '  UNEXPECTED'}")
    by_family = {}
    for (fn, fam, _), (n, same, ulp, rel) in moved.items():
        g = by_family.setdefault((fn, fam), [0, 0, 0, 0.0, 0.0])
        g[0] += 1
        g[1] += n
        g[2] += same
        g[3], g[4] = max(g[3], ulp), max(g[4], rel)
    if by_family:
        print(f"\nby function and family: {'moved groups':>12s} {'identical':>17s} {'max ulp':>10s} {'max rel':>10s}")
    for (fn, fam), (k, n, same, ulp, rel) in sorted(by_family.items()):
        print(f"{fn + ':' + fam:34s} {k:>12d} {same:>8d}/{n:<8d} {ulp:10.3g} {rel:10.3g}")
    for label, rec in (("ref", old), ("new", new)):
        counts = infeasible_counts(rec)
        if counts:
            text = ", ".join(f"{k} {m}/{a}" for k, (m, a) in sorted(counts.items()))
            print(f"infeasible starts ({label}; moment start/every start): {text}")
    if unexpected:
        print(f"{len(unexpected)} moved groups not named by --expect")
    return not unexpected


@contextlib.contextmanager
def ref_tree(repo, ref):
    """A detached ``git worktree`` of ``ref`` in a temporary directory, removed
    again on exit; the directory holding it is scratch space for the caller."""
    with tempfile.TemporaryDirectory(prefix="genfit-compare-") as tmp:
        tree = Path(tmp) / "ref"
        subprocess.run(["git", "-C", str(repo), "worktree", "add", "--detach", "--quiet", str(tree), ref], check=True)
        try:
            yield tree
        finally:
            subprocess.run(["git", "-C", str(repo), "worktree", "remove", "--force", str(tree)], check=False)


def _run_side(src, grid, out):
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, __file__, "--worker", str(out), "--grid", grid],
                   env=env, check=True, cwd=str(src.parent))
    with open(out, "rb") as fh:
        return pickle.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", help="the git ref to compare the working tree with")
    parser.add_argument("--grid", choices=("full", "small"), default="full")
    parser.add_argument("--expect", action="append", default=[],
                        help="fnmatch pattern over function:family:base of an expected change")
    parser.add_argument("--repo", type=Path, default=REPO, help="the repository (default: this script's)")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        run_worker(args.grid, args.worker)
        return 0
    if not args.ref:
        parser.error("--ref is required")
    repo = args.repo.resolve()
    with ref_tree(repo, args.ref) as tree:
        old = _run_side(tree / "src", args.grid, tree.parent / "ref.pkl")
        new = _run_side(repo / "src", args.grid, tree.parent / "new.pkl")
    return 0 if compare(old, new, args.expect) else 1


if __name__ == "__main__":
    sys.exit(main())
