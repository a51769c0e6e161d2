"""Command-line front end.

Subcommands mirror the d/p/q/r/mps verbs of the underlying library:
``pdf``, ``cdf``, ``quantile``, ``sample``, ``fit``, ``selftest``, ``list``.
Reports come in three flavors: a text layout that eyeballs like the classic
R output, a versioned JSON object, and plot-ready CSV.

Exit codes: 0 ok; 2 bad family/base/parameters; 3 unreadable data;
4 fit failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .base_distributions import BASE_DISTRIBUTIONS
from .datasets import BUNDLED, DataParseError, load_dataset
from .family_transforms import (
    FAMILIES,
    family_cdf,
    family_pdf,
    family_quantile,
    family_sample,
)
from .gof import full_report
from .mps_fit import SpacingContext, fit
from .optimizers import OptimizerConfig, resolve_method
from .selftest import default_n_grid, selftest

SCHEMA_VERSION = 1

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_FIT = 4


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _fmt(x: float) -> str:
    if isinstance(x, float) and np.isnan(x):
        return "NA"
    return f"{x:.7g}"


def _parse_grid(text: str) -> np.ndarray:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise CliError(f"grid {text!r} must be start:stop:step", EXIT_USAGE)
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise CliError("grid step must be positive", EXIT_USAGE)
        return np.arange(start, stop + step / 2.0, step)
    return np.asarray([float(t) for t in text.replace(",", " ").split()])


def _parse_params(text: str) -> np.ndarray:
    try:
        return np.asarray([float(t) for t in text.replace(",", " ").split()])
    except ValueError as exc:
        raise CliError(f"bad --params value: {exc}", EXIT_USAGE) from None


def _check_ids(family: str, base: str):
    if family not in FAMILIES:
        raise CliError(
            f"unknown family {family!r}; valid: {', '.join(sorted(FAMILIES))}",
            EXIT_USAGE,
        )
    if base not in BASE_DISTRIBUTIONS:
        raise CliError(
            f"unknown base {base!r}; valid: {', '.join(sorted(BASE_DISTRIBUTIONS))}",
            EXIT_USAGE,
        )


def _resolve_seed(args) -> int | None:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("GENFIT_SEED")
    return int(env) if env else None


def _load_points(args, flag_name):
    text = getattr(args, flag_name, None)
    if text is not None:
        return _parse_grid(text)
    data = sys.stdin.read()
    try:
        return np.asarray([float(t) for t in data.replace(",", " ").split()])
    except ValueError as exc:
        raise CliError(f"bad point on stdin: {exc}", EXIT_DATA) from None


def _emit_pairs(pairs, output, header=("input", "value")):
    if output == "json":
        print(
            json.dumps(
                {
                    "schema_version": SCHEMA_VERSION,
                    "points": [{header[0]: a, header[1]: b} for a, b in pairs],
                }
            )
        )
    elif output == "csv":
        print(f"{header[0]},{header[1]}")
        for a, b in pairs:
            print(f"{a!r},{b!r}")
    else:
        for a, b in pairs:
            print(f"{_fmt(a)}\t{_fmt(b)}")


def _cmd_evaluate(args, kind):
    _check_ids(args.family, args.base)
    params = _parse_params(args.params)
    try:
        if kind == "pdf":
            pts = _load_points(args, "x")
            vals = family_pdf(args.family, args.base, pts, params, args.location, log=args.log)
        elif kind == "cdf":
            pts = _load_points(args, "x")
            vals = family_cdf(
                args.family, args.base, pts, params, args.location,
                log_p=args.log_p, lower_tail=args.lower_tail,
            )
        else:
            pts = _load_points(args, "p")
            vals = family_quantile(
                args.family, args.base, pts, params, args.location,
                log_p=args.log_p, lower_tail=args.lower_tail,
            )
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE) from None
    vals = np.atleast_1d(np.asarray(vals, dtype=float))
    _emit_pairs(list(zip(pts.tolist(), vals.tolist())), args.output)
    return 0


def _cmd_sample(args):
    _check_ids(args.family, args.base)
    params = _parse_params(args.params)
    try:
        draws = family_sample(
            args.family, args.base, args.n, params, args.location,
            seed=_resolve_seed(args),
        )
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE) from None
    if args.output == "json":
        print(json.dumps({"schema_version": SCHEMA_VERSION, "samples": draws.tolist()}))
    elif args.output == "csv":
        print("sample")
        for v in draws:
            print(repr(float(v)))
    else:
        for v in draws:
            print(_fmt(float(v)))
    return 0


def _load_data(args):
    try:
        data = load_dataset(args.data)
    except DataParseError as exc:
        raise CliError(str(exc), EXIT_DATA) from None
    except FileNotFoundError as exc:
        raise CliError(str(exc), EXIT_DATA) from None
    if data.size < 2:
        raise CliError("need at least 2 observations", EXIT_DATA)
    return data


def fit_report_dict(data, family, base, location, method, sig_level, seed=None):
    """Run the full estimation pipeline and return the JSON-shaped report."""
    ctx = SpacingContext(data, family, base, location)
    config = OptimizerConfig(method=method, seed=seed)
    result = fit(ctx, config)
    report = full_report(
        ctx.data, family, base, result.theta_hat, location, sig_level
    )
    status = (
        "Algorithm Converged"
        if result.convergence.converged
        else "Algorithm Did Not Converge"
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "mps": [float(v) for v in result.theta_hat],
        "measures": {
            "aic": report.aic,
            "caic": report.caic,
            "bic": report.bic,
            "hqic": report.hqic,
            "cm": report.cm,
            "ad": report.ad,
            "log": report.loglik,
            "moran": report.moran,
        },
        "ks": {"statistic": report.ks_stat, "p_value": report.ks_p},
        "chi_square": {
            "statistic": report.chi_statistic,
            "critical": report.chi_critical,
            "p_value": report.chi_p,
        },
        "convergence": {
            "status": status,
            "message": result.convergence.message,
        },
    }


def _print_text_report(rep):
    mea = rep["measures"]
    print("$MPS")
    print("[1] " + " ".join(_fmt(v) for v in rep["mps"]))
    print()
    print("$Measures")
    names = ["AIC", "CAIC", "BIC", "HQIC", "CM", "AD", "log", "Moran"]
    vals = [mea[k] for k in ["aic", "caic", "bic", "hqic", "cm", "ad", "log", "moran"]]
    cells = [(_n, _fmt(v)) for _n, v in zip(names, vals)]
    print(" " + "  ".join(f"{n:>{max(len(n), len(v))}}" for n, v in cells))
    print(" " + "  ".join(f"{v:>{max(len(n), len(v))}}" for n, v in cells))
    print()
    print("$KS")
    print(" statistic   p-value")
    print(f" {_fmt(rep['ks']['statistic'])} {_fmt(rep['ks']['p_value'])}")
    print()
    print("$`chi-square`")
    print(" statistic chi-value   p-value")
    chi = rep["chi_square"]
    print(f" {_fmt(chi['statistic'])} {_fmt(chi['critical'])} {_fmt(chi['p_value'])}")
    print()
    print("$`Convergence Status`")
    print(f"[1] \"{rep['convergence']['status']}\"")


def _cmd_fit(args):
    _check_ids(args.family, args.base)
    try:
        resolve_method(args.method)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE) from None
    if not 0.0 < args.sig_level < 1.0:
        raise CliError("--sig-level must lie in (0, 1)", EXIT_USAGE)
    data = _load_data(args)
    try:
        rep = fit_report_dict(
            data, args.family, args.base, args.location, args.method,
            args.sig_level, seed=_resolve_seed(args),
        )
    except ValueError as exc:
        raise CliError(f"fit failed: {exc}", EXIT_FIT) from None
    if args.output == "json":
        print(json.dumps(rep))
    elif args.output == "csv":
        print("key,value")
        print("mps," + " ".join(repr(v) for v in rep["mps"]))
        for k, v in rep["measures"].items():
            print(f"{k},{v!r}")
        print(f"ks_statistic,{rep['ks']['statistic']!r}")
        print(f"ks_p_value,{rep['ks']['p_value']!r}")
        for k, v in rep["chi_square"].items():
            print(f"chi_{k},{v!r}")
        print(f"convergence,{rep['convergence']['status']}")
    else:
        _print_text_report(rep)
    return 0


def _cmd_selftest(args):
    _check_ids(args.family, args.base)
    grid = (
        [int(v) for v in _parse_grid(args.n_grid)]
        if args.n_grid
        else default_n_grid()
    )
    rows = selftest(
        args.family, args.base, n_grid=grid, reps=args.reps, seed=_resolve_seed(args)
    )
    summaries = [r.summary() for r in rows]
    if args.output == "json":
        print(
            json.dumps(
                {
                    "schema_version": SCHEMA_VERSION,
                    "family": args.family,
                    "base": args.base,
                    "reps": args.reps,
                    "rows": summaries,
                }
            )
        )
    else:
        cols = ["n", "min", "q1", "median", "q3", "max", "frac_above_0.05", "redraws"]
        if args.output == "csv":
            print(",".join(cols))
            for s in summaries:
                print(",".join(repr(s[c]) if isinstance(s[c], float) else str(s[c]) for c in cols))
        else:
            print("  ".join(f"{c:>10}" for c in cols))
            for s in summaries:
                print(
                    "  ".join(
                        f"{_fmt(s[c]) if isinstance(s[c], float) else s[c]:>10}"
                        for c in cols
                    )
                )
    return 0


def _cmd_list(args):
    if args.output == "json":
        print(
            json.dumps(
                {
                    "schema_version": SCHEMA_VERSION,
                    "families": sorted(FAMILIES),
                    "bases": sorted(BASE_DISTRIBUTIONS),
                    "datasets": list(BUNDLED),
                }
            )
        )
    else:
        print("families (%d):" % len(FAMILIES))
        for name in sorted(FAMILIES):
            print(f"  {name}")
        print("bases (%d):" % len(BASE_DISTRIBUTIONS))
        for name in sorted(BASE_DISTRIBUTIONS):
            print(f"  {name}")
        print("bundled datasets: " + ", ".join(BUNDLED))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genfit",
        description="Generalized G-family distributions: evaluate, sample, and fit by maximum product of spacings.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, with_params=True):
        p.add_argument("--family", required=True)
        p.add_argument("--base", required=True)
        if with_params:
            p.add_argument("--params", required=True, help="comma-separated parameter vector (induced first, mu last)")
        p.add_argument("--no-location", dest="location", action="store_false")
        p.add_argument("--output", choices=["text", "json", "csv"], default="text")

    p = sub.add_parser("pdf", help="evaluate the density")
    add_common(p)
    p.add_argument("--x", help="points: start:stop:step or comma list (stdin if omitted)")
    p.add_argument("--log", action="store_true", help="return log-density")

    p = sub.add_parser("cdf", help="evaluate the distribution function")
    add_common(p)
    p.add_argument("--x", help="points: start:stop:step or comma list (stdin if omitted)")
    p.add_argument("--log-p", dest="log_p", action="store_true")
    p.add_argument("--no-lower-tail", dest="lower_tail", action="store_false")

    p = sub.add_parser("quantile", help="evaluate the quantile function")
    add_common(p)
    p.add_argument("--p", help="probabilities: start:stop:step or comma list (stdin if omitted)")
    p.add_argument("--log-p", dest="log_p", action="store_true")
    p.add_argument("--no-lower-tail", dest="lower_tail", action="store_false")

    p = sub.add_parser("sample", help="draw random realizations")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("fit", help="estimate parameters by maximum product of spacings")
    add_common(p, with_params=False)
    p.add_argument("--data", required=True, help="bundled dataset name or data file path")
    p.add_argument("--method", default="nelder-mead")
    p.add_argument("--sig-level", dest="sig_level", type=float, default=0.05)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("selftest", help="sampling accuracy self-test")
    add_common(p, with_params=False)
    p.add_argument("--n-grid", dest="n_grid", help="sample sizes: start:stop:step or comma list")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("list", help="list available families, bases, and datasets")
    p.add_argument("--output", choices=["text", "json", "csv"], default="text")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand in ("pdf", "cdf", "quantile"):
            return _cmd_evaluate(args, args.subcommand)
        if args.subcommand == "sample":
            return _cmd_sample(args)
        if args.subcommand == "fit":
            return _cmd_fit(args)
        if args.subcommand == "selftest":
            return _cmd_selftest(args)
        if args.subcommand == "list":
            return _cmd_list(args)
        parser.error(f"unknown subcommand {args.subcommand}")
    except CliError as exc:
        print(f"genfit: {exc}", file=sys.stderr)
        return exc.code
    return 0


if __name__ == "__main__":
    sys.exit(main())
