"""Command-line front end.

Subcommands mirror the d/p/q/r/mps verbs of the underlying library:
``pdf``, ``cdf``, ``quantile``, ``sample``, ``fit``, ``selftest``, ``list``.
Every verb builds one result (a JSON document, CSV columns and rows, and
optionally its own text lines) and hands it to ``_emit``, the only function
here that prints a result.  Reports come in three flavors: a text layout
that eyeballs like the classic R output, a versioned JSON object, and
plot-ready CSV.

Exit codes: 0 ok; 2 bad family/base/parameters; 3 unreadable or unusable
data; 4 fit failure.  The library's ``KeyError`` (unknown name) and
``ValueError`` (bad count, domain, probability or size) both map to 2 in
``main``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .base_distributions import BASE_DISTRIBUTIONS
from .datasets import BUNDLED, load_dataset
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
from .selftest import selftest

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


def _emit(output, doc, columns, rows, text=None):
    """Print one result: ``doc`` as JSON, ``rows`` under ``columns`` as CSV,
    or ``text`` lines (by default the rows, tab-joined through ``_fmt``)."""
    if output == "json":
        lines = [json.dumps({"schema_version": SCHEMA_VERSION, **doc})]
    elif output == "csv":
        lines = [",".join(columns)]
        lines += [
            ",".join(repr(c) if isinstance(c, float) else str(c) for c in row)
            for row in rows
        ]
    elif text is not None:
        lines = text
    else:
        lines = ["\t".join(_fmt(c) for c in row) for row in rows]
    for line in lines:
        print(line)


def _floats(text: str) -> np.ndarray:
    return np.asarray([float(t) for t in text.replace(",", " ").split()])


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
    return _floats(text)


def _parse_params(text: str) -> np.ndarray:
    try:
        return _floats(text)
    except ValueError as exc:
        raise CliError(f"bad --params value: {exc}", EXIT_USAGE) from None


def _resolve_seed(args) -> int | None:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("GENFIT_SEED")
    return int(env) if env else None


def _load_points(text):
    if text is not None:
        return _parse_grid(text)
    try:
        return _floats(sys.stdin.read())
    except ValueError as exc:
        raise CliError(f"bad point on stdin: {exc}", EXIT_DATA) from None


def _cmd_evaluate(args):
    params = _parse_params(args.params)
    quantile = args.subcommand == "quantile"
    pts = _load_points(args.p if quantile else args.x)
    if args.subcommand == "pdf":
        vals = family_pdf(args.family, args.base, pts, params, args.location, log=args.log)
    else:
        vals = (family_quantile if quantile else family_cdf)(
            args.family, args.base, pts, params, args.location,
            log_p=args.log_p, lower_tail=args.lower_tail,
        )
    vals = np.atleast_1d(np.asarray(vals, dtype=float))
    pairs = list(zip(pts.tolist(), vals.tolist()))
    doc = {"points": [{"input": a, "value": b} for a, b in pairs]}
    _emit(args.output, doc, ["input", "value"], pairs)


def _cmd_sample(args):
    params = _parse_params(args.params)
    draws = family_sample(
        args.family, args.base, args.n, params, args.location, seed=_resolve_seed(args)
    ).tolist()
    _emit(args.output, {"samples": draws}, ["sample"], [(v,) for v in draws])


def _load_context(args):
    """The fit's ``SpacingContext``; a data file that cannot be read (missing,
    a directory) and what the context rejects about the data are data errors
    (exit 3)."""
    try:
        return SpacingContext(load_dataset(args.data), args.family, args.base, args.location)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc), EXIT_DATA) from None


def fit_report_dict(ctx, method, sig_level, seed=None):
    """Run the full estimation pipeline and return the JSON-shaped report
    (``_emit`` adds the schema version)."""
    config = OptimizerConfig(method=method, seed=seed)
    result = fit(ctx, config)
    report = full_report(
        ctx.data, ctx.family, ctx.base, result.theta_hat, ctx.location, sig_level
    )
    status = (
        "Algorithm Converged"
        if result.convergence.converged
        else "Algorithm Did Not Converge"
    )
    return {
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
        "edf_clamped": report.edf_clamped,
    }


def _cmd_fit(args):
    resolve_method(args.method)
    if not 0.0 < args.sig_level < 1.0:
        raise CliError("--sig-level must lie in (0, 1)", EXIT_USAGE)
    ctx = _load_context(args)
    try:
        rep = fit_report_dict(ctx, args.method, args.sig_level, seed=_resolve_seed(args))
    except ValueError as exc:
        raise CliError(f"fit failed: {exc}", EXIT_FIT) from None
    ks, chi, status = rep["ks"], rep["chi_square"], rep["convergence"]["status"]
    rows = [
        ("mps", " ".join(repr(v) for v in rep["mps"])),
        *rep["measures"].items(),
        ("ks_statistic", ks["statistic"]),
        ("ks_p_value", ks["p_value"]),
        *((f"chi_{k}", v) for k, v in chi.items()),
        ("convergence", status),
        ("edf_clamped", rep["edf_clamped"]),
    ]
    # the R session's layout: each column as wide as its name or its value
    cells = [
        (n, _fmt(rep["measures"][n.lower()]))
        for n in ("AIC", "CAIC", "BIC", "HQIC", "CM", "AD", "log", "Moran")
    ]
    text = [
        "$MPS",
        "[1] " + " ".join(_fmt(v) for v in rep["mps"]),
        "",
        "$Measures",
        " " + "  ".join(f"{n:>{max(len(n), len(v))}}" for n, v in cells),
        " " + "  ".join(f"{v:>{max(len(n), len(v))}}" for n, v in cells),
        "",
        "$KS",
        " statistic   p-value",
        f" {_fmt(ks['statistic'])} {_fmt(ks['p_value'])}",
        "",
        "$`chi-square`",
        " statistic chi-value   p-value",
        f" {_fmt(chi['statistic'])} {_fmt(chi['critical'])} {_fmt(chi['p_value'])}",
        "",
        "$`Convergence Status`",
        f"[1] \"{status}\"",
    ]
    _emit(args.output, rep, ["key", "value"], rows, text)


def _cmd_selftest(args):
    grid = [int(v) for v in _parse_grid(args.n_grid)] if args.n_grid else None
    results = selftest(
        args.family, args.base, n_grid=grid, reps=args.reps, seed=_resolve_seed(args)
    )
    summaries = [r.summary() for r in results]
    cols = ["n", "min", "q1", "median", "q3", "max", "frac_above_0.05", "redraws"]
    rows = [[s[c] for c in cols] for s in summaries]
    text = [
        "  ".join(f"{_fmt(c) if isinstance(c, float) else c:>10}" for c in row)
        for row in [cols, *rows]
    ]
    doc = {"family": args.family, "base": args.base, "reps": args.reps, "rows": summaries}
    _emit(args.output, doc, cols, rows, text)


def _cmd_list(args):
    names = {
        "family": sorted(FAMILIES),
        "base": sorted(BASE_DISTRIBUTIONS),
        "dataset": list(BUNDLED),
    }
    text = [
        f"families ({len(names['family'])}):",
        *(f"  {n}" for n in names["family"]),
        f"bases ({len(names['base'])}):",
        *(f"  {n}" for n in names["base"]),
        "bundled datasets: " + ", ".join(names["dataset"]),
    ]
    doc = {"families": names["family"], "bases": names["base"], "datasets": names["dataset"]}
    rows = [(kind, n) for kind, ns in names.items() for n in ns]
    _emit(args.output, doc, ["kind", "name"], rows, text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genfit",
        description="Generalized G-family distributions: evaluate, sample, and fit by maximum product of spacings.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, run, help, model=True, with_params=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if model:
            p.add_argument("--family", required=True)
            p.add_argument("--base", required=True)
            if with_params:
                p.add_argument("--params", required=True, help="comma-separated parameter vector (induced first, mu last)")
            p.add_argument("--no-location", dest="location", action="store_false")
        p.add_argument("--output", choices=["text", "json", "csv"], default="text")
        return p

    points = "points: start:stop:step or comma list (stdin if omitted)"
    p = add("pdf", _cmd_evaluate, "evaluate the density")
    p.add_argument("--x", help=points)
    p.add_argument("--log", action="store_true", help="return log-density")

    for name, what, flag, hint in (
        ("cdf", "distribution function", "--x", points),
        ("quantile", "quantile function", "--p",
         "probabilities: start:stop:step or comma list (stdin if omitted)"),
    ):
        p = add(name, _cmd_evaluate, f"evaluate the {what}")
        p.add_argument(flag, help=hint)
        p.add_argument("--log-p", dest="log_p", action="store_true")
        p.add_argument("--no-lower-tail", dest="lower_tail", action="store_false")

    p = add("sample", _cmd_sample, "draw random realizations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int)

    p = add("fit", _cmd_fit, "estimate parameters by maximum product of spacings", with_params=False)
    p.add_argument("--data", required=True, help="bundled dataset name or data file path")
    p.add_argument("--method", default="nelder-mead")
    p.add_argument("--sig-level", dest="sig_level", type=float, default=0.05)
    p.add_argument("--seed", type=int)

    p = add("selftest", _cmd_selftest, "sampling accuracy self-test", with_params=False)
    p.add_argument("--n-grid", dest="n_grid", help="sample sizes: start:stop:step or comma list")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int)

    add("list", _cmd_list, "list available families, bases, and datasets", model=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.run(args)
        return 0
    except CliError as exc:
        message, code = exc.args[0], exc.code
    except (KeyError, ValueError) as exc:
        message, code = exc.args[0], EXIT_USAGE
    print(f"genfit: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
