"""One benchmark process: set up a workload, then (unless ``--mode setup``)
measure it and print its metrics.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH`` set to the
checkout's ``src``.  It prints ``READY`` once genfit is imported, the inputs
are generated and every kind of operation has run once; ``run.py`` times
set-up from its own clock up to that line.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics", "detail"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

T_START = time.perf_counter()

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import genfit  # noqa: E402
from genfit import datasets  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

CLI_RUNS = 5
# stop measuring past this many seconds even if the tail has too few samples
HARD_CAP_S = 100.0
TAIL_BEYOND = 10


@dataclass
class Record:
    kind: str
    seconds: float
    ok: bool
    outcome: workloads.Outcome | None
    round: int
    traced: bool
    fit: bool


def run_round(ops, index, traced, records, gate_errors, before_op=None):
    for op in ops:
        if before_op is not None:
            before_op()
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # noqa: BLE001 -- a raising op is a failed op
            records.append(Record(op.kind, time.perf_counter() - t0, False, None, index, traced, op.fit))
            if index == 0 and not traced:
                print(f"failed: {op.kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        seconds = time.perf_counter() - t0
        outcome = op.assess(result)
        gate_errors.extend(outcome.gate_errors)
        records.append(Record(op.kind, seconds, outcome.ok, outcome, index, traced, op.fit))


class CliSampler:
    """Cold CLI calls spread evenly over the measured interval, between
    operations, so they see the same machine as the operations do."""

    def __init__(self, workload, seed, root, seconds, t0):
        self.argv, self.check = workloads.cli_command(workload, seed)
        self.root, self.t0 = root, t0
        self.due = [k * seconds / CLI_RUNS for k in range(CLI_RUNS)]
        self.seconds, self.errors = [], []
        self.attempted = self.failed = 0

    def __call__(self, finish=False):
        while self.due and (finish or time.perf_counter() - self.t0 >= self.due[0]):
            self.due.pop(0)
            seconds, doc, errors = workloads.run_cli(self.root, self.argv)
            self.attempted += 1
            if doc is None:
                self.failed += 1
                print(f"failed: cli: {errors}", file=sys.stderr)
                continue
            self.seconds.append(seconds)
            self.errors.extend(self.check(doc))


def nearest_rank(values, pct):
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(records, cli_seconds, tail_pct):
    ok = [r for r in records if r.ok]
    lat = [r.seconds for r in ok]
    tail, beyond = nearest_rank(lat, tail_pct)
    by_kind = {}
    for r in ok:
        by_kind.setdefault(r.kind, []).append(r.seconds)
    kind_medians = [statistics.median(v) for v in by_kind.values()]
    metrics = {
        # a round mixes kinds whose latencies differ tenfold, so the pooled
        # median sits on the gap between two kinds and jumps with either;
        # the median over kinds of each kind's median does not
        "op_s_p50": (statistics.median(kind_medians), "s"),
        "op_s_tail": (tail, "s"),
        "op_s_geomean": (geomean(kind_medians), "s"),
        "ops_per_s": (len(ok) / sum(r.seconds for r in records), "1/s"),
        "cli_s": (statistics.median(cli_seconds), "s"),
        "ok_ratio": (len(ok) / len(records), "ratio"),
    }
    detail = {
        "op_s_tail": {"percentile": tail_pct, "samples": len(lat), "samples_beyond": beyond},
        "kind_median_s": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
    }
    return metrics, detail


def fit_counts(records):
    """Per-round fit outcome counts; rounds repeat, so round 0 is every round."""
    fits = [r for r in records if r.round == 0 and r.fit]
    return {
        "fits": len(fits),
        "unconverged": sum(1 for r in fits if r.outcome is not None and not r.outcome.converged),
        "reported_evals": sum(r.outcome.reported_evals for r in fits if r.outcome),
        "failed": sum(1 for r in fits if not r.ok),
    }


def bulk_elem_rates(records, n):
    """Geometric mean over compositions of elements per second, per call kind."""
    per = {}
    for r in records:
        if r.ok and not r.fit:
            per.setdefault(r.kind, []).append(r.seconds)
    rates = {}
    for call in ("quantile", "cdf", "pdf"):
        vals = [n / statistics.median(v) for k, v in per.items() if k.startswith(call + ":")]
        if vals:
            rates[f"{call}_elem_per_s"] = geomean(vals)
    return rates


def per_layer(summary, records, ops_per_round, traced_rounds, setup_s, datasets_s, overhead):
    """Per-layer metrics from the traced rounds (see README.md for the table)."""
    traced = [r for r in records if r.traced]
    busy = sum(r.seconds for r in traced)
    ops = ops_per_round * traced_rounds

    def pct(layer):
        return 100.0 * summary[layer]["self_s"] / busy

    def per(num, den):
        return num / den if den else 0.0

    sf, bd, ft = summary["special_functions"], summary["base_distributions"], summary["family_transforms"]
    mf, opt, gf = summary["mps_fit"], summary["optimizers"], summary["gof"]
    objective = mf["by_name"].get("mps_fit.spacing_objective", {"calls": 0, "incl_s": 0.0, "finite": 0})
    run_once = opt["by_name"].get("optimizers._run_once", {"calls": 0})
    maximize = opt["by_name"].get("optimizers.maximize", {"calls": 0})
    fits = fit_counts(records)
    nonfinite = sum(r.outcome.nonfinite for r in records if r.round == 0 and r.outcome)
    return {
        "special_functions.calls_per_op": (per(sf["calls"], ops), "count"),
        "special_functions.self_pct": (pct("special_functions"), "%"),
        "special_functions.ns_per_elem": (1e9 * per(sf["incl_s"], sf["elements"]), "ns"),
        "base_distributions.calls_per_eval": (per(bd["calls"], ft["calls"]), "count"),
        "base_distributions.us_per_call": (1e6 * per(bd["incl_s"], bd["calls"]), "us"),
        "base_distributions.self_pct": (pct("base_distributions"), "%"),
        "family_transforms.us_per_call": (1e6 * per(ft["incl_s"], ft["calls"]), "us"),
        "family_transforms.ns_per_elem": (1e9 * per(ft["incl_s"], ft["elements"]), "ns"),
        "family_transforms.self_pct": (pct("family_transforms"), "%"),
        "family_transforms.quantile_nonfinite": (nonfinite, "count"),
        "mps_fit.objective_evals": (per(objective["calls"], traced_rounds), "count"),
        "mps_fit.evals_per_s": (per(objective["calls"], objective["incl_s"]), "1/s"),
        "mps_fit.feasible_ratio": (per(objective["finite"], objective["calls"]), "ratio"),
        "mps_fit.self_pct": (pct("mps_fit"), "%"),
        "optimizers.evals_per_fit": (per(objective["calls"], fits["fits"] * traced_rounds), "count"),
        "optimizers.reported_evals_per_fit": (per(fits["reported_evals"], fits["fits"]), "count"),
        "optimizers.restarts_feasible": (per(run_once["calls"] - maximize["calls"], maximize["calls"]), "count"),
        "optimizers.unconverged_ratio": (per(fits["unconverged"], fits["fits"]), "ratio"),
        "optimizers.self_pct": (pct("optimizers"), "%"),
        "gof.reports_per_s": (per(gf["calls"], gf["incl_s"]), "1/s"),
        "gof.self_pct": (pct("gof"), "%"),
        "datasets.setup_pct": (100.0 * datasets_s / setup_s, "%"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def measure(args, ops, root):
    records, gate_errors = [], []
    t0 = time.perf_counter()
    cli = None if args.trace else CliSampler(args.workload, args.seed, root, args.seconds, t0)
    tail_pct = workloads.TAIL_PERCENTILE[args.workload]
    tracer = Tracer() if args.trace else None
    round_s = {False: [], True: []}
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        if traced:
            tracer.install()
        r0 = time.perf_counter()
        try:
            run_round(ops, index, traced, records, gate_errors, cli)
        finally:
            if traced:
                tracer.uninstall()
        round_s[traced].append(time.perf_counter() - r0)
        index += 1
        elapsed = time.perf_counter() - t0
        if args.trace:
            enough = len(round_s[True]) >= 1
        else:
            ok = [r.seconds for r in records if r.ok]
            enough = bool(ok) and nearest_rank(ok, tail_pct)[1] >= TAIL_BEYOND
        if (elapsed >= args.seconds and enough) or elapsed >= HARD_CAP_S:
            break
    if cli is not None:
        cli(finish=True)
        gate_errors.extend(cli.errors)
    return records, gate_errors, cli, tracer, round_s, index


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "measure"), default="measure")
    ap.add_argument("--root", required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)
    args.seed %= 2**32  # numpy seeds must be non-negative

    root = Path(args.root).resolve()
    if not Path(genfit.__file__).resolve().is_relative_to(root / "src"):
        print(f"genfit imported from {genfit.__file__}, not from the checkout", file=sys.stderr)
        return 2

    datasets_s = 0.0
    cache = {}

    def load(name):
        nonlocal datasets_s
        if name not in cache:
            t = time.perf_counter()
            cache[name] = datasets.load_dataset(name)
            datasets_s += time.perf_counter() - t
        return cache[name]

    build = workloads.WORKLOADS[args.workload]
    ops = build(args.seed, load)
    workloads.warm_up(build(args.seed, load, warm=True))
    setup_s = time.perf_counter() - T_START
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    records, gate_errors, cli, tracer, round_s, rounds = measure(args, ops, root)

    detail = {
        "rounds": rounds,
        "ops_per_round": len(ops),
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "worker_setup_s": setup_s,
    }
    if args.trace:
        summary = tracer.summary()
        overhead = statistics.median(round_s[True]) / statistics.median(round_s[False])
        metrics = per_layer(summary, records, len(ops), len(round_s[True]), setup_s, datasets_s, overhead)
        detail["layers"] = summary
        detail["spans"] = len(tracer.start)
        if args.trace_out:
            tracer.write(args.trace_out)
            detail["trace_file"] = args.trace_out
    else:
        metrics, extra = end_to_end(records, cli.seconds, workloads.TAIL_PERCENTILE[args.workload])
        detail.update(extra)
        if args.workload == "eval_bulk":
            detail.update(bulk_elem_rates(records, workloads.BULK_N))
        counts = fit_counts(records)
        if counts["fits"]:
            detail["failed_ratio"] = counts["failed"] / counts["fits"]
            detail["unconverged_ratio"] = counts["unconverged"] / counts["fits"]
        detail["cli_samples"] = cli.seconds

    failed = sum(1 for r in records if not r.ok) + (cli.failed if cli else 0)
    result = {
        "correct": not gate_errors,
        "attempted": len(records) + (cli.attempted if cli else 0),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
        "gate_errors": sorted(set(gate_errors))[:20],
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
