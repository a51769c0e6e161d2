"""Smoke check of the benchmark itself.

Run from the root of a checkout (takes about eight minutes on 2 cores)::

    python3 perfbench/smoke.py

It checks that:

* every run prints every metric named in BENCHMARK.json, with its unit and a
  finite value, and the gates pass (``--trace 0`` and ``--trace 1``, each
  workload);
* the counts repeat exactly for a fixed seed (two traced runs per workload);
* each gate trips when its reference value is corrupted;
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.

Exits 0 when every check passes and 1 otherwise, listing the failures.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SEED = 3

# per-layer metrics that are exact counts or ratios of counts
EXACT = (
    "special_functions.calls_per_op",
    "base_distributions.calls_per_eval",
    "family_transforms.quantile_nonfinite",
    "mps_fit.objective_evals",
    "mps_fit.feasible_ratio",
    "optimizers.evals_per_fit",
    "optimizers.reported_evals_per_fit",
    "optimizers.restarts_feasible",
    "optimizers.unconverged_ratio",
)


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def check_metrics(spec, workload, trace, failures):
    code, lines = run(workload, trace)
    if code != 0 or not lines:
        failures.append(f"{workload} trace={trace}: exit {code}")
        return None
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{workload} trace={trace}: result keys {sorted(result)}")
    if not result["correct"]:
        failures.append(f"{workload} trace={trace}: gates failed: {json.loads(lines[-2])['gates']}")
    names = spec["per_layer"] if trace else spec["end_to_end"]
    for m in names:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            failures.append(f"{workload} trace={trace}: {m['name']} printed as {got!r}")
    extra = set(result["metrics"]) - {m["name"] for m in names}
    if extra:
        failures.append(f"{workload} trace={trace}: unnamed metrics {sorted(extra)}")
    return result


def check_gates(failures):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    from genfit import datasets

    ops = workloads.build_fit_reference(SEED, datasets.load_dataset)
    bearing = next(op for op in ops if op.kind.startswith("bearing:") and "nelder" in op.kind)
    result = bearing.run()
    if bearing.assess(result).gate_errors:
        failures.append("bearing gate trips on the true reference")
    workloads.MORAN_MAX["bearing"] -= 0.1
    if not bearing.assess(result).gate_errors:
        failures.append("bearing moran gate does not trip on a corrupted reference")
    workloads.MORAN_MAX["bearing"] += 0.1

    res, rep = result
    worse = type(res)(res.theta_hat, res.s_opt - 1e-3, res.moran, res.convergence, res.k)
    if not bearing.assess((worse, rep)).gate_errors:
        failures.append("bearing S gate does not trip on a fit below the reference")

    bulk = workloads.build_eval_bulk(SEED, None, warm=True)[:3]
    for op in bulk:
        op.assess(op.run())
    tol = workloads.ROUND_TRIP_TOL
    workloads.ROUND_TRIP_TOL = -1.0
    if not bulk[1].assess(bulk[1].run()).gate_errors:
        failures.append("round-trip gate does not trip on a corrupted tolerance")
    workloads.ROUND_TRIP_TOL = tol

    argv, check = workloads.cli_command("fit_reference", SEED)
    if check({"schema_version": 1, "mps": [1.0, 2.0]}):
        failures.append("cli gate trips on a valid document")
    if not check({"schema_version": 2, "mps": [1.0, 2.0]}) or not check({"schema_version": 1, "mps": [math.nan]}):
        failures.append("cli gate does not trip on a corrupted document")


def check_bare(failures):
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    try:
        code, lines = run("eval_bulk", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or lines:
        failures.append(f"bare directory: exit {code}, printed {lines[-1:]!r}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    check_gates(failures)
    check_bare(failures)
    for w in spec["workloads"]:
        check_metrics(spec, w["name"], 0, failures)
        first = check_metrics(spec, w["name"], 1, failures)
        second = check_metrics(spec, w["name"], 1, failures)
        if first and second:
            for name in EXACT:
                a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
                if a != b:
                    failures.append(f"{w['name']}: {name} differs between runs ({a} vs {b})")
    for f in failures:
        print("FAIL", f)
    print("smoke:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
