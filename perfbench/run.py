"""Layered benchmark for genfit.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fit_reference --seed 1 --seconds 25 --trace 0

Workloads: ``fit_reference``, ``fit_survey``, ``eval_bulk`` (see
``workloads.py`` for what each runs and why).  Load is one single-threaded
client in a closed loop: each operation starts only after the previous one
returned.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics from a run whose rounds
alternate untraced and traced (spans are written to ``perfbench/out/``).
The line before it is a detail block: the environment, gate results, and
figures that are not metrics (tail percentile and sample count, elements per
second per call kind, fit outcome ratios).

Set-up time is the median of five fresh interpreters, each timed from its
start to the point where genfit is imported, the inputs are generated and
every kind of operation has run once.  Exits non-zero, printing no result,
when the checkout has no ``src/genfit`` or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fit_reference", "fit_survey", "eval_bulk")
SETUP_SAMPLES = 5  # set-up probes per run, the measuring worker included
WORKER_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env(root):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(root / "src")
    env.update({k: "1" for k in THREAD_VARS})
    return env


def start_worker(root, args, mode, extra=()):
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--root", str(root),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--mode", mode,
        *extra,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=root, env=worker_env(root), stdout=subprocess.PIPE, text=True
    )
    return proc, t0


def finish(proc, deadline):
    """Wait for a worker to exit (killing it at the deadline); its stdout lines."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return out.splitlines()


def timed_setup(root, args, mode, extra=()):
    """Start a worker and return (it, start time, seconds until READY)."""
    proc, t0 = start_worker(root, args, mode, extra)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not reach READY (got {line!r})")
    return proc, t0, ready


def read_git_commit(root):
    """The checkout's commit from its .git files, or 'unknown' (no git needed)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root, versions):
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": affinity or os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **versions,
        "git_commit": read_git_commit(root),
        "threads": {k: "1" for k in THREAD_VARS},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "genfit" / "__init__.py").is_file():
        print(f"perfbench: no src/genfit under {root}; run from a genfit checkout", file=sys.stderr)
        return 2

    extra = ()
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        extra = ("--trace-out", str(out_dir / f"trace_{args.workload}_{args.seed}.npz"))

    setup = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                proc, _, ready = timed_setup(root, args, "setup")
                finish(proc, time.perf_counter() + WORKER_TIMEOUT_S)
                if proc.returncode != 0:
                    raise RuntimeError(f"set-up worker exited {proc.returncode}")
                setup.append(ready)
        proc, t0, ready = timed_setup(root, args, "measure", extra)
        setup.append(ready)
        lines = finish(proc, t0 + WORKER_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not lines:
        print(f"perfbench: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])

    detail = result.pop("detail")
    gate_errors = result.pop("gate_errors")
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        detail["setup_samples_s"] = setup
    versions = detail.pop("versions")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(root, versions),
        "gates": {"passed": not gate_errors, "errors": gate_errors},
        "detail": detail,
    }))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
