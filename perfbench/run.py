"""Benchmark of the atmg pipeline: three workloads, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Run it from the root of a checkout; atmg is imported from ``src`` there.
Every workload runs in child processes (perfbench/worker.py) with BLAS
fixed at one thread.

--trace 0 reports the end-to-end metrics:
  solve_s      wall time per solve after set-up: the run's solves timed
               together, divided by their count.  The host's speed drifts
               between fast and slow spells; the batch average weighs
               them by time, where a median of short solves jumps
               between them, so it spreads less from run to run.
  setup_s      median of SETUP_SAMPLES set-ups: interpreter start,
               ``import atmg`` and building the workload's game (the
               cli builds grid2-solve's game inside each solve)
  peak_rss_mb  high-water RSS of the process that ran the solves, through
               set-up and the first solve

--trace 1 runs one untraced and one traced solve and reports the
per-layer metrics of the traced one (see tracer.LAYER_UNITS), plus
trace.overhead_s, the traced minus the untraced solve time.

Before the result, one JSON line records the machine, the seed and every
sample; the last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Each solve's outputs are checked (see workloads.py); a solve that fails a
check or raises counts as failed, and fail_ratio = failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

from tracer import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# BENCHMARK.json lists grid2-solve and grid3-certify only.  pennies-prox is
# all interpreter overhead, which a slow spell of a shared host stretches by
# more than half, so its run-to-run spread exceeds any bound the benchmark
# may set; it runs on request and in --workload all.
WORKLOADS = ("pennies-prox", "grid2-solve", "grid3-certify")
SETUP_SAMPLES = 7
BLAS_THREADS = 1
# A run's workers are killed once --seconds plus this margin have passed:
# the margin covers the set-ups and the solve that ends past --seconds
# (with --trace 1, one untraced and one traced solve).
WATCHDOG_MARGIN_S = 150.0
END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class WorkerError(RuntimeError):
    pass


def machine_info() -> dict:
    try:
        l3 = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        l3 = ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "l3_bytes": int(l3) if l3.isdigit() else None,
        "loadavg_at_start": os.getloadavg(),
        "blas_threads": BLAS_THREADS,
    }


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               deadline: float, setup_only: bool = False) -> tuple[float, dict | None]:
    """Run worker.py once; return its set-up time and its result (None with --setup-only)."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--out", str(OUT),
    ] + (["--setup-only"] if setup_only else [])
    started = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - started
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise WorkerError(f"{workload} worker exited with code {code}")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: the info record plus the result line."""
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "machine": machine_info()}
    deadline = monotonic() + seconds + WATCHDOG_MARGIN_S
    if trace:
        _, plain = run_worker(workload, seed, 0, 0, deadline)
        _, traced = run_worker(workload, seed, 0, 1, deadline)
        results = [plain, traced]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["solve_s"][0] - plain["solve_s"][0]
        units = {**LAYER_UNITS, "trace.overhead_s": "s"}
        info["spans_file"] = traced["spans_file"]
    else:
        setups = [run_worker(workload, seed, 0, 0, deadline, setup_only=True)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        setup_s, result = run_worker(workload, seed, seconds, 0, deadline)
        setups.append(setup_s)
        results = [result]
        metrics = {
            "solve_s": statistics.fmean(result["solve_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        info["setup_samples"] = setups
    failures = [f for r in results for f in r["failures"]]
    attempted, failed = len(failures), sum(1 for f in failures if f)
    info.update(
        seed_dependent=results[0]["seed_dependent"],
        numpy=results[0]["numpy"],
        blas=results[0]["blas"],
        solve_samples=[s for r in results for s in r["solve_s"]],
        failures=[f for f in failures if f],
        fail_ratio=failed / attempted,
    )
    return {
        "info": info,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "atmg" / "__init__.py").is_file():
        print(f"error: no atmg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {}
    try:
        for name in names:
            runs[name] = run_workload(name, args.seed, args.seconds, args.trace)
            print(json.dumps(runs[name]["info"]), flush=True)
    except (WorkerError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.workload != "all":
        print(json.dumps(runs[args.workload]["result"]))
        return 0
    for name, run in runs.items():
        result = run["result"]
        cells = [f"{k} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()]
        cells.append(f"fail_ratio {run['info']['fail_ratio']:.3g} ({result['failed']}/{result['attempted']})")
        print(f"{name}: " + ", ".join(cells))
    results = [run["result"] for run in runs.values()]
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{name}.{k}": m for name, run in runs.items()
                    for k, m in run["result"]["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
