"""One workload in its own process, so that its peak RSS is its own.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR [--setup-only]

Imports atmg from the checkout's ``src``, sets the workload up and prints
``ready`` (the parent times set-up up to that line).  Unless --setup-only,
it then solves until S seconds have passed or the next solve would
overrun them, at least once, checks every output, and prints one JSON
line: solve times, failed checks, peak RSS through set-up and the first
solve, numpy and BLAS builds and, with --trace 1, the per-layer metrics
of a traced solve.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import numpy as np

    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    tempfile.tempdir = str(args.out)   # grid2-solve writes its --out here
    workload = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    state = workload.setup(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    solve_s: list[float] = []
    failures: list[list[str]] = []
    began = perf_counter()
    while True:
        started = perf_counter()
        try:
            out = workload.solve(state)
            elapsed = perf_counter() - started
            failed = workload.check(out)
        except Exception:  # a solve that raises counts as a failed run
            elapsed = perf_counter() - started
            traceback.print_exc()
            failed = ["raised: " + traceback.format_exc(limit=1).strip().splitlines()[-1]]
        solve_s.append(elapsed)
        failures.append(failed)
        if len(solve_s) == 1:
            # Later solves can raise the high-water mark through allocator
            # fragmentation; one solve is what a single invocation costs.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        spent = perf_counter() - began
        if spent + min(solve_s) > args.seconds:
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_dependent": workload.seed_dependent,
        "solve_s": solve_s,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "numpy": np.__version__,
        "blas": _blas_build(np),
    }
    if tracer:
        tracer.restore()
        spans_path = args.out / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        spec = state.spec
        result["spans_file"] = str(spans_path)
        result["layers"] = layer_metrics(
            tracer.spans, spec.transition.nbytes if spec is not None else 0
        )
    print(json.dumps(result), flush=True)
    return 0


def _blas_build(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


if __name__ == "__main__":
    sys.exit(main())
