"""One workload in one fresh process: set up, then run timed iterations.

Started by run.py, never by hand. Prints one JSON object as its last line of
standard output. `--t0` is the parent's time.monotonic() just before it
started this process (CLOCK_MONOTONIC is system-wide on Linux), so set-up
time counts interpreter start and imports as well.

With --trace 1 the set-up and the first timed iteration are traced; the
untraced iterations that follow give the wall time the trace overhead is
measured against.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _import_library():
    src = ROOT / "src"
    if not (src / "cyberinvest" / "__init__.py").is_file():
        sys.exit(f"no cyberinvest sources under {src}")
    sys.path.insert(0, str(src))
    import cyberinvest

    if Path(cyberinvest.__file__).resolve().parent != src / "cyberinvest":
        sys.exit(f"imported cyberinvest from {cyberinvest.__file__}, not from {src}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="file the traced run writes its spans to")
    ap.add_argument("--untraced-setup-s", type=float, default=0.0, help="untraced set-up time to compare with")
    args = ap.parse_args()

    _import_library()
    import numpy
    import scipy

    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(args.workload)
        tracing.install(tracer)
        tracer.active = True

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    setup, iterate, min_iterations = workloads.WORKLOADS[args.workload]
    workdir = ROOT / "perfbench" / "out" / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workloads.make_context(ROOT, sizes, args.seed, workdir)
        state = setup(ctx)
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s}
        if not args.setup_only:
            result.update(_timed(ctx, state, iterate, args.seconds, min_iterations, tracer))
            result["context"] = {
                "sizes": workloads.describe(ctx),
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            }
            if tracer is not None:
                traced_wall = setup_s + result["traced_iteration_s"]
                untraced_wall = args.untraced_setup_s + result["wall_s"]
                result["traced_wall_s"] = traced_wall
                result["layers"] = tracing.layer_metrics(tracer, traced_wall, untraced_wall)
                if args.spans:
                    tracer.write(Path(args.spans))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = tracing.max_rss_mb()
    print(json.dumps(result))
    return 0


def _timed(ctx, state, iterate, seconds: float, min_iterations: int, tracer) -> dict:
    """Closed loop: each iteration starts when the previous one returns.

    Iterations run until there are at least `min_iterations` and their own
    wall times, not counting output checks, add up to `seconds`.
    """
    from workloads import Recorder

    rec = Recorder(on_op=(lambda label: setattr(tracer, "op", label)) if tracer else None)
    out = {}
    if tracer is not None:
        tracer.op = "iteration"
        t = time.perf_counter()
        iterate(ctx, state, rec)
        out["traced_iteration_s"] = time.perf_counter() - t
        tracer.active = False
        rec.settle()
        rec.latencies.clear()

    walls = []
    while len(walls) < min_iterations or sum(walls) < seconds:
        t = time.perf_counter()
        iterate(ctx, state, rec)
        walls.append(time.perf_counter() - t)
        rec.settle()
    out.update(
        walls=walls,
        latencies=rec.latencies,
        attempted=rec.attempted,
        failed=rec.failed,
        failures=rec.failures,
        headline=rec.headline,
        wall_s=statistics.median(walls),
    )
    return out


if __name__ == "__main__":
    sys.exit(main())
