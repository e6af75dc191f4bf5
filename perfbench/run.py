#!/usr/bin/env python3
"""Benchmark of cyberinvest: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload premium-mc --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 1   # per-layer numbers
    python3 perfbench/run.py --smoke               # tiny inputs, checks the harness

Each workload runs in a fresh worker process (worker.py) as a closed loop
with one caller: an iteration starts when the previous one returns, for at
least --seconds. Set-up is repeated SETUP_REPEATS times, each in its own
process, and reported as the median. Outputs are checked after every
iteration; a failed operation (one solve, gain, premium report or path that
raises or fails its check) counts in `failed`.

BENCHMARK.json bounds tables-coarse and premium-mc only. paths-single runs
here too, but on a shared 2-core machine the interquartile range of its
wall time over five or ten seeds reached 43% of the median as the host's
speed drifted, more than any bound can allow.

The last line of standard output is one JSON object: for one workload,
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1); for --workload all, one
such object per workload. Every run also writes perfbench/out/
<workload>-seed<n>-trace<t>.json with the run context, every metric with its
sample count, the headline numbers and any failures, and a traced run writes
its spans next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("tables-coarse", "premium-mc", "paths-single")
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0

# End-to-end metrics the last line carries (the ones BENCHMARK.json bounds).
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed and written to the result file only: fail_rate reads 0 on correct
# code, per-operation latency percentiles (per path on paths-single) spread
# too widely between runs on a shared 2-core machine to carry a bound, and
# paths_per_s exists on premium-mc alone.
SUMMARY_ONLY = {"op_p50_ms": "ms", "op_p99_ms": "ms", "fail_rate": "1", "paths_per_s": "1/s"}


def _spawn(args: list, deadline: float) -> dict:
    """Run worker.py in its own session; kill the whole group at the deadline."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)],
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"worker {args[:2]} ran past the time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[:2]} exited with {proc.returncode}")
    return json.loads(stdout.decode().strip().splitlines()[-1])


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (it may be absent)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _percentile(xs: list, q: int) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1] if len(xs) > 1 else xs[0]


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds)] + (["--smoke"] if smoke else [])
    extra_setups = [_spawn(common + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_REPEATS - 1)]
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{trace}"
    main_args = common + ["--trace", str(trace)]
    if trace:
        main_args += ["--spans", str(stem) + "-spans.json", "--untraced-setup-s", repr(statistics.median(extra_setups))]
    res = _spawn(main_args, deadline)

    lat = res["latencies"]
    setups = extra_setups + ([] if trace else [res["setup_s"]])
    metrics = {
        "wall_s": (res["wall_s"], len(res["walls"])),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (res["peak_rss_mb"], 1),
        "op_p50_ms": (1000.0 * _percentile(lat, 50), len(lat)),
        "op_p99_ms": (1000.0 * _percentile(lat, 99), len(lat)),
        "fail_rate": (res["failed"] / res["attempted"], res["attempted"]),
    }
    if name == "premium-mc":
        optimal_paths = res["context"]["sizes"]["mc_paths"] * len(res["context"]["sizes"]["eta_vars"])
        metrics["paths_per_s"] = (optimal_paths / res["wall_s"], len(res["walls"]))
    units = dict(E2E_UNITS, **SUMMARY_ONLY)
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "context": dict(res["context"], commit=_git_commit(), nproc=os.cpu_count(), smoke=smoke),
        "metrics": {k: {"value": v, "unit": units[k], "samples": n} for k, (v, n) in metrics.items()},
        "walls_s": res["walls"],
        "setup_samples_s": setups,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "headline": res["headline"],
    }
    if trace:
        from tracing import LAYER_METRICS

        record["traced_wall_s"] = res["traced_wall_s"]
        record["layers"] = {k: {"value": v, "unit": LAYER_METRICS[k][0]} for k, v in res["layers"].items()}
    Path(str(stem) + ".json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def contract_line(record: dict) -> dict:
    """The result object the last line carries for one workload."""
    if record["trace"]:
        metrics = record["layers"]
    else:
        metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in record["metrics"].items() if k in E2E_UNITS}
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def print_summary(record: dict) -> None:
    print(f"{record['workload']} (seed {record['seed']}, trace {record['trace']}): "
          f"{record['attempted']} operations, {record['failed']} failed")
    for k, m in record["metrics"].items():
        print(f"  {k:<14} {m['value']:>14.6g} {m['unit']:<5} n={m['samples']}")
    for k, m in record.get("layers", {}).items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"  {k:<36} {value:>14} {m['unit']}")
    for line in record["failures"]:
        print(f"  FAILED {line}")


def smoke(seed: int) -> int:
    """Tiny inputs: every metric named in BENCHMARK.json is emitted, the layer
    self times add up to the traced wall time, and exact counters repeat.

    Gains on the narrow grid fall outside the coarse-grid acceptance bands,
    so tables-coarse reports failed operations here; smoke does not gate on
    output checks."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in bench["end_to_end"]}
    layers = {m["name"] for m in bench["per_layer"]}
    from tracing import EXACT_COUNTERS, SPAN_NAMES

    problems = []
    for name in WORKLOADS:
        plain = run_workload(name, seed, 1.0, 0, True)
        traced = [run_workload(name, seed, 1.0, 1, True) for _ in range(2)]
        print_summary(plain)
        print_summary(traced[0])
        summary = set(SUMMARY_ONLY) - ({"paths_per_s"} if name != "premium-mc" else set())
        missing = (
            (e2e - set(contract_line(plain)["metrics"]))
            | (summary - set(plain["metrics"]))
            | (layers - set(contract_line(traced[0])["metrics"]))
        )
        if missing:
            problems.append(f"{name}: metrics not emitted: {sorted(missing)}")
        lay = {k: m["value"] for k, m in traced[0]["layers"].items()}
        gap = sum(lay[f"{s}_s"] for s in SPAN_NAMES) + lay["other_s"] - traced[0]["traced_wall_s"]
        if abs(gap) > 1e-6:
            problems.append(f"{name}: layer self times miss the traced wall time by {gap:g} s")
        for key in EXACT_COUNTERS:
            a, b = (t["layers"][key]["value"] for t in traced)
            if a != b:
                problems.append(f"{name}: {key} differs between two runs at one seed: {a} vs {b}")
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("smoke check passed" if not problems else "smoke check failed")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs; check that every metric is emitted")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    for needed in (ROOT / "src" / "cyberinvest" / "__init__.py", ROOT / "configs" / "standard.cfg"):
        if not needed.is_file():
            print(f"cannot benchmark: {needed} is missing", file=sys.stderr)
            return 2
    sys.path.insert(0, str(HERE))
    if args.smoke:
        return smoke(args.seed)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, args.trace, False)
        print_summary(record)
        lines[name] = contract_line(record)
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
