"""Span recording for the traced benchmark run.

The wrappers live here, not in the library: each public function of a
cyberinvest layer is replaced, for the life of the traced process, in its
defining module and in every module that imported the name directly (the
library uses `from .x import f`, so patching the defining module alone would
miss the calls made inside the library). Spans and counters stay in memory
and are written out once, when the worker exits.

A layer's time is its self time: span duration minus the time its direct
child spans cover. Self times of all spans plus `other_s` add up to the
traced wall time by construction.
"""

from __future__ import annotations

import functools
import json
import math
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

# (span name, defining module, function name).
WRAPPED = (
    ("hjb.solve", "hjb", "solve"),
    ("poisson.solve", "poisson", "solve_poisson"),
    ("strategies.gain_constant", "strategies", "gain_vs_constant"),
    ("strategies.gain_poisson", "strategies", "gain_vs_poisson"),
    ("strategies.extract_batch", "strategies", "extract_policies_batch"),
    ("strategies.extract_single", "strategies", "extract_policy"),
    ("hawkes.simulate", "hawkes", "simulate_paths"),
    ("hawkes.simulate_path", "hawkes", "simulate_path"),
    ("hawkes.count_variance", "hawkes", "count_variance"),
    ("dynamics.losses", "dynamics", "simulate_losses"),
    ("dynamics.loss_variance", "dynamics", "loss_variance"),
    ("dynamics.simulate_loss", "dynamics", "simulate_loss"),
    ("premium.baseline", "premium", "premium_report_baseline"),
    ("premium.optimal", "premium", "premium_report_optimal"),
    ("fields_io.save", "fields_io", "save_field"),
    ("fields_io.load", "fields_io", "load_field"),
)

# solve_poisson runs the 2-d solver on a one-node intensity axis. Leaving its
# own reference to `solve` unwrapped keeps that work in the poisson layer and
# keeps the hjb counters those of the Hawkes solve alone.
NOT_WRAPPED_IN = {("hjb.solve", "poisson")}

MODULES = ("hjb", "poisson", "strategies", "hawkes", "dynamics", "premium", "fields_io", "cli")

# Per-layer metrics: name -> (unit, better). The traced run reports exactly
# these, on every workload; a layer that a workload leaves idle reads 0.
LAYER_METRICS = {
    "hjb.solve_s": ("s", "lower"),
    "hjb.nfev": ("count", "lower"),
    "hjb.njev": ("count", "lower"),
    "hjb.nlu": ("count", "lower"),
    "hjb.residual_interior": ("abs", "lower"),
    "hjb.monotone_violations": ("count", "lower"),
    "poisson.solve_s": ("s", "lower"),
    "poisson.nlu": ("count", "lower"),
    "strategies.gain_constant_s": ("s", "lower"),
    "strategies.evaluate_constant_calls": ("count", "lower"),
    "strategies.gain_poisson_s": ("s", "lower"),
    "strategies.extract_batch_s": ("s", "lower"),
    "strategies.extract_batch_rss_mb": ("MB", "lower"),
    "strategies.clamped_lookups": ("count", "lower"),
    "strategies.extract_single_s": ("s", "lower"),
    "strategies.extract_single_ms": ("ms", "lower"),
    "hawkes.simulate_s": ("s", "lower"),
    "hawkes.events": ("count", "lower"),
    "hawkes.intensity_grid_s": ("s", "lower"),
    "hawkes.intensity_grid_rss_mb": ("MB", "lower"),
    "hawkes.count_variance_s": ("s", "lower"),
    "hawkes.simulate_path_s": ("s", "lower"),
    "hawkes.simulate_path_ms": ("ms", "lower"),
    "hawkes.acceptance": ("ratio", "higher"),
    "dynamics.losses_s": ("s", "lower"),
    "dynamics.loss_variance_s": ("s", "lower"),
    "dynamics.simulate_loss_s": ("s", "lower"),
    "dynamics.simulate_loss_ms": ("ms", "lower"),
    "premium.baseline_s": ("s", "lower"),
    "premium.optimal_s": ("s", "lower"),
    "fields_io.save_s": ("s", "lower"),
    "fields_io.load_s": ("s", "lower"),
    "fields_io.bytes": ("count", "lower"),
    "other_s": ("s", "lower"),
    "trace_overhead_s": ("s", "lower"),
}

# Counters that must repeat exactly between two traced runs at one seed.
EXACT_COUNTERS = (
    "hjb.nfev",
    "hjb.njev",
    "hjb.nlu",
    "hawkes.events",
    "fields_io.bytes",
    "strategies.evaluate_constant_calls",
)

# Every span's summed self time is reported as "<span>_s"; these three, the
# scalar one-path functions, also as the median self time of one call.
SPAN_NAMES = tuple(name for name, _, _ in WRAPPED) + ("hawkes.intensity_grid",)
PER_CALL_MS = ("strategies.extract_single", "hawkes.simulate_path", "dynamics.simulate_loss")


def max_rss_mb() -> float:
    """High-water mark of this process's resident set (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    workload: str
    op: str
    start: float
    end: float = 0.0


class Tracer:
    """In-memory spans and counters of one traced worker process."""

    def __init__(self, workload: str):
        self.workload = workload
        self.active = False
        self.op = "setup"
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self.gauges: dict = {}
        self.lambda_cap: Optional[float] = None
        self._stack: list = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.workload, self.op, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def raise_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = max(self.gauges.get(name, value), value)

    def self_times(self) -> dict:
        """Self time of every span, keyed by span id."""
        covered = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        return {s.id: (s.end - s.start) - covered[s.id] for s in self.spans}

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n")


def _bytes_of(prefix) -> int:
    prefix = Path(prefix)
    return sum(prefix.with_suffix(ext).stat().st_size for ext in (".json", ".f64"))


def _after_hooks(tracer: Tracer) -> dict:
    """Counters read from each wrapped call's arguments and result."""
    counters = tracer.counters

    def solver(args, kwargs, out):
        q = out.quality
        for key in ("nfev", "njev", "nlu"):
            counters[f"hjb.{key}"] += q["integrator"][key]
        tracer.gauges["hjb.residual_interior"] = q.get("residual", {}).get("interior_max", 0.0)
        tracer.gauges["hjb.monotone_violations"] = (
            q["monotone_lambda"]["violations"] + q["monotone_h"]["violations"]
        )

    def poisson(args, kwargs, out):
        counters["poisson.nlu"] += out.quality["integrator"]["nlu"]

    def extract_single(args, kwargs, out):
        counters["strategies.clamped_lookups"] += int((out.intensity > args[0].grid.lambda_max).sum())

    def extract_batch(args, kwargs, out):
        tracer.raise_gauge("strategies.extract_batch_rss_mb", max_rss_mb())

    def simulate(args, kwargs, out):
        counters["hawkes.events"] += out.times.size

    def saved(args, kwargs, out):
        counters["fields_io.bytes"] += _bytes_of(args[1])

    def loaded(args, kwargs, out):
        counters["fields_io.bytes"] += _bytes_of(args[0])

    return {
        "hjb.solve": solver,
        "poisson.solve": poisson,
        "strategies.extract_single": extract_single,
        "strategies.extract_batch": extract_batch,
        "hawkes.simulate": simulate,
        "fields_io.save": saved,
        "fields_io.load": loaded,
    }


def _span_wrapper(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if after is not None:
            after(args, kwargs, out)
        return out

    return wrapper


def _simulate_path_wrapper(tracer: Tracer, fn):
    """Span plus thinning acceptance, read from the sampler's own trace."""

    @functools.wraps(fn)
    def wrapper(params, horizon, seed, return_trace=False):
        if not tracer.active or return_trace:
            return fn(params, horizon, seed, return_trace)
        span = tracer.begin("hawkes.simulate_path")
        try:
            path, trace = fn(params, horizon, seed, return_trace=True)
        finally:
            tracer.end(span)
        tracer.counters["hawkes.candidates"] += trace.accepted.size
        tracer.counters["hawkes.accepted"] += int(trace.accepted.sum())
        return path

    return wrapper


def _extract_batch_wrapper(tracer: Tracer, fn, after):
    """Span, plus the field's lambda_max for counting clamped grid lookups."""
    inner = _span_wrapper(tracer, "strategies.extract_batch", fn, after)

    @functools.wraps(fn)
    def wrapper(field, batch, *args, **kwargs):
        tracer.lambda_cap = field.grid.lambda_max
        try:
            return inner(field, batch, *args, **kwargs)
        finally:
            tracer.lambda_cap = None

    return wrapper


def _intensity_grid_wrapper(tracer: Tracer, fn):
    """Span, rise of the memory high-water mark, and lookups above lambda_max."""

    @functools.wraps(fn)
    def wrapper(self, tgrid):
        if not tracer.active:
            return fn(self, tgrid)
        before = max_rss_mb()
        span = tracer.begin("hawkes.intensity_grid")
        try:
            out = fn(self, tgrid)
        finally:
            tracer.end(span)
        tracer.raise_gauge("hawkes.intensity_grid_rss_mb", max_rss_mb() - before)
        if tracer.lambda_cap is not None:
            tracer.counters["strategies.clamped_lookups"] += int((out > tracer.lambda_cap).sum())
        return out

    return wrapper


def _counting_wrapper(tracer: Tracer, counter: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.active:
            tracer.counters[counter] += 1
        return fn(*args, **kwargs)

    return wrapper


def _replace_everywhere(name: str, attr: str, original, wrapper) -> None:
    import importlib

    package = importlib.import_module("cyberinvest")
    targets = [package] + [importlib.import_module(f"cyberinvest.{m}") for m in MODULES]
    for mod in targets:
        short = mod.__name__.rpartition(".")[2]
        if (name, short) in NOT_WRAPPED_IN:
            continue
        if getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every layer function of cyberinvest for this process."""
    import importlib

    hooks = _after_hooks(tracer)
    for name, module_name, attr in WRAPPED:
        mod = importlib.import_module(f"cyberinvest.{module_name}")
        original = getattr(mod, attr)
        if name == "hawkes.simulate_path":
            wrapper = _simulate_path_wrapper(tracer, original)
        elif name == "strategies.extract_batch":
            wrapper = _extract_batch_wrapper(tracer, original, hooks[name])
        else:
            wrapper = _span_wrapper(tracer, name, original, hooks.get(name))
        _replace_everywhere(name, attr, original, wrapper)

    strategies = importlib.import_module("cyberinvest.strategies")
    original = strategies.evaluate_constant
    counting = _counting_wrapper(tracer, "strategies.evaluate_constant_calls", original)
    _replace_everywhere("strategies.evaluate_constant", "evaluate_constant", original, counting)

    hawkes = importlib.import_module("cyberinvest.hawkes")
    hawkes.PathBatch.intensity_on_grid = _intensity_grid_wrapper(tracer, hawkes.PathBatch.intensity_on_grid)


def layer_metrics(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Every per-layer metric from the recorded spans, counters and gauges."""
    self_times = tracer.self_times()
    per_call = defaultdict(list)
    for s in tracer.spans:
        per_call[s.name].append(self_times[s.id])

    out = {f"{name}_s": math.fsum(per_call[name]) for name in SPAN_NAMES}
    for name in PER_CALL_MS:
        calls = per_call[name]
        out[f"{name}_ms"] = 1000.0 * statistics.median(calls) if calls else 0.0
    c = tracer.counters
    for key in ("hjb.nfev", "hjb.njev", "hjb.nlu", "poisson.nlu", "strategies.evaluate_constant_calls",
                "strategies.clamped_lookups", "hawkes.events", "fields_io.bytes"):
        out[key] = c[key]
    out["hawkes.acceptance"] = c["hawkes.accepted"] / c["hawkes.candidates"] if c["hawkes.candidates"] else 0.0
    for key in ("hjb.residual_interior", "hjb.monotone_violations", "strategies.extract_batch_rss_mb",
                "hawkes.intensity_grid_rss_mb"):
        out[key] = tracer.gauges.get(key, 0)
    out["other_s"] = traced_wall_s - math.fsum(self_times.values())
    out["trace_overhead_s"] = traced_wall_s - untraced_wall_s
    if set(out) != set(LAYER_METRICS):
        raise RuntimeError(f"per-layer metrics differ from the list: {sorted(set(out) ^ set(LAYER_METRICS))}")
    return out
