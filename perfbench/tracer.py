"""Traced in-process run of one workload, for the per-layer metrics.

The layer entry points that ``isacsim.runner`` and ``isacsim.metrics`` call
are replaced, for the duration of one run, by wrappers that record nested
spans (name, key, start, end, parent). A layer's self time is its span's
duration minus the part of that interval its child spans cover. Nothing in
the package itself is changed or needs to know about the tracing.

    python3 perfbench/tracer.py --workload study --seed 7 --out DIR

runs the workload with one worker, writes its outputs to DIR and prints
the per-layer metrics as one JSON line. A wrapped name that no longer
exists is reported in ``absent`` and its metrics read 0.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager

import workloads


class Span:
    __slots__ = ("name", "key", "start", "end", "parent", "value")

    def __init__(self, name, key, start, parent):
        self.name, self.key, self.start, self.parent = name, key, start, parent
        self.end = None
        self.value = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    """Records spans in memory; spans opened inside a span are its children."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._open: list = []

    def begin(self, name: str, key=None) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(name, key, self.clock(), parent)
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        self._open.remove(span)

    @contextmanager
    def span(self, name: str, key=None):
        s = self.begin(name, key)
        try:
            yield s
        finally:
            self.end(s)

    def wrap(self, fn, name: str, key=None, value=None):
        """``fn`` traced as ``name``; ``key(args, kwargs)`` splits the layer
        into keyed parts, ``value(result)`` is summed per layer."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, key(args, kwargs) if key else None) as s:
                result = fn(*args, **kwargs)
            if value is not None:
                s.value = value(result)
            return result

        return traced

    def self_times(self) -> dict:
        """``{span: self time}`` for every closed span."""
        children: dict = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(id(s.parent), []).append((s.start, s.end))
        return {
            s: s.duration - covered(children.get(id(s), ()), s.start, s.end)
            for s in self.spans
        }

    def totals(self) -> dict:
        """``{(name, key): [calls, self seconds, summed value]}``."""
        out: dict = {}
        for s, own in self.self_times().items():
            t = out.setdefault((s.name, s.key), [0, 0.0, 0.0])
            t[0] += 1
            t[1] += own
            t[2] += s.value or 0.0
        return out


def _case_arg(args, kwargs):
    case = kwargs["case"] if "case" in kwargs else args[2]
    return getattr(case, "value", case)


def _paths_case(args, kwargs):
    return args[0].case.value


def _gain_mb(cir) -> float:
    return cir.gains.nbytes / 1e6


# (module, attribute as the caller sees it, layer, key of args, value of result)
LAYERS = (
    ("isacsim.runner", "build_hop", "largescale.build_hop", None, None),
    ("isacsim.runner", "ScenarioParams.from_table", "largescale.scenario_table", None, None),
    ("isacsim.runner", "generate_sublink", "smallscale.generate_sublink", None, None),
    ("isacsim.runner", "concatenate", "concatenation.concatenate", _case_arg, len),
    ("isacsim.runner", "nn_total_power", "concatenation.nn_total_power", None, None),
    ("isacsim.runner", "drop_statistics", "stats.drop_statistics", _paths_case, None),
    ("isacsim.runner", "empirical_cdf", "stats.empirical_cdf", None, None),
    ("isacsim.runner", "B1Table.from_file", "rcs.b1_table", None, None),
    ("isacsim.runner", "synthesize_target_cir", "coefficients.target_cir", None, _gain_mb),
    ("isacsim.runner", "synthesize_background_cir", "coefficients.background_cir", None, None),
    ("isacsim.runner", "combine_channels", "coefficients.combine", None, _gain_mb),
    ("isacsim.metrics", "pd", "metrics.pd", None, None),
)


@contextmanager
def instrument(tracer: Tracer, layers=LAYERS):
    """Wrap every layer entry point for the duration of the block; yields the
    names of the layers whose entry point was not found."""
    saved, absent = [], []
    for module, dotted, layer, key, value in layers:
        *path, attr = dotted.split(".")
        try:
            owner = importlib.import_module(module)
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            absent.append(layer)
            continue
        saved.append((owner, attr, inspect.getattr_static(owner, attr)))
        wrapped = tracer.wrap(fn, layer, key, value)
        setattr(owner, attr, staticmethod(wrapped) if isinstance(owner, type) else wrapped)
    try:
        yield absent
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def layer_metrics(tracer: Tracer, drops: int, output_bytes: int) -> dict:
    """Per-layer metrics, ``{name: (value, unit)}``, from a finished trace."""
    totals = tracer.totals()

    def total(field, name, key=None):
        return sum(t[field] for (n, k), t in totals.items() if n == name and key in (None, k))

    calls, seconds, value = (functools.partial(total, field) for field in range(3))

    def per_drop(x):
        return x / drops if drops else 0.0

    m = {}
    for case in workloads.STUDY_CASES:
        m[f"concatenation.concatenate.ms_per_drop.{case}"] = (
            per_drop(1e3 * seconds("concatenation.concatenate", case)), "ms/drop")
        m[f"concatenation.paths_per_drop.{case}"] = (
            per_drop(value("concatenation.concatenate", case)), "count")
    m["concatenation.nn_total_power.ms_per_drop"] = (
        per_drop(1e3 * seconds("concatenation.nn_total_power")), "ms/drop")
    for case in workloads.STUDY_CASES:
        m[f"stats.drop_statistics.ms_per_drop.{case}"] = (
            per_drop(1e3 * seconds("stats.drop_statistics", case)), "ms/drop")
    m["stats.empirical_cdf.ms_per_run"] = (1e3 * seconds("stats.empirical_cdf"), "ms")
    m["smallscale.generate_sublink.ms_per_drop"] = (
        per_drop(1e3 * seconds("smallscale.generate_sublink")), "ms/drop")
    m["largescale.build_hop.ms_per_drop"] = (
        per_drop(1e3 * seconds("largescale.build_hop")), "ms/drop")
    m["largescale.build_hop.calls_per_drop"] = (
        per_drop(calls("largescale.build_hop")), "count")
    m["largescale.scenario_table.calls_per_run"] = (
        calls("largescale.scenario_table"), "count")
    m["largescale.scenario_table.ms_per_drop"] = (
        per_drop(1e3 * seconds("largescale.scenario_table")), "ms/drop")
    m["rcs.b1_table.loads_per_run"] = (calls("rcs.b1_table"), "count")
    m["coefficients.target_cir.ms_per_drop"] = (
        per_drop(1e3 * seconds("coefficients.target_cir")), "ms/drop")
    m["coefficients.background_cir.ms_per_drop"] = (
        per_drop(1e3 * seconds("coefficients.background_cir")), "ms/drop")
    m["coefficients.combine.ms_per_drop"] = (
        per_drop(1e3 * seconds("coefficients.combine")), "ms/drop")
    # The gains a drop hands back: the combined channel when a background is
    # added, otherwise the target channel alone.
    gain = value("coefficients.combine") or value("coefficients.target_cir")
    m["coefficients.gain_mb_per_drop"] = (per_drop(gain), "MB/drop")
    runner_self = seconds("runner")
    m["runner.self_ms_per_drop"] = (per_drop(1e3 * runner_self), "ms/drop")
    m["runner.output_mb"] = (output_bytes / 1e6, "MB")
    m["runner.output_mb_per_s"] = (
        output_bytes / 1e6 / runner_self if runner_self else 0.0, "MB/s")
    n_pd = calls("metrics.pd")
    m["metrics.pd.calls"] = (n_pd, "count")
    m["metrics.pd.us_per_call"] = (1e6 * seconds("metrics.pd") / n_pd if n_pd else 0.0, "us")
    return m


def traced_run(wl: workloads.Workload, seed: int, out_dir: str) -> dict:
    """Run ``wl`` once in this process with every layer traced."""
    import isacsim.metrics
    import isacsim.runner
    from isacsim.config import load_config

    tracer = Tracer()
    with instrument(tracer) as absent:
        if wl.command == "detect":
            with tracer.span("metrics.detection_table") as span:
                rows = isacsim.metrics.detection_table(wl.pfa, wl.snr_db, noise_std=wl.sigma)
            items = len(rows)
        else:
            cfg = load_config(wl.input_path)
            cfg.master_seed = seed
            entry = isacsim.runner.concat_study if wl.command == "concat-study" else isacsim.runner.run
            with tracer.span("runner") as span:
                entry(cfg, out_dir=out_dir, workers=1)
            items = wl.drops
    output_bytes = sum(
        os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)
    )
    metrics = layer_metrics(tracer, wl.drops, output_bytes)
    shares = sorted(
        ((f"{n}[{k}]" if k else n, t[1]) for (n, k), t in tracer.totals().items()),
        key=lambda kv: -kv[1],
    )
    return {
        "traced_s": span.duration,
        "items": items,
        "absent": absent,
        "self_s": dict(shares),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one traced in-process workload run")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(workloads.ROOT, "src"))
    os.makedirs(args.out, exist_ok=True)
    result = traced_run(workloads.load(args.workload), args.seed, args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
