"""In-memory spans around the public functions of each crnoise module.

`install` wraps every public function a crnoise layer module defines and
rebinds each name that refers to it, in the defining module and in every
crnoise module that imported a copy (``from .noisebudget import
full_noise_budget``), so a span sees every call whichever name the caller
looks up.  No source file changes.

A span is recorded where a call crosses from one layer into another (or
starts the run); calls inside a layer only bump a per-function counter, so a
per-cell helper such as ``reports.csv_field`` costs a dict update, not a
span.  Functions in ``ALWAYS_SPAN`` get a span even when called from their
own layer, because a metric is reported for them by name.

Spans are rows ``[name, start, end, parent, attrs]`` kept in a list and
written out once, when the traced command ends.  The arithmetic that turns
them into per-layer metrics lives here too, so the self-test can check it on
a hand-built tree.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

# module (under the crnoise package) -> layer it belongs to
LAYER_OF_MODULE = {
    "cli": "cli",
    "config": "config",
    "presets": "config",
    "sysmodel": "sysmodel",
    "timesim": "timesim",
    "spectral": "spectral",
    "noisebudget": "noisebudget",
    "resolution": "resolution",
    "reports": "reports",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF_MODULE.values()))
ALWAYS_SPAN = frozenset({"reports.render_table"})

NAME, START, END, PARENT, ATTRS = range(5)


def layer_of(span_name: str) -> str:
    module = span_name.split(".", 1)[0]
    return LAYER_OF_MODULE.get(module, module)


def _bytes_written(position: int):
    """attrs: the size of the file whose path is argument `position` (or path=)."""
    def attrs(args, kwargs, result) -> dict:
        path = kwargs.get("path", args[position] if len(args) > position else None)
        try:
            return {"bytes": os.path.getsize(path)}
        except (OSError, TypeError):
            return {}
    return attrs


def _simulate_attrs(args, kwargs, result) -> dict:
    plan = kwargs.get("plan", args[2] if len(args) > 2 else None)
    forcing = kwargs.get("forcing", args[1] if len(args) > 1 else None)
    # steps spanned by the returned record: the step count when nothing is
    # decimated, and the step count rounded down to whole decimation blocks
    steps = (result.n_samples - 1) * plan.record_decimation
    records = [a for a in (result.x1, result.x2, result.v1, result.v2) if a is not None]
    # chunk buffers of the engine, per step: the complex modal input block
    # (4 x 16 B), one complex filter output (16 B), one float per recorded
    # channel, one float per noise stream and 3 x 2 floats of harmonic force
    chunk = min(steps, getattr(sys.modules.get("crnoise.timesim"), "_CHUNK_STEPS", steps))
    streams = 0
    if forcing.stochastic is not None:
        streams = 2 if forcing.stochastic.target == "both" else 1
    per_step = 64 + 16 + 8 * len(records) + 8 * streams + (48 if forcing.harmonic else 0)
    computed = sum(a.nbytes for a in records) + chunk * per_step
    return {"steps": steps, "computed_bytes": computed}


def _welch_attrs(args, kwargs, result) -> dict:
    samples = kwargs.get("samples", args[0] if args else None)
    return {"samples": int(len(samples)), "segments": int(result.n_segments)}


# span name -> attrs(args, kwargs, result), evaluated after the call returns
MEASURES = {
    "timesim.simulate": _simulate_attrs,
    "spectral.welch_psd": _welch_attrs,
    "timesim.write_timeseries_csv": _bytes_written(1),
    "spectral.write_spectrum_csv": _bytes_written(1),
    "reports.write_report": _bytes_written(0),
    "reports.write_rows_csv": _bytes_written(0),
    "reports.write_csv": _bytes_written(0),
}


class Tracer:
    """Span recorder for one process; spans stay in memory until `dump`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.calls: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        layer = layer_of(name)
        measure = MEASURES.get(name)
        always = name in ALWAYS_SPAN
        spans, stack, calls, clock = self.spans, self._stack, self.calls, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            parent = stack[-1] if stack else None
            if not always and parent is not None and layer_of(spans[parent][NAME]) == layer:
                return fn(*args, **kwargs)
            span = [name, clock(), None, parent, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if measure is not None:
                span[ATTRS] = measure(args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "calls": self.calls}, handle)


def install(tracer: Tracer, package: str = "crnoise") -> None:
    """Wrap the public functions of each layer module, wherever they are bound."""
    wrapped: dict[int, tuple] = {}
    for short in LAYER_OF_MODULE:
        try:
            module = importlib.import_module(f"{package}.{short}")
        except ImportError:
            continue
        for attr, value in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or value.__module__ != module.__name__):
                continue
            wrapped[id(value)] = (value, tracer.wrap(f"{short}.{attr}", value))
    # rebind each copy of the name where its caller looks it up
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


# --- span arithmetic ---------------------------------------------------------

# groups of functions whose busy time is reported under one metric name
GROUPS = {
    "spectral.band_mean_psd.s": ("spectral.band_mean_psd", "spectral.band_power"),
    "reports.write.s": ("reports.write_report", "reports.write_rows_csv", "reports.write_csv"),
}


def _keys(name: str) -> set[str]:
    """The layer, the function and any group a span of `name` counts towards."""
    keys = {layer_of(name), name}
    keys.update(group for group, members in GROUPS.items() if name in members)
    return keys


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def busy_times(spans: list[list]) -> tuple[dict[str, float], dict[str, list[int]]]:
    """Time covered per layer, function and group, and the spans that cover it.

    A span counts towards a key only when no ancestor carries the same key,
    so nested spans of one layer or function are not counted twice.
    """
    keys = [_keys(s[NAME]) for s in spans]
    busy: dict[str, float] = {}
    outermost: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        above: set[str] = set()
        parent = s[PARENT]
        while parent is not None:
            above |= keys[parent]
            parent = spans[parent][PARENT]
        for key in keys[i] - above:
            busy[key] = busy.get(key, 0.0) + (s[END] - s[START])
            outermost.setdefault(key, []).append(i)
    return busy, outermost


def merge(traces: list[dict]) -> dict:
    """Concatenate the span lists of several commands, renumbering parents."""
    spans: list[list] = []
    calls: dict[str, int] = {}
    for trace in traces:
        base = len(spans)
        for s in trace["spans"]:
            parent = None if s[PARENT] is None else s[PARENT] + base
            spans.append([s[NAME], s[START], s[END], parent, s[ATTRS]])
        for name, n in trace["calls"].items():
            calls[name] = calls.get(name, 0) + n
    return {"spans": spans, "calls": calls}


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one (merged) trace."""
    spans, calls = trace["spans"], trace["calls"]
    busy, outermost = busy_times(spans)
    selfs = self_times(spans)

    def attr(key: str, field: str) -> float:
        return sum((spans[i][ATTRS] or {}).get(field, 0) for i in outermost.get(key, ()))

    def rate(count: float, seconds: float) -> float:
        return count / seconds / 1e6 if seconds > 0 else 0.0

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.s"] = busy.get(layer, 0.0)
        out[f"{layer}.self_s"] = sum(
            t for s, t in zip(spans, selfs) if layer_of(s[NAME]) == layer)
        out[f"{layer}.calls"] = sum(1 for s in spans if layer_of(s[NAME]) == layer)
    out["cli.main.self_s"] = sum(t for s, t in zip(spans, selfs) if s[NAME] == "cli.main")
    out["config.build_run_config.s"] = busy.get("config.build_run_config", 0.0)
    out["sysmodel.mode_analysis.calls"] = calls.get("sysmodel.mode_analysis", 0)

    sim_s = busy.get("timesim.simulate", 0.0)
    out["timesim.simulate.s"] = sim_s
    out["timesim.simulate.steps"] = attr("timesim.simulate", "steps")
    out["timesim.simulate.msamp_s"] = rate(out["timesim.simulate.steps"], sim_s)
    out["timesim.simulate.computed_mb"] = attr("timesim.simulate", "computed_bytes") / 1e6
    welch_s = busy.get("spectral.welch_psd", 0.0)
    out["spectral.welch_psd.s"] = welch_s
    out["spectral.welch_psd.msamp_s"] = rate(attr("spectral.welch_psd", "samples"), welch_s)
    out["spectral.welch_psd.segments"] = attr("spectral.welch_psd", "segments")
    for name in ("timesim.steady_state_amplitude", "noisebudget.full_noise_budget",
                 "noisebudget.analytic_displacement_psd", "resolution.resolution_report",
                 "reports.render_table"):
        out[f"{name}.s"] = busy.get(name, 0.0)
    for group in GROUPS:
        out[group] = busy.get(group, 0.0)
    for name in ("timesim.write_timeseries_csv", "spectral.write_spectrum_csv"):
        out[f"{name}.s"] = busy.get(name, 0.0)
        out[f"{name}.bytes"] = attr(name, "bytes")
    out["reports.bytes"] = attr("reports.write.s", "bytes")
    return out
