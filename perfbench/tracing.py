"""Span tracing from outside the program, for the per-layer metrics.

``Tracer.install`` replaces every public function of the package's layer
modules with a timing wrapper, in every module that binds it (``cv_select``
is bound in ``tuning``, ``theory``, ``harness`` and ``cli``), plus
``DesignFactorization.__init__``.  Each call records a span ``[name, parent,
start, end]`` in memory; ``uninstall`` restores the original bindings.  The
tracer keeps one call stack, so it assumes the traced code runs on one
thread (the benchmark runs the harness with ``threads = 1``).
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

PACKAGE = "ridgeboot"
LAYERS = ("linmodel", "designs", "tuning", "resampling", "_kernels", "mallows", "theory", "harness", "cli")


# Counters taken from call arguments: span name -> (counter, value of the bound arguments).
_HOOKS = {
    "resampling.rb_contrast_draws": ("draw_cells", lambda a: int(a["B"]) * a["data"].n),
    # Computed bytes: one int64 index read plus one float64 atom gathered per cell.
    "kernels.contrast_draws": ("contrast_draws_bytes", lambda a: 16 * a["idx"].size),
    "kernels.w2sq_sorted": ("w2sq_grid_points", lambda a: a["x"].size + a["y"].size),
    "mallows.d2_empirical": ("d2_kernel_calls", lambda a: int(a["F"].atoms.size != a["G"].atoms.size)),
    "designs.sample_noise": ("noise_draws", lambda a: int(a["n"])),
}


class Tracer:
    """In-memory span recorder with per-call argument counters."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list = []
        self._patches: list = []

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
                if hook:
                    counter, value = hook
                    counters[counter] += value(signature.bind(*args, **kwargs).arguments)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public layer function wherever a package module binds it."""
        wrappers: dict = {}
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home, _, layer = obj.__module__.rpartition(".")
                if home != PACKAGE or layer not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self.wrap(f"{layer.lstrip('_')}.{obj.__name__}", obj)
                self._patch(module, attr, wrappers[obj])
        cls = importlib.import_module(f"{PACKAGE}.linmodel").DesignFactorization
        self._patch(cls, "__init__", self.wrap("linmodel.factorize", cls.__init__))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path, header: dict) -> None:
        """Write the header and one JSON object per span, ids in call order."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def self_times(spans) -> list:
    """Self time of each span: its duration minus its children's durations."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans, counters, cycles: int, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics per cycle of the workload's operations.

    ``traced_s`` and ``untraced_s`` are the summed wall times of the same
    operations run with and without the tracer installed.
    """
    own = self_times(spans)
    counters = Counter(counters)
    calls: Counter = Counter()
    total = defaultdict(float)
    self_by_name = defaultdict(float)
    self_by_layer = defaultdict(float)
    covered = 0.0
    for (name, parent, start, end), self_s in zip(spans, own):
        calls[name] += 1
        total[name] += end - start
        self_by_name[name] += self_s
        self_by_layer[name.partition(".")[0]] += self_s
        if parent < 0:
            covered += end - start
    d2_calls = calls["mallows.d2_empirical"]
    per_cycle = {
        "linmodel.self_s": self_by_layer["linmodel"],
        "linmodel.factorize_calls": calls["linmodel.factorize"],
        "linmodel.factorize_s": total["linmodel.factorize"],
        "linmodel.read_csv_s": self_by_name["linmodel.read_matrix_csv"] + self_by_name["linmodel.read_vector_csv"],
        "designs.sample_s": self_by_layer["designs"],
        "designs.noise_draws": counters["noise_draws"],
        "tuning.cv_select_calls": calls["tuning.cv_select"],
        "tuning.cv_select_self_s": self_by_name["tuning.cv_select"],
        "resampling.self_s": self_by_layer["resampling"],
        "resampling.draws_calls": calls["resampling.rb_contrast_draws"],
        "resampling.draws_self_s": self_by_name["resampling.rb_contrast_draws"],
        "resampling.draw_cells": counters["draw_cells"],
        "resampling.quantile_s": total["resampling.quantile"],
        "resampling.ci_normal_s": total["resampling.ci_normal"],
        "kernels.contrast_draws_s": total["kernels.contrast_draws"],
        "kernels.contrast_draws_bytes": counters["contrast_draws_bytes"],
        "kernels.w2sq_calls": calls["kernels.w2sq_sorted"],
        "kernels.w2sq_s": total["kernels.w2sq_sorted"],
        "kernels.w2sq_grid_points": counters["w2sq_grid_points"],
        "mallows.self_s": self_by_layer["mallows"],
        "mallows.d2_calls": d2_calls,
        "mallows.d2_self_s": self_by_name["mallows.d2_empirical"],
        "theory.self_s": self_by_layer["theory"],
        "harness.self_s": self_by_layer["harness"],
        "cli.self_s": self_by_layer["cli"],
        "bench.unattributed_s": traced_s - covered,
    }
    metrics = {name: value / cycles for name, value in per_cycle.items()}
    metrics["mallows.d2_kernel_frac"] = counters["d2_kernel_calls"] / d2_calls if d2_calls else 0.0
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return metrics
