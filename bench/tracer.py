"""Spans around bellsquare's public functions, installed from outside.

The tracer replaces every public function of each layer module (and the
few private boundaries named in ``_EXTRA``) by a wrapper that records a
span: name, start, end, parent span and run id.  It rebinds the function
in every ``bellsquare`` module namespace that holds it, so calls through
``from .states import luders_update`` are traced too.  Spans stay in
memory and are written once, when the run ends.  ``uninstall`` restores
the original objects, so untraced passes run the unmodified program.

Layers are the package modules.  ``pauli`` and ``observables`` are
constant tables costing well under 1 ms per run; they are covered by
``setup_s`` and get no spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

LAYERS = ("states", "sequences", "inequality", "hv_models", "cli")

# Span names that differ from "<layer>.<function>".
_RENAMED = {
    "hv_models.noncontextual_chi_bound": "hv_models.context_free",
    "hv_models.first_measurement_bound": "hv_models.context_free",
}
# Private boundaries that a per-layer metric needs: (layer, attribute, span).
_EXTRA = (("hv_models", "_indices_attaining", "hv_models.local_omega_bound_witnesses"),)
_SCAN_SPANS = (
    "hv_models.local_omega_bound", "hv_models.relaxed_omega_scan",
    "hv_models.chain_inequality_scan", "hv_models.context_free",
)
_PEAK_ALLOC_SPAN = "inequality.estimate_inequality"

# Per-layer metrics: name, unit, better.  Each names, in bench/README.md,
# the end-to-end metric and workload it should move.
PER_LAYER = (
    ("states.luders_update.calls", "count", "lower"),
    ("states.luders_update.self_s", "s", "lower"),
    ("states.luders_update.useful_ratio", "ratio", "higher"),
    ("states.validate.calls", "count", "lower"),
    ("states.validate.self_s", "s", "lower"),
    ("states.four_qubit_state.self_s", "s", "lower"),
    ("sequences.sequence_distribution.calls", "count", "lower"),
    ("sequences.sequence_distribution.self_s", "s", "lower"),
    ("sequences.sample_outcomes.self_s", "s", "lower"),
    ("sequences.uniform01.self_s", "s", "lower"),
    ("sequences.draws", "count", "lower"),
    ("sequences.sample.records_per_s", "1/s", "higher"),
    ("inequality.omega.calls", "count", "lower"),
    ("inequality.omega.self_s", "s", "lower"),
    ("inequality.sweep.self_s", "s", "lower"),
    ("inequality.find_violation_threshold.self_s", "s", "lower"),
    ("inequality.bisection.omega_calls", "count", "lower"),
    ("inequality.estimate_inequality.self_s", "s", "lower"),
    ("inequality.estimate_inequality.peak_alloc_mb", "MB", "lower"),
    ("hv_models.local_omega_bound.self_s", "s", "lower"),
    ("hv_models.local_omega_bound_pool.self_s", "s", "lower"),
    ("hv_models.local_omega_bound_witnesses.self_s", "s", "lower"),
    ("hv_models.relaxed_omega_scan.self_s", "s", "lower"),
    ("hv_models.chain_inequality_scan.self_s", "s", "lower"),
    ("hv_models.context_free.self_s", "s", "lower"),
    ("hv_models.bound_gap_report.self_s", "s", "lower"),
    ("hv_models.models_scanned", "count", "lower"),
    ("hv_models.models_per_s", "1/s", "higher"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("check.worst_margin", "ratio", "lower"),
)


class Tracer:
    """Records spans while ``enabled``; ``run_id`` tags the current pass."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, run_id]
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self.enabled = False
        self.run_id = 0
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def add(self, counter: str, amount: float) -> None:
        self.counters[self.run_id][counter] += amount

    def _wrap(self, name: str, fn):
        tracer = self
        peak_alloc = name == _PEAK_ALLOC_SPAN
        on_result = _RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if peak_alloc:
                tracemalloc.start()
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
                if peak_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    run = tracer.counters[tracer.run_id]
                    run["peak_alloc"] = max(run["peak_alloc"], peak)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            elif name.startswith("hv_models.") and hasattr(result, "models_scanned"):
                tracer.add("hv_models.models_scanned", result.models_scanned)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions; idempotent until uninstall."""
        if self._undo:
            return
        targets = []
        for layer in LAYERS:
            module = importlib.import_module(f"bellsquare.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    targets.append((obj, _RENAMED.get(name, name)))
        for layer, attr, name in _EXTRA:
            targets.append((getattr(importlib.import_module(f"bellsquare.{layer}"), attr), name))
        wrapped = {id(obj): (obj, self._wrap(name, obj)) for obj, name in targets}

        modules = [m for key, m in sys.modules.items()
                   if key == "bellsquare" or key.startswith("bellsquare.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._rebind(module, attr, obj, wrapped[id(obj)][1])
        # The CLI dispatches through a table of its command functions.
        cli = sys.modules["bellsquare.cli"]
        for key, obj in list(cli._COMMANDS.items()):
            if id(obj) in wrapped:
                self._undo.append((cli._COMMANDS.__setitem__, key, obj))
                cli._COMMANDS[key] = wrapped[id(obj)][1]

        states = sys.modules["bellsquare.states"]
        validate = states.DensityState.__post_init__
        self._rebind(states.DensityState, "__post_init__", validate,
                     self._wrap("states.validate", validate))
        hv_models = sys.modules["bellsquare.hv_models"]
        self._rebind(hv_models, "ProcessPoolExecutor", hv_models.ProcessPoolExecutor,
                     self._traced_pool(hv_models.ProcessPoolExecutor))

    def _rebind(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._undo.append((functools.partial(setattr, owner), attr, original))

    def uninstall(self) -> None:
        while self._undo:
            setter, key, original = self._undo.pop()
            setter(key, original)

    def _traced_pool(self, base):
        tracer = self

        class TracedPool(base):
            """Spans the pool's whole life: start, scan and shutdown."""

            def __enter__(self):
                self._bench_sid = tracer.begin("hv_models.local_omega_bound_pool") if tracer.enabled else None
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    if self._bench_sid is not None:
                        tracer.end(self._bench_sid)

        return TracedPool

    # -- reduction ---------------------------------------------------------

    def pass_metrics(self) -> dict[int, dict[str, float]]:
        """Per-layer metrics of each traced pass, keyed by run id."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_run: dict[int, dict] = defaultdict(lambda: {"calls": Counter(), "self": Counter(), "incl": Counter()})
        bisection = Counter()
        for sid, (name, start, end, parent, run) in enumerate(self.spans):
            acc = per_run[run]
            acc["calls"][name] += 1
            acc["self"][name] += (end - start) - child_time[sid]
            acc["incl"][name] += end - start
            if name == "inequality.omega" and self._has_ancestor(parent, "inequality.find_violation_threshold"):
                bisection[run] += 1

        out = {}
        for run, acc in per_run.items():
            counts = self.counters[run]
            metrics = {}
            for metric, _, _ in PER_LAYER:
                span, _, kind = metric.rpartition(".")
                if kind == "calls":
                    metrics[metric] = acc["calls"][span]
                elif kind == "self_s":
                    metrics[metric] = acc["self"][span]
            luders = acc["calls"]["states.luders_update"]
            metrics["states.luders_update.useful_ratio"] = (
                counts["states.luders_update.useful"] / luders if luders else 0.0)
            metrics["sequences.draws"] = counts["sequences.draws"]
            sample_s = acc["incl"]["sequences.sample"]
            metrics["sequences.sample.records_per_s"] = (
                counts["sequences.sample.records"] / sample_s if sample_s else 0.0)
            metrics["inequality.bisection.omega_calls"] = bisection[run]
            metrics["inequality.estimate_inequality.peak_alloc_mb"] = counts["peak_alloc"] / 2**20
            scanned = counts["hv_models.models_scanned"]
            scan_s = sum(acc["incl"][s] for s in _SCAN_SPANS)
            metrics["hv_models.models_scanned"] = scanned
            metrics["hv_models.models_per_s"] = scanned / scan_s if scan_s else 0.0
            metrics["cli.report_bytes"] = counts["cli.report_bytes"]
            out[run] = metrics
        return out

    def _has_ancestor(self, sid: int, name: str) -> bool:
        while sid >= 0:
            if self.spans[sid][0] == name:
                return True
            sid = self.spans[sid][3]
        return False

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, run."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, ensure_ascii=False) + "\n")


def median_metrics(per_pass: dict[int, dict[str, float]]) -> dict[str, float]:
    """Median over passes of each per-layer metric."""
    names = {name for metrics in per_pass.values() for name in metrics}
    return {name: statistics.median(m[name] for m in per_pass.values()) for name in names}


def _luders_hook(tracer, args, kwargs, result):
    tracer.add("states.luders_update.useful", result[1] is not None)


def _draws_hook(tracer, args, kwargs, result):
    tracer.add("sequences.draws", len(result))


def _records_hook(tracer, args, kwargs, result):
    tracer.add("sequences.sample.records", len(result))


_RESULT_HOOKS = {
    "states.luders_update": _luders_hook,
    "sequences.uniform01": _draws_hook,
    "sequences.sample": _records_hook,
}
