"""Spans around the program's public functions, recorded from outside.

`Tracer` replaces each traced function, in every module namespace that holds
it, with a wrapper that records a span (name, start, end, parent span, sweep
cell), and restores the originals on exit. The program's source is untouched:
the wrappers sit exactly where its callers look the functions up.

A sweep cell is one generated instance: a cell starts at each
`gen_synthetic` call inside `run_sweep`, and every span until the next one
carries its identifier. Spans outside any cell carry cell 0.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# layer -> (metric name, attribute in that module); private entry points are
# traced under their public-facing names
TRACED = {
    "subspace": (
        ("orthonormal_basis", "orthonormal_basis"),
        ("intersect", "intersect"),
        ("join", "join"),
        ("is_subspace_of", "is_subspace_of"),
        ("extend_from_pool", "extend_from_pool"),
        ("greedy_pick", "_greedy_pick"),
    ),
    "model": (
        ("validate", "validate"),
        ("spectrum", "spectrum"),
        ("lower_bound", "lower_bound"),
    ),
    "code": (
        ("exact_loss", "exact_loss"),
        ("realize_spans", "realize_spans"),
        ("optimal_decoders", "optimal_decoders"),
        ("utilities", "utilities"),
    ),
    "analytic": (
        ("sufficient_report", "sufficient_report"),
        ("construct_lb_code", "construct_lb_code"),
    ),
    "train": (
        ("train", "train"),
        ("greedy_benchmark_code", "greedy_benchmark_code"),
    ),
    "bench": (
        ("gen_synthetic", "gen_synthetic"),
        ("run_sweep", "run_sweep"),
        ("write_csv", "write_csv"),
    ),
}
LAYERS = tuple(TRACED)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int  # 0 for a top-level span
    cell: int
    name: str    # "<layer>.<function>"
    start: int   # perf_counter_ns
    end: int


def self_times(spans) -> dict[int, int]:
    """Span id -> self time in ns: the span's duration minus the part of its
    interval that its direct children cover (overlaps counted once)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0
        reach = s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


class Tracer:
    """Context manager that traces one or more sweeps of the package."""

    def __init__(self, package):
        self._package = package
        # by import path: the package's `train` attribute is the function
        self._layers = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                        for layer in LAYERS}
        self._modules = [package, *self._layers.values()]
        self._patches = []
        self._stack = []         # (span id, layer) of the open spans
        self._next_id = 1
        self._cell = 0
        self.cells = 0
        self.spans: list[Span] = []
        self.counts = Counter()
        self._analyses = Counter()  # cell -> condition analyses run in it

    # installation -------------------------------------------------------

    def __enter__(self):
        import numpy as np  # after the caller has pinned BLAS threads

        hooks = {
            "analytic.sufficient_report": (self._on_report, None),
            "analytic.construct_lb_code": (None, self._on_construct_error),
            "train.train": (self._on_train, self._on_train_error),
            "bench.run_sweep": (self._end_cells, None),
        }
        for layer, entries in TRACED.items():
            module = self._layers[layer]
            for metric, attr in entries:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                name = f"{layer}.{metric}"
                on_return, on_error = hooks.get(name, (None, None))
                self._replace(original, self._spanned(
                    name, layer, original, on_return, on_error))
        analyze = getattr(self._layers["analytic"], "_analyze", None)
        if analyze is not None:
            self._replace(analyze, self._counted(analyze, self._on_analysis))
        null_space = getattr(self._layers["subspace"], "null_space", None)
        if null_space is not None:
            self._replace(null_space, self._counted(null_space, self._on_svd))
        self._patch(np.linalg, "svd", self._counted(np.linalg.svd, self._on_svd))
        self._patch(np.linalg, "lstsq",
                    self._counted(np.linalg.lstsq, self._on_lstsq))
        return self

    def __exit__(self, *exc):
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()
        return False

    def _patch(self, namespace, attr, value):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def _replace(self, original, wrapper):
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _spanned(self, name, layer, fn, on_return, on_error):
        is_cell_start = name == "bench.gen_synthetic"

        def wrapper(*args, **kwargs):
            if is_cell_start and self._stack:
                self.cells += 1
                self._cell = self.cells
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else 0
            cell = self._cell
            self._stack.append((span_id, layer))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append(Span(span_id, parent, cell, name, start, end))
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _counted(self, fn, on_call):
        def wrapper(*args, **kwargs):
            on_call()
            return fn(*args, **kwargs)

        return wrapper

    # hooks ----------------------------------------------------------------

    def _innermost(self):
        return self._stack[-1][1] if self._stack else None

    def _on_svd(self):
        if self._innermost() == "subspace":
            self.counts["subspace.svd_calls"] += 1

    def _on_lstsq(self):
        if self._innermost() == "code":
            self.counts["code.lstsq_calls"] += 1

    def _on_analysis(self):
        self._analyses[self._cell] += 1

    def _on_report(self, report):
        if not report.sufficient_ok:
            self.counts["analytic.rejected"] += 1

    def _on_construct_error(self, exc):
        if isinstance(exc, self._package.PreconditionNotMet):
            self.counts["analytic.rejected"] += 1

    def _on_train(self, result):
        self.counts["train.epochs"] += int(result[1].shape[0])

    def _on_train_error(self, exc):
        if isinstance(exc, self._package.DivergenceDetected):
            self.counts["train.diverged"] += 1

    def _end_cells(self, _records):
        self._cell = 0

    # summary --------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything traced so far, as (value, unit)."""
        own = self_times(self.spans)
        calls = Counter(s.name for s in self.spans)
        self_ns = Counter()
        for s in self.spans:
            self_ns[s.name] += own[s.id]
        out = {}
        for layer, entries in TRACED.items():
            layer_ns = 0
            for metric, _ in entries:
                name = f"{layer}.{metric}"
                out[f"{name}.calls"] = (calls[name], "count")
                out[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
                layer_ns += self_ns[name]
            out[f"{layer}.self_s"] = (layer_ns / 1e9, "s")
        for key in ("subspace.svd_calls", "code.lstsq_calls", "analytic.rejected",
                    "train.epochs", "train.diverged"):
            out[key] = (self.counts[key], "count")
        out["model.spectrum.per_cell"] = (
            calls["model.spectrum"] / self.cells if self.cells else 0.0, "1/cell")
        constructs = Counter(s.cell for s in self.spans
                             if s.name == "analytic.construct_lb_code")
        analyses = sum(self._analyses[cell] for cell in constructs)
        out["analytic.analyses_per_construct"] = (
            analyses / sum(constructs.values()) if constructs else 0.0, "1/construct")
        epochs = self.counts["train.epochs"]
        out["train.epoch_us"] = (
            self_ns["train.train"] / 1e3 / epochs if epochs else 0.0, "us")
        out["trace.spans"] = (len(self.spans), "count")
        return out
