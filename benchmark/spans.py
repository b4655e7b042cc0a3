"""In-process span tracing of the `qbm` layers, patched in from outside `src/`.

Each public function of each `qbm` module is wrapped.  A wrapper counts every
call; it records a span (name, start, end, parent span, run id) only when the
call crosses from one layer into another, so per-node inner calls such as
``qcf.evolve_chi`` cost a counter increment, not a span.  A layer is a module.

``qbm.runner`` binds names with ``from ... import``, ``build_propagator`` calls
``solve_fundamental`` through the propagator module's own binding, and the
CSV writers import ``qbm.runio.write_csv`` lazily.  So every attribute of every
loaded ``qbm`` module that refers to a wrapped function is replaced, and
every replaced attribute is restored on exit.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass

LAYERS = ("cli", "config", "kernels", "coefficients", "homogeneous", "propagator", "qcf",
          "oracle", "runio", "runner")
# third-party calls timed as a layer of their own: (module, attribute, span name)
FOREIGN = (("kernels", "quad", "kernels.quad"),)
# a span of a function with one of these parameters carries the argument's value
LABEL_PARAMS = ("mode", "path")


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    layer: str
    arg: object
    start: float
    end: float
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that patches the loaded ``qbm`` modules for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.calls: Counter = Counter()
        self._open: list = []  # (span_id, layer) of the spans currently running
        self._patched: list = []  # (module, attribute, original value)

    def __enter__(self) -> "Tracer":
        modules = {name: importlib.import_module(f"qbm.{name}") for name in LAYERS}
        targets = []
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_")):
                    targets.append((value, f"{layer}.{attr}", layer, None))
        for layer, attr, name in FOREIGN:
            targets.append((getattr(modules[layer], attr), name, name, modules[layer]))

        package = [m for key, m in sys.modules.items() if key == "qbm" or key.startswith("qbm.")]
        for func, name, layer, only_in in targets:
            wrapper = self._wrap(func, name, layer)
            for module in [only_in] if only_in else package:
                for attr, value in list(vars(module).items()):
                    if value is func:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, func, name: str, layer: str):
        signature = inspect.signature(func)
        label = next((p for p in LABEL_PARAMS if p in signature.parameters), None)
        calls, spans, open_spans, run_id = self.calls, self.spans, self._open, self.run_id

        def wrapper(*args, **kwargs):
            calls[name] += 1
            parent = open_spans[-1] if open_spans else None
            if parent is not None and parent[1] == layer:
                return func(*args, **kwargs)
            arg = None
            if label is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arg = bound.arguments[label]
            span_id = len(spans)
            spans.append(None)
            open_spans.append((span_id, layer))
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_spans.pop()
                spans[span_id] = Span(span_id, parent[0] if parent else None, name, layer,
                                      arg, start, end, run_id)

        return wrapper


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    return [span.duration - child for span, child in zip(spans, child_time)]


def layer_metrics(tracer: Tracer, n_nodes: int) -> dict:
    """Per-layer metrics of one traced run as {name: (value, unit)}.

    ``n_nodes`` is the length of the run's time grid (one RK4 step per interval).
    """
    spans, calls = tracer.spans, tracer.calls
    selfs = self_times(spans)

    def seconds(name: str, arg=None, own=False) -> tuple:
        return (sum(s if own else span.duration for span, s in zip(spans, selfs)
                    if span.name == name and (arg is None or span.arg == arg)), "s")

    def count(name: str) -> tuple:
        return (calls[name], "count")

    metrics = {f"{layer}.self_s": (sum(s for span, s in zip(spans, selfs) if span.layer == layer),
                                   "s") for layer in LAYERS}
    steps = calls["oracle.integrate"] * (n_nodes - 1)
    integrate_s = seconds("oracle.integrate")[0]
    metrics.update({
        "kernels.tabulate_s": seconds("kernels.tabulate_kernels"),
        "kernels.quad_s": seconds("kernels.quad"),
        "kernels.quad_calls": count("kernels.quad"),
        "coefficients.compute_s": seconds("coefficients.compute_coefficients"),
        "homogeneous.solve_s": seconds("homogeneous.solve_fundamental"),
        "homogeneous.solve_calls": count("homogeneous.solve_fundamental"),
        "qcf.observables_s": seconds("qcf.observable_series"),
        "qcf.chi_evals": count("qcf.evolve_chi"),
        "qcf.wigner_s": seconds("qcf.wigner"),
        "oracle.trajectories": count("oracle.integrate"),
        "oracle.step_us": (1e6 * integrate_s / steps if steps else 0.0, "us"),
        "runio.write_s": seconds("runio.write_csv"),
        "runio.files": count("runio.write_csv"),
        "runio.bytes_written": (sum(os.path.getsize(span.arg) for span in spans
                                    if span.name == "runio.write_csv"), "B"),
        "config.parse_s": seconds("config.parse_config"),
    })
    for mode in ("full", "norenorm", "rwa"):
        metrics[f"oracle.integrate_s.{mode}"] = seconds("oracle.integrate", mode)
        metrics[f"propagator.build_s.{mode}"] = seconds("propagator.build_propagator", mode,
                                                        own=True)
    return metrics

