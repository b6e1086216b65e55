"""Span tracing from outside the package.

`Tracer` replaces each traced function of `brnn` under every name a caller
looks it up by (for example `brnn.trainer.forward` and `brnn.verify.forward`
are both the one `model.forward` span), records one span per call in
memory, and puts the original functions back on exit. Nothing under `src/`
is changed.

A span is `[name, start, end, parent, units]`: `parent` is the index of the
enclosing span (-1 at top level) and `units` is the work the call did in
the span's own unit (steps, bytes or rows; 0 where none is counted).
"""

import importlib
import os
import time

LAYERS = ("model", "loss", "adjoint", "trainer", "verify", "tasks",
          "stability", "cli")


def _steps(args, kwargs, out):
    return out.N


def _nbytes(args, kwargs, out):
    # bytes of the (N, ., .) per-step tensors, computed from their shapes
    return sum(a.nbytes for a in vars(out).values())


def _rows(args, kwargs, out):
    return out.N + 1


def _file_bytes(index, keyword):
    def count(args, kwargs, out):
        path = args[index] if len(args) > index else kwargs[keyword]
        return os.path.getsize(path)
    return count


# span name "<layer>.<function>" -> how its units are counted (None: calls only)
TRACED = {
    "model.forward": _steps,
    "loss.total_cost": None,
    "adjoint.backward_costates": _steps,
    "adjoint.per_step_gradients": _nbytes,
    "trainer.train": None,
    "trainer.aggregate": None,
    "trainer.apply_update": None,
    "verify.gradcheck": None,
    "verify.analytic_gradient": None,
    "verify.numeric_gradient": None,
    "verify.cost_value": None,
    "verify.compare_gradients": None,
    "tasks.gen_task": None,
    "tasks.uniform_noise": None,
    "tasks.write_csv": _file_bytes(1, "path"),
    "tasks.read_csv": _rows,
    "cli.main": None,
    "cli.save_checkpoint": _file_bytes(0, "path"),
    "cli.load_checkpoint": None,
    "cli.write_metrics_csv": None,
    "stability.m_sup_bound": None,
    "stability.stability_report": None,
}


def _modules():
    return [importlib.import_module(f"brnn.{layer}") for layer in LAYERS]


class Tracer:
    """Context manager: while active, every call of a TRACED function
    appends a span to `self.spans`."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def __enter__(self):
        wrappers = {}
        for name, count in TRACED.items():
            layer, func = name.split(".")
            original = getattr(importlib.import_module(f"brnn.{layer}"), func)
            wrappers[original] = self._wrap(name, original, count)
        for module in _modules():
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced


def summarize(spans):
    """Per-name totals of one traced run.

    Returns `(by_name, epoch_gaps, top_level_s)`: `by_name[name]` is
    `{"self_s", "calls", "units"}`, where self time is the span's duration
    minus the time its child spans cover; `epoch_gaps` are the seconds
    between consecutive `model.forward` starts inside one `trainer.train`
    span; `top_level_s` is the summed duration of spans with no parent.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    by_name = {name: {"self_s": 0.0, "calls": 0, "units": 0} for name in TRACED}
    epoch_starts = {}
    top_level_s = 0.0
    for i, (name, start, end, parent, units) in enumerate(spans):
        agg = by_name[name]
        agg["self_s"] += (end - start) - child_s[i]
        agg["calls"] += 1
        agg["units"] += units
        if parent < 0:
            top_level_s += end - start
        elif name == "model.forward" and spans[parent][0] == "trainer.train":
            epoch_starts.setdefault(parent, []).append(start)
    epoch_gaps = [b - a for starts in epoch_starts.values()
                  for a, b in zip(starts, starts[1:])]
    return by_name, epoch_gaps, top_level_s
