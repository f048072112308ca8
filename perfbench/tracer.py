"""Span recorder installed from outside the program, for the traced run.

``Tracer.install`` replaces the public functions of each hoc layer (and
``numpy.linalg.eigvalsh``) with timing wrappers; ``uninstall`` puts the
originals back. A span records its name, parent, thread, start, end, self
time and a few counts. Spans stay in memory and are written out once, at the
end of the run. The diagonal contraction kernel runs once per power
iteration step, so its calls are folded into the enclosing span as counts
instead of becoming spans of their own.

``layer_metrics`` turns the spans of one operation into the per-layer
metrics listed in the README.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import os
import sys
import threading
from time import perf_counter

import numpy as np

# Span tuple layout.
ID, PARENT, NAME, THREAD, START, END, SELF, ATTRS = range(8)


def _modules(*names):
    """hoc's modules by name; None for one that does not exist."""
    out = []
    for name in names:
        try:
            out.append(importlib.import_module("hoc." + name))
        except ImportError:
            out.append(None)
    return out


def _rows(x):
    return 1 if np.ndim(x) < 2 else int(np.shape(x)[0])


def _matrices(a):
    shape = np.shape(a)
    return int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1


def _size(values):
    return int(np.size(values))


class Tracer:
    """Records spans around calls into hoc's layers while installed."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    # -- recording -----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, attrs=None):
        stack = self._stack()
        frame = [next(self._ids), name, perf_counter(), 0.0, {} if attrs is None else attrs]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - frame[2]
            if stack:
                stack[-1][3] += dur
            self.spans.append((frame[0], stack[-1][0] if stack else None, name,
                               threading.get_ident(), frame[2], end,
                               dur - frame[3], frame[4]))

    def fold(self, name, fn, args, kwargs):
        """Time one call and add it to the enclosing span's counts."""
        stack = self._stack()
        if not stack:
            return self.call(name, fn, args, kwargs, {"calls": 1})
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - start
            top = stack[-1]
            top[3] += dur
            attrs = top[4]
            attrs[name + "_calls"] = attrs.get(name + "_calls", 0) + 1
            attrs[name + "_s"] = attrs.get(name + "_s", 0.0) + dur

    @contextlib.contextmanager
    def op(self):
        """Root span of one operation."""
        stack = self._stack()
        frame = [next(self._ids), "op", perf_counter(), 0.0, {}]
        stack.append(frame)
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((frame[0], None, "op", threading.get_ident(),
                               frame[2], end, end - frame[2] - frame[3], {}))

    # -- installing wrappers ---------------------------------------------------

    def _wrap(self, owner, attr, name, count=None, fold=False):
        original = getattr(owner, attr, None)
        if original is None:  # a layer without this function is not traced
            return
        tracer = self

        if fold:
            def wrapper(*args, **kwargs):
                return tracer.fold(name, original, args, kwargs)
        elif count is None:
            def wrapper(*args, **kwargs):
                return tracer.call(name, original, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(name, original, args, kwargs, count(args, kwargs))

        wrapper.__wrapped__ = original
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self):
        mod = _modules("_kernels_py", "bounds", "experiments", "kernels", "measures",
                       "polynomials", "rmt", "svgplot", "tensors", "verify")
        (_kernels_py, bounds, experiments, kernels, measures, polynomials, rmt,
         svgplot, tensors, verify) = mod
        poly = getattr(polynomials, "PolyFunction", None)
        self._wrap(measures, "sample", "measures.sample",
                   lambda a, k: {"rows": int(a[1] if len(a) > 1 else k["m"])})
        self._wrap(poly, "evaluate", "polynomials.evaluate",
                   lambda a, k: {"rows": _rows(a[1] if len(a) > 1 else k["x"])})
        for attr in ("gradient_batch", "hessian_batch"):
            self._wrap(poly, attr, "polynomials.batch",
                       lambda a, k: {"rows": _rows(a[1] if len(a) > 1 else k["points"])})
        self._wrap(poly, "derivative_batch", "polynomials.batch",
                   lambda a, k: {"rows": _rows(a[2] if len(a) > 2 else k["points"])})
        self._wrap(poly, "derivative_tensor", "polynomials.derivative_tensor")
        self._wrap(bounds, "profile_from_function", "bounds.profile")
        # check_* take (certificate or bound, values, ...), empirical_* take (values, ...)
        for attr, pos in (("check_tail_certificate", 1), ("check_exp_certificate", 1),
                          ("check_moment_bound", 1), ("empirical_exp_moment", 0),
                          ("empirical_lp", 0), ("empirical_tail", 0)):
            self._wrap(verify, attr, "verify.check",
                       lambda a, k, pos=pos: {"values": _size(a[pos]) if len(a) > pos
                                              else _size(k.get("values", ()))})
        self._wrap(rmt, "sample_ensemble", "rmt.sample_ensemble",
                   lambda a, k: {"draws": int(a[1] if len(a) > 1 else k["draws"])})
        self._wrap(rmt, "calibrate", "rmt.calibrate")
        self._wrap(getattr(tensors, "SymTensor", None), "op_norm", "tensors.op_norm")
        self._wrap(kernels, "power_opnorm", "kernels.power_opnorm")
        backends = {id(m): m for m in (getattr(kernels, "_impl", None), _kernels_py)}
        for module in backends.values():
            for attr in ("diagonal_values", "diagonal_apply"):
                self._wrap(module, attr, "diagonal", fold=True)
        for owner, attr in ((experiments, "write_csv"), (experiments, "dump_json"),
                            (svgplot, "write_plot")):
            self._wrap_writer(owner, attr)
        self._wrap_eigvalsh()

    def _wrap_writer(self, owner, attr):
        original = getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        def wrapper(path, *args, **kwargs):
            attrs = {}
            try:
                return tracer.call("experiments.write", original,
                                   (path,) + args, kwargs, attrs)
            finally:
                attrs["bytes"] = os.path.getsize(path) if os.path.exists(path) else 0

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap_eigvalsh(self):
        original = np.linalg.eigvalsh
        tracer = self

        def eigvalsh(a, *args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "?")
            layer = caller.rsplit(".", 1)[-1]
            return tracer.call(layer + ".eigvalsh", original, (a,) + args, kwargs,
                               {"matrices": _matrices(a)})

        self._saved.append((np.linalg, "eigvalsh", original))
        np.linalg.eigvalsh = eigvalsh

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write('{"fields": ["id", "parent", "name", "thread", "start", '
                     '"end", "self_s", "attrs"],\n "spans": [\n')
            for i, span in enumerate(self.spans):
                fh.write((",\n" if i else "") + json.dumps(span))
            fh.write("\n]}\n")


# -- per-layer metrics ---------------------------------------------------------------

COUNT_METRICS = ("measures.rows", "polynomials.evaluate_rows",
                 "polynomials.derivative_tensor_calls", "bounds.eigvalsh_matrices",
                 "verify.values", "rmt.draws", "tensors.op_norm_calls",
                 "kernels.power_opnorm_calls", "kernels.power_steps",
                 "kernels.diagonal_calls", "experiments.bytes_written")


def ops_of(spans):
    """Group spans by operation: each span belongs to the op whose interval
    holds its start (pool threads have no parent span in their own thread)."""
    ops = sorted((s for s in spans if s[NAME] == "op"), key=lambda s: s[START])
    groups = [[] for _ in ops]
    starts = [s[START] for s in ops]
    for span in spans:
        if span[NAME] == "op":
            continue
        i = int(np.searchsorted(starts, span[START], side="right")) - 1
        if i >= 0 and span[START] <= ops[i][END]:
            groups[i].append(span)
    return ops, groups


def layer_metrics(spans):
    """Per-layer metrics of one operation's spans (a dict of name -> number)."""
    by_id = {s[ID]: s for s in spans}
    m = dict.fromkeys(
        ("measures.sample_s", "polynomials.evaluate_s", "polynomials.batch_s",
         "polynomials.derivative_tensor_s", "bounds.profile_self_s",
         "bounds.eigvalsh_s", "verify.check_s", "rmt.sample_ensemble_s",
         "rmt.calibrate_s", "rmt.eigvalsh_busy_s", "tensors.op_norm_s",
         "kernels.power_opnorm_s", "kernels.diagonal_s", "experiments.write_s"), 0.0)
    m.update(dict.fromkeys(COUNT_METRICS, 0))

    def parent_name(span):
        parent = by_id.get(span[PARENT])
        return parent[NAME] if parent else ""

    for s in spans:
        name, dur, attrs = s[NAME], s[END] - s[START], s[ATTRS]
        m["kernels.diagonal_s"] += attrs.get("diagonal_s", 0.0)
        m["kernels.diagonal_calls"] += attrs.get("diagonal_calls", 0)
        if name == "measures.sample":
            m["measures.sample_s"] += dur
            m["measures.rows"] += attrs["rows"]
        elif name == "polynomials.evaluate":
            if not parent_name(s).startswith("polynomials."):
                m["polynomials.evaluate_s"] += dur
                m["polynomials.evaluate_rows"] += attrs["rows"]
        elif name == "polynomials.batch":
            m["polynomials.batch_s"] += dur
        elif name == "polynomials.derivative_tensor":
            m["polynomials.derivative_tensor_s"] += dur
            m["polynomials.derivative_tensor_calls"] += 1
        elif name == "bounds.profile":
            m["bounds.profile_self_s"] += s[SELF]
        elif name == "bounds.eigvalsh":
            m["bounds.eigvalsh_s"] += dur
            m["bounds.eigvalsh_matrices"] += attrs["matrices"]
        elif name == "verify.check":
            if parent_name(s) != "verify.check":
                m["verify.check_s"] += dur
                m["verify.values"] += attrs.get("values", 0)
        elif name == "rmt.sample_ensemble":
            m["rmt.sample_ensemble_s"] += dur
            m["rmt.draws"] += attrs["draws"]
        elif name == "rmt.calibrate":
            m["rmt.calibrate_s"] += dur
        elif name == "rmt.eigvalsh":
            m["rmt.eigvalsh_busy_s"] += dur
        elif name == "tensors.op_norm":
            m["tensors.op_norm_s"] += dur
            m["tensors.op_norm_calls"] += 1
        elif name == "kernels.power_opnorm":
            m["kernels.power_opnorm_s"] += dur
            m["kernels.power_opnorm_calls"] += 1
            # one contraction before the loop, then one per step
            m["kernels.power_steps"] += max(attrs.get("diagonal_calls", 0) - 1, 0)
        elif name == "diagonal":
            m["kernels.diagonal_s"] += dur
            m["kernels.diagonal_calls"] += attrs["calls"]
        elif name == "experiments.write":
            m["experiments.write_s"] += dur
            m["experiments.bytes_written"] += attrs["bytes"]
    return m
