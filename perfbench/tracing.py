"""Spans around the public functions of each torusgeo layer, for the traced run.

`install` replaces each wrapped function everywhere torusgeo looks it up: in
the module that defines it, in every module that imported it with
`from .x import y`, and in the experiment table; metric methods are replaced
on each subclass. A span records its name, start, end, parent span and one
optional integer (points evaluated, solver iterations, tested steps). Spans
are kept in flat arrays in memory and written out by `save` after the run.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from array import array

import numpy as np


class Tracer:
    """Spans of one process, in the order they started (a parent precedes its children)."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self.counters: dict[str, int] = {}
        self._stack = [-1]

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(n)

    def wrap(self, span: str, fn, measure=None):
        """`fn` inside a span; `measure(result)` gives the span's integer value."""
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        names, parents, starts, ends, values = self.name, self.parent, self.start, self.end, self.value
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            values.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if measure is not None:
                values[i] = measure(out)
            return out

        return traced

    def save(self, path: str) -> None:
        np.savez(path,
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 value=np.frombuffer(self.value, dtype=np.int64),
                 names=np.array(json.dumps(self.names)),
                 counters=np.array(json.dumps(self.counters)))


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every torusgeo layer in spans."""
    from torusgeo import experiments, fourier, loops, measures, metrics, polytope, solver

    package = [m for name, m in sys.modules.items()
               if m is not None and (name == "torusgeo" or name.startswith("torusgeo."))]

    def function(span, fn, measure=None):
        wrapped = tracer.wrap(span, fn, measure)
        for module in package:
            for attr, val in list(vars(module).items()):
                if val is fn:
                    setattr(module, attr, wrapped)

    def method(span, cls, attr, measure=None):
        setattr(cls, attr, tracer.wrap(span, cls.__dict__[attr], measure))

    def descent(result):
        tracer.count("solver.descent.converged", result.converged)
        return result.iterations

    F = fourier.Fourier2D
    method("fourier.eval", F, "__call__", measure=lambda out: np.size(out))
    F.grid = staticmethod(tracer.wrap("fourier.grid", F.__dict__["grid"].__func__))

    for cls in (metrics.RiemannianMetric, metrics.RandersMetric, metrics.ConformalMetric):
        method("metrics.speed", cls, "speed")
        method("metrics.grads", cls, "speed_sq_grads")
        method("metrics.build", cls, "__init__")
    method("metrics.build", metrics.ConformalFactor, "__init__")
    function("metrics.comparison", metrics.comparison_constant)

    method("loops.loop", loops.DiscreteLoop, "__init__")
    function("loops.action", loops.action)
    function("loops.reparam", loops.reparametrize_constant_speed)

    function("solver.descent", solver.shortest_loop, measure=descent)
    function("solver.gradient", solver.action_gradient)
    function("solver.cluster", solver.minimizer_set)
    function("solver.distance", solver.loop_distance)

    function("measures.pushforward", measures.pushforward)
    function("measures.pairing", measures.pairing)
    function("measures.consistency", measures.action_consistency)

    function("polytope.argmin", polytope.argmin_set)
    function("polytope.expose", polytope.exposing_functional)
    function("polytope.shrink", polytope.shrink_argmin, measure=lambda res: len(res.tested_t))

    for fn in (experiments.random_metric, experiments.random_factor,
               experiments.random_loop, experiments.random_body):
        function("experiments.inputs", fn)
    # run() formats and writes the report around the experiment body, so its
    # self time, with the body in a child span, is the report's cost
    function("experiments.report", experiments.run)
    for key, body in list(experiments._RUNNERS.items()):
        experiments._RUNNERS[key] = tracer.wrap("experiments.body", body)


def summarize(path: str) -> dict[str, float]:
    """Per-layer figures of one traced round.

    A span's self time is its duration minus the durations of its direct
    children (spans nest, since one thread runs them). `calls` counts the
    spans entered from outside a span of the same name, so a conformal
    metric's speed, which calls its base metric's speed, is one call.
    """
    d = np.load(path)
    ids = {s: i for i, s in enumerate(json.loads(str(d["names"])))}
    counters = json.loads(str(d["counters"]))
    name, parent, value = d["name"], d["parent"], d["value"]
    dur = d["end"] - d["start"]
    nested = parent >= 0
    self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    parent_name = np.where(nested, name[np.maximum(parent, 0)], -1)

    def spans(span):
        return name == ids.get(span, -1)

    def calls(span):
        return int((spans(span) & (parent_name != ids.get(span, -1))).sum())

    def self_s(span):
        return float(self_time[spans(span)].sum())

    def ratio(a, b):
        return a / b if b else 0.0

    # spans with a reparametrization among their ancestors
    in_reparam = np.zeros(len(name), bool)
    anc = parent.copy()
    while (anc >= 0).any():
        up = anc >= 0
        in_reparam[up] |= name[anc[up]] == ids.get("loops.reparam", -1)
        anc[up] = parent[anc[up]]

    speed_outer = spans("metrics.speed") & (parent_name != ids.get("metrics.speed", -1))
    descents = spans("solver.descent")
    iterations = value[descents]
    out = {
        "fourier.eval.calls": calls("fourier.eval"),
        "fourier.eval.points": int(value[spans("fourier.eval")].sum()),
        "fourier.eval.self_s": self_s("fourier.eval"),
        "fourier.grid.self_s": self_s("fourier.grid"),
        "metrics.speed.calls": calls("metrics.speed"),
        "metrics.speed.self_s": self_s("metrics.speed"),
        "metrics.grads.calls": calls("metrics.grads"),
        "metrics.grads.self_s": self_s("metrics.grads"),
        "metrics.build.self_s": self_s("metrics.build"),
        "metrics.comparison.calls": calls("metrics.comparison"),
        "loops.action.calls": calls("loops.action"),
        "loops.action.self_s": self_s("loops.action"),
        "loops.reparam.calls": calls("loops.reparam"),
        "loops.reparam.self_s": self_s("loops.reparam"),
        "loops.reparam.speed_calls_per_call": ratio(int((speed_outer & in_reparam).sum()),
                                                    calls("loops.reparam")),
        "loops.loop.constructions": int(spans("loops.loop").sum()),
        "solver.descent.calls": calls("solver.descent"),
        "solver.descent.self_s": self_s("solver.descent"),
        "solver.descent.iterations": int(iterations.sum()),
        "solver.descent.iterations_max": int(iterations.max(initial=0)),
        "solver.gradient.calls": calls("solver.gradient"),
        "solver.gradient.self_s": self_s("solver.gradient"),
        "solver.linesearch.evals_per_iter": ratio(
            int((spans("loops.action") & (parent_name == ids.get("solver.descent", -1))).sum()),
            int(iterations.sum())),
        "solver.converged_ratio": ratio(counters.get("solver.descent.converged", 0),
                                        calls("solver.descent")),
        "solver.cluster.self_s": self_s("solver.cluster"),
        "solver.distance.calls": calls("solver.distance"),
        "solver.distance.self_s": self_s("solver.distance"),
        "measures.pushforward.self_s": self_s("measures.pushforward"),
        "measures.pairing.self_s": self_s("measures.pairing"),
        "measures.consistency.self_s": self_s("measures.consistency"),
        "polytope.argmin.calls": calls("polytope.argmin"),
        "polytope.argmin.self_s": self_s("polytope.argmin"),
        "polytope.expose.self_s": self_s("polytope.expose"),
        "polytope.shrink.self_s": self_s("polytope.shrink"),
        "polytope.shrink.steps_per_call": ratio(int(value[spans("polytope.shrink")].sum()),
                                                calls("polytope.shrink")),
        "experiments.inputs.self_s": self_s("experiments.inputs"),
        "experiments.report.self_s": self_s("experiments.report"),
    }
    return out
