"""Spans around the calls into each spgrid module, taken from outside.

``Tracer.install`` wraps the functions below and rebinds every name that
holds one of them, in every spgrid module: ``newton`` imports
``thomas_solve`` by name and ``twogrid``, ``bench`` and ``cli`` import
``build_mesh`` and ``newton.solve`` by name, so wrapping only the defining
module would miss most calls.  Problem callbacks are wrapped by wrapping
the factories in ``spgrid.problems.PROBLEMS``, which ``make_problem`` reads
at call time.  ``uninstall`` restores every binding.

A span is ``(name, start, end, parent, op)``; spans stay in memory until
``write`` dumps them.  Counters (work done: unknowns, nodes, callback
points, iterations) are summed per name at the same boundaries.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from collections import defaultdict

import numpy as np

# (module, function, span name, counters(args, result) -> {name: amount})
TARGETS = (
    ("mesh", "build_mesh", "mesh.build_mesh", lambda a, out: {"mesh.nodes": out.n + 1}),
    ("mesh", "bakhvalov_alpha", "mesh.bakhvalov_alpha", None),
    ("linsolve", "thomas_solve", "linsolve.thomas_solve",
     lambda a, out: {"linsolve.unknowns": len(out)}),
    ("newton", "semilinear_residual", "newton.residual", None),
    ("newton", "diffusion_residual", "newton.residual", None),
    ("newton", "semilinear_jacobian", "newton.jacobian", None),
    ("newton", "diffusion_jacobian", "newton.jacobian", None),
    ("newton", "newton_step", "newton.newton_step", None),
    ("newton", "reduced_initial", "newton.reduced_initial",
     lambda a, out: {"newton.reduced_initial.nodes": len(out) - 2}),
    ("newton", "solve", "newton.solve",
     lambda a, out: {"newton.iterations": out.iterations}),
    ("twogrid", "interpolant_slopes", "twogrid.interpolant_slopes", None),
    ("twogrid", "algorithm1", "twogrid.algorithm", lambda a, out: _twogrid_counts(out)),
    ("twogrid", "algorithm2", "twogrid.algorithm", lambda a, out: _twogrid_counts(out)),
    ("bench", "run_report", "bench.run_report",
     lambda a, out: {"bench.failed_cells": out.failed_cells()}),
    ("bench", "nodal_error", "bench.error", None),
    ("bench", "interpolant_error", "bench.error", None),
    ("cli", "main", "cli.main", None),
)
CALLBACKS = ("f", "f_u", "r", "r_u", "d", "d_u")


def _twogrid_counts(result) -> dict:
    return {"twogrid.coarse_stage.s": result.step_seconds[0],
            "twogrid.fine_stage.s": sum(result.step_seconds[1:]),
            "twogrid.fine_unknowns": sum(m.n - 1 for m in result.fine_meshes)}


class Tracer:
    """Records spans and counters while installed; one per traced pass."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.op = -1
        self._stack: list = []
        self._undo: list = []

    def wrap(self, name: str, fn, counters=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((index, name))
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if counters is not None:
                for key, amount in counters(args, out).items():
                    counts[key] += amount
            return out

        return traced

    def parent_name(self) -> str:
        """Name of the innermost open span ("" outside every span)."""
        return self._stack[-1][1] if self._stack else ""

    def _rebind(self, holder, attr: str, value) -> None:
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def install(self, sp) -> None:
        modules = [sp] + [getattr(sp, m) for m in
                          ("mesh", "problems", "linsolve", "newton", "twogrid",
                           "bench", "cli")]
        for module, func, name, counters in TARGETS:
            original = getattr(getattr(sp, module), func)
            traced = self.wrap(name, original, counters)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._rebind(holder, attr, traced)
        self._rebind(sp.bench.Report, "render",
                     self.wrap("bench.render", sp.bench.Report.render))
        factories = sp.problems.PROBLEMS
        for key, factory in list(factories.items()):
            self._undo.append((factories, key, factory))
            factories[key] = self._traced_factory(factory)

    def _traced_factory(self, factory):
        def points(args, out):
            count = max(np.size(a) for a in args)
            if self.parent_name() == "newton.reduced_initial":
                return {"problems.callback.points": count,
                        "newton.reduced_initial.points": count}
            return {"problems.callback.points": count}

        def make(eps):
            problem = factory(eps)
            wrapped = {cb: self.wrap("problems.callback", getattr(problem, cb), points)
                       for cb in CALLBACKS if hasattr(problem, cb)}
            return dataclasses.replace(problem, **wrapped)

        return make

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, value = self._undo.pop()
            if isinstance(holder, dict):
                holder[attr] = value
            else:
                setattr(holder, attr, value)

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["s"] += end - start
            rec["self_s"] += end - start - child[i]
        return out

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start", "end", "parent", "op"],
                       "spans": [[code[n], s, e, p, o] for n, s, e, p, o in self.spans]},
                      fh)
