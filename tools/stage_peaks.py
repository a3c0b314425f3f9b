"""Peak memory of every solver stage, in n-sized arrays, from tracemalloc.

    python3 tools/stage_peaks.py --problem ex2 --family vulanovic --coarse 512 --eps 1e-4

Runs one ``twogrid.algorithm1`` (coarse N, fine n = N^2) and then one
``newton.solve`` on the fine mesh, with tracemalloc on.  The stages are the
``mesh``, ``linsolve``, ``newton`` and ``twogrid`` functions that
``perfbench/tracing.py`` spans, under the tracer's span names; the tracer
rebinds each in every spgrid module that holds it, as it does for
``tools/bitwise_digest.py``'s hooks, and restores every binding afterwards.
For each stage the tool prints its calls and, for the call with the
highest peak, the traced memory live at entry and the peak inside, both
divided by ``8 n`` bytes (one float64 array per fine interval).  A stage's
peak includes its inputs and whatever its callers hold, so it is the
process's working set at that point of the run, counted from the start of
the run.  A wrapper holds its call's arguments until the call returns, so
an array that a stage hands over and frees early stays alive here; the last
line of each run is therefore the peak of the same call run again with
nothing wrapped.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

from toolbox import ROOT, Tracer, load_spgrid, perfbench

MODULES = ("mesh", "linsolve", "newton", "twogrid")
RUNS = ("algorithm1", "solve")


class _Peaks(Tracer):
    """Per stage in MODULES: calls and the ``(entry, peak)`` bytes of its
    highest call.

    tracemalloc keeps one peak, so a stage folds the peak reached so far into
    its caller's before resetting it, and hands its own peak up on return.
    """

    def __init__(self):
        super().__init__()
        self.stages = {}
        self._frames = []

    def wrap(self, name: str, fn, counters=None):
        if name.split(".")[0] not in MODULES:
            return fn

        def staged(*args, **kwargs):
            entry, peak = tracemalloc.get_traced_memory()
            self.stages.setdefault(name, (0, (0, -1)))  # listed in call order
            if self._frames:
                self._frames[-1][1] = max(self._frames[-1][1], peak)
            frame = [entry, entry]
            self._frames.append(frame)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                frame[1] = max(frame[1], tracemalloc.get_traced_memory()[1])
                self._frames.pop()
                if self._frames:
                    self._frames[-1][1] = max(self._frames[-1][1], frame[1])
                calls, best = self.stages[name]
                self.stages[name] = (calls + 1, max(best, tuple(frame),
                                                    key=lambda f: f[1]))

        return staged


def stage_peaks(sp, problem: str, family: str, eps: float, coarse: int) -> dict:
    """``{run: {stage: (calls, entry, peak)}}`` in n-sized arrays, for both RUNS,
    and ``{"unwrapped": {run: peak}}``, each run's peak with nothing wrapped."""
    prob = sp.problems.make_problem(problem, eps)
    a = perfbench("workloads").grading(problem, family)  # the benchmark's grading
    spec = sp.mesh.MeshSpec(family, eps, coarse, a=a)
    plan = sp.twogrid.TwoGridPlan(coarse=spec)
    [n] = plan.fine_sizes()
    fine_mesh = sp.mesh.build_mesh(replace(spec, n=n))
    runs = {"algorithm1": lambda: sp.twogrid.algorithm1(prob, plan),
            "solve": lambda: sp.newton.solve(fine_mesh, prob)}
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    out = {"unwrapped": {}}
    try:
        for run in RUNS:
            peaks = _Peaks()
            peaks.install(sp)
            try:
                tracemalloc.clear_traces()
                runs[run]()
            finally:
                peaks.uninstall()
            out[run] = {name: (calls, entry / (8 * n), peak / (8 * n))
                        for name, (calls, (entry, peak)) in peaks.stages.items()}
            tracemalloc.clear_traces()
            runs[run]()
            out["unwrapped"][run] = tracemalloc.get_traced_memory()[1] / (8 * n)
    finally:
        if started:
            tracemalloc.stop()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree holding the spgrid package (default: this checkout's)")
    parser.add_argument("--problem", default="ex2", choices=("ex1", "ex2"))
    parser.add_argument("--family", default="vulanovic")
    parser.add_argument("--eps", type=float, default=1e-4)
    parser.add_argument("--coarse", type=int, default=512,
                        help="coarse intervals N; the fine mesh has N^2")
    args = parser.parse_args(argv)
    sp = load_spgrid(args.src)
    result = stage_peaks(sp, args.problem, args.family, args.eps, args.coarse)
    print(f"{args.problem} {args.family} eps={args.eps!r} N={args.coarse} "
          f"n={args.coarse ** 2}; memory in arrays of 8n bytes")
    for run in RUNS:
        print(f"{run}:")
        print(f"  {'stage':<28}{'calls':>6}{'entry':>8}{'peak':>8}")
        for name, (calls, entry, peak) in result[run].items():
            print(f"  {name:<28}{calls:>6}{entry:>8.2f}{peak:>8.2f}")
        print(f"  {'(nothing wrapped)':<42}{result['unwrapped'][run]:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
