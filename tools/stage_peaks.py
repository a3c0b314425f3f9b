"""Peak memory of every solver stage, in n-sized arrays, from tracemalloc.

    python3 tools/stage_peaks.py --problem ex2 --family vulanovic --coarse 512 --eps 1e-4

Runs one ``twogrid.algorithm1`` (coarse N, fine n = N^2) and then one
``newton.solve`` on the fine mesh, with tracemalloc on.  The stages are the
``mesh``, ``linsolve``, ``newton`` and ``twogrid`` functions that
``perfbench/tracing.py`` spans, under its span names.  A profile hook keyed
on their code objects sees every call, however it is reached: nothing is
rebound, and as it reads no ``f_locals`` (a snapshot that would keep them),
no argument lives longer than the program keeps it.  For each stage the tool
prints its calls and, for the call with the highest peak, the traced memory
live at entry and the peak inside, both divided by ``8 n`` bytes (one
float64 array per fine interval).  A stage's peak includes its inputs and
whatever its callers hold: the working set at that point of the run.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

from toolbox import ROOT, load_spgrid, profiled, tracing, workloads

MODULES = ("mesh", "linsolve", "newton", "twogrid")
RUNS = ("algorithm1", "solve")


def tg1_inputs(sp, problem: str, family: str, eps: float, coarse: int) -> tuple:
    """The problem and tg1's plan at the benchmark's grading, or ``ValueError``."""
    spec = sp.mesh.MeshSpec(family, eps, coarse, a=workloads.grading(problem, family))
    return sp.problems.make_problem(problem, eps), sp.twogrid.TwoGridPlan(coarse=spec)


def stage_peaks(sp, problem: str, family: str, eps: float, coarse: int) -> dict:
    """``{run: {stage: (calls, entry, peak)}}`` in n-sized arrays, for both RUNS:
    per stage, its calls and the memory at entry and the peak of its highest
    call.  tracemalloc keeps one peak, so at every stage call and return the
    hook hands it to every open call and resets it."""
    names = {getattr(getattr(sp, module), func).__code__: name
             for module, func, name, _ in tracing.TARGETS
             if module in MODULES}
    stages, frames = {}, []  # frames: [entry, peak] of every open stage call

    def hook(frame, event, arg):
        name = names.get(frame.f_code) if event in ("call", "return") else None
        if name is None:  # a c_call event carries the caller's frame
            return
        current, peak = tracemalloc.get_traced_memory()
        for open_call in frames:
            open_call[1] = max(open_call[1], peak)
        tracemalloc.reset_peak()
        if event == "call":
            stages.setdefault(name, (0, (0, -1)))  # listed in call order
            frames.append([current, current])
        else:
            calls, best = stages[name]
            stages[name] = (calls + 1, max(best, tuple(frames.pop()), key=lambda f: f[1]))

    prob, plan = tg1_inputs(sp, problem, family, eps, coarse)
    [n] = plan.fine_sizes()
    fine_mesh = sp.mesh.build_mesh(replace(plan.coarse, n=n))
    runs = {"algorithm1": lambda: sp.twogrid.algorithm1(prob, plan),
            "solve": lambda: sp.newton.solve(fine_mesh, prob)}
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    out = {}
    try:
        for run in RUNS:
            stages.clear()
            tracemalloc.clear_traces()
            with profiled(hook):
                runs[run]()
            out[run] = {name: (calls, entry / (8 * n), peak / (8 * n))
                        for name, (calls, (entry, peak)) in stages.items()}
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
    try:
        sp = load_spgrid(args.src)
        tg1_inputs(sp, args.problem, args.family, args.eps, args.coarse)
    except (FileNotFoundError, ValueError) as err:
        parser.error(str(err))
    result = stage_peaks(sp, args.problem, args.family, args.eps, args.coarse)
    print(f"{args.problem} {args.family} eps={args.eps!r} N={args.coarse} "
          f"n={args.coarse ** 2}; memory in arrays of 8n bytes")
    for run in RUNS:
        print(f"{run}:")
        print(f"  {'stage':<28}{'calls':>6}{'entry':>8}{'peak':>8}")
        for name, (calls, entry, peak) in result[run].items():
            print(f"  {name:<28}{calls:>6}{entry:>8.2f}{peak:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
