"""Per-layer and end-to-end seconds of the solver stack, written to BENCH_<label>.json.

    python3 tools/bench_layers.py --label pr31
    python3 tools/bench_layers.py --label parent --src /path/to/parent/src

Two cases, at eps = 1e-4: ex1 on Bakhvalov (a = 4) and ex2 on one-sided
Vulanovic (a = 2), each at n = 2^12, 2^16 and 2^20.  Per case and size the
record holds the best of ``--repeat`` runs of

* the layers of one direct solve, from spans that perfbench's tracer takes
  on the size-n mesh: ``mesh`` (``build_mesh``), ``start`` (the solve's time
  before its first Newton step on that mesh: source, couplings and the
  reduced or nested start), and one call each of ``residual``, ``jacobian``
  and ``solve`` (``thomas_solve``); ``interpolation`` is the tg1 run's
  ``interpolant_slopes`` onto the mesh;
* untraced end-to-end seconds: ``direct`` (mesh and solve), ``tg1`` (from N
  = n^(1/2)) and ``tg2`` (from N = n^(1/4), two levels).

It also holds the best total of a fixed ``table`` sweep (perfbench's csv
table cells for all three eps: 216 cells, answers checked), the samples of
perfbench's calibration kernel, taken between the cases, every raw sample
behind a best value, and the provenance.  Only same-file ratios, or ratios
of two files whose calibration samples agree, carry weight.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from toolbox import ROOT, Tracer, import_spgrid, perfbench

EPS = 1e-4
CASES = (("ex1", "bakhvalov", 4.0, "both"), ("ex2", "vulanovic", 2.0, "left"))
SIZES = (2 ** 12, 2 ** 16, 2 ** 20)
LAYERS = ("mesh", "start", "residual", "jacobian", "solve", "interpolation")
RUNS = ("direct", "tg1", "tg2")
# span name -> (layer, size of the mesh the call works on, from its arguments)
SPANS = {
    "mesh.build_mesh": ("mesh", lambda a: a[0].n),
    "newton.solve": ("solve_call", lambda a: a[0].n),
    "newton.newton_step": ("step", lambda a: a[0].n),
    "newton.residual": ("residual", lambda a: a[0].n),
    "newton.jacobian": ("jacobian", lambda a: a[0].n),
    "linsolve.thomas_solve": ("solve", lambda a: len(a[1]) + 1),
    "twogrid.interpolant_slopes": ("interpolation", lambda a: a[2].n),
}
wl = perfbench("workloads")


class _Spans(Tracer):
    """``(layer, n, start, end)`` of every call named in SPANS."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def wrap(self, name: str, fn, counters=None):
        if name not in SPANS:
            return fn
        layer, size = SPANS[name]

        def timed(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            self.calls.append((layer, size(args), start, time.perf_counter()))
            return out

        return timed


def calibrate() -> float:
    """perfbench's calibration kernel (it loads ``workloads`` by name)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return perfbench("run").calibrate()
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def _root(n: int, power: int) -> int:
    N = round(n ** (1.0 / power))
    if N ** power != n:
        raise ValueError(f"size {n} is not a {power}th power")
    return N


def traced_layers(sp, problem, spec) -> dict:
    """Seconds per layer of one traced direct solve and tg1 run on ``spec.n``."""
    n, tracer = spec.n, _Spans()
    tracer.install(sp)
    try:
        sp.newton.solve(sp.mesh.build_mesh(spec), problem)
        tg1_from = time.perf_counter()
        sp.twogrid.algorithm1(problem, sp.twogrid.TwoGridPlan(
            coarse=replace(spec, n=_root(n, 2))))
    finally:
        tracer.uninstall()
    fine = [c for c in tracer.calls if c[1] == n]
    [solve] = [c for c in fine if c[0] == "solve_call" and c[3] < tg1_from]
    inside = [c for c in fine if solve[2] <= c[2] and c[3] <= solve[3]]
    first_step = min(c[2] for c in inside if c[0] == "step")
    out = {"mesh": [c[3] - c[2] for c in fine if c[0] == "mesh" and c[3] < tg1_from],
           "start": [first_step - solve[2]],
           "interpolation": [c[3] - c[2] for c in fine
                             if c[0] == "interpolation" and c[2] >= tg1_from]}
    for layer in ("residual", "jacobian", "solve"):
        out[layer] = [c[3] - c[2] for c in inside if c[0] == layer]
    return out


def end_to_end(sp, problem, spec) -> dict:
    """Untraced seconds of the direct solve, tg1 and tg2 onto ``spec.n``."""
    tg = sp.twogrid
    runs = {
        "direct": lambda: sp.newton.solve(sp.mesh.build_mesh(spec), problem),
        "tg1": lambda: tg.algorithm1(problem, tg.TwoGridPlan(
            coarse=replace(spec, n=_root(spec.n, 2)))),
        "tg2": lambda: tg.algorithm2(problem, tg.TwoGridPlan(
            coarse=replace(spec, n=_root(spec.n, 4)), cascade_levels=2)),
    }
    out = {}
    for name, run in runs.items():
        start = time.perf_counter()
        run()
        out[name] = time.perf_counter() - start
    return out


def table_sweep(sp, reference) -> float:
    """Seconds of perfbench's csv table cells over all three eps, checked."""
    ops = [op for op in wl.cells("table") if op.eps == wl.EPS and op.fmt == "csv"]
    start = time.perf_counter()
    raws = [wl.run(sp, op) for op in ops]
    seconds = time.perf_counter() - start
    for op, raw in zip(ops, raws):
        wl.check(op, wl.answer_rows(sp, op, raw), reference)
    return seconds


def provenance(sp, src: Path) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(src.resolve().parent.parent))

    def git(*args):
        try:
            done = subprocess.run(["git", "-C", str(src), *args], env=env, timeout=30,
                                  capture_output=True, text=True)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (ValueError, OSError):
        glibc = None
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "glibc": glibc,
            "dgtsv": sp.linsolve.lapack_dgtsv() is not None,
            "git_sha": sha,
            "git_dirty": None if sha is None else bool(git("status", "--porcelain", "."))}


def measure(sp, sizes, repeat: int) -> dict:
    reference = wl.load_reference()
    calibrate()  # the first call runs cold
    calibration = [calibrate() for _ in range(3)]
    cases = []
    for problem_name, family, a, sides in CASES:
        problem = sp.problems.make_problem(problem_name, EPS)
        for n in sizes:
            spec = sp.mesh.MeshSpec(family, EPS, n, a=a, layer_sides=sides)
            samples = {name: [] for name in LAYERS + RUNS}
            for _ in range(repeat):
                for name, seconds in traced_layers(sp, problem, spec).items():
                    samples[name].extend(seconds)
                for name, seconds in end_to_end(sp, problem, spec).items():
                    samples[name].append(seconds)
            iterations = sp.newton.solve(sp.mesh.build_mesh(spec), problem).iterations
            cases.append({"problem": problem_name, "family": family, "a": a,
                          "layer_sides": sides, "eps": EPS, "n": n,
                          "iterations": iterations,
                          "layers_s": {k: min(samples[k], default=None) for k in LAYERS},
                          "end_to_end_s": {k: min(samples[k]) for k in RUNS},
                          "samples_s": samples})
            calibration.append(calibrate())
    table = []
    for _ in range(repeat):  # a sample after each sweep, which takes 0.1-0.2 s
        table.append(table_sweep(sp, reference))
        calibration.append(calibrate())
    return {"cases": cases, "table_s": min(table), "table_samples_s": table,
            "calibration_s": calibration}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree holding the spgrid package (default: this checkout's)")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory to write to")
    parser.add_argument("--repeat", type=int, default=5, help="runs per best value")
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)),
                        help="comma list of n, each a 4th power (tg2 starts at n^(1/4))")
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    for n in sizes:
        _root(n, 4)
    sp = import_spgrid(args.src)
    record = {"label": args.label, "repeat": args.repeat,
              "provenance": provenance(sp, args.src)}
    record.update(measure(sp, sizes, args.repeat))
    record["calibration_ref_s"] = perfbench("run").CAL_REF_S
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for case in record["cases"]:
        layers = " ".join(f"{k}={1e3 * v:.3f}" if v is not None else f"{k}=-"
                          for k, v in case["layers_s"].items())
        runs = " ".join(f"{k}={1e3 * v:.2f}" for k, v in case["end_to_end_s"].items())
        print(f"{case['problem']} {case['family']} n={case['n']} it={case['iterations']} "
              f"ms: {layers} | {runs}")
    print(f"table {1e3 * record['table_s']:.1f} ms; wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
