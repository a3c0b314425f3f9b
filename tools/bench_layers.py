"""Per-layer and end-to-end seconds of the solver stack, written to BENCH_<label>.json.

    python3 tools/bench_layers.py --label pr32
    python3 tools/bench_layers.py --label pr32 --parent /path/to/parent/checkout

This checkout's ``src/spgrid`` is the side ``change``.  ``--parent`` loads a
second checkout's beside it, in the same interpreter, and every timed item
then runs on both sides back to back, the side that goes first drawn from a
seed fixed by ``--label``: drift that separates two runs cancels in the ratio.

Two cases, at eps = 1e-4: ex1 on Bakhvalov (a = 4) and ex2 on one-sided
Vulanovic (a = 2), each at n = 2^12, 2^16 and 2^20.  Per case, size and side
the record holds the best of ``--repeat`` runs of

* the layers of one direct solve, from the spans of perfbench's own
  ``tracing.Tracer`` (the wrappers of perfbench's ``--trace 1``): ``mesh``
  (the top-level ``build_mesh``), ``start`` (the solve's time before its
  first own Newton step: source, couplings and the reduced or nested start),
  and per own step one call each of ``residual``, ``jacobian`` and ``solve``
  (``thomas_solve``), not those of a nested start's steps; ``interpolation``
  is the tg1 run's ``interpolant_slopes`` onto the mesh;
* untraced end-to-end seconds: ``direct`` (mesh and solve), ``tg1`` (from N
  = n^(1/2)) and ``tg2`` (from N = n^(1/4), two levels).

Then every cell of perfbench's ``direct``, ``twogrid`` and ``table``
workloads runs once per round, ``--repeat`` rounds, in a seeded order, each
answer checked against ``perfbench/reference.json``.  Per workload and side
the record holds the raw op seconds, with their p50 and p90.  With two sides
it adds the ratios change/parent of every case's best values, the quartiles
of every workload's per-op ratios, and per workload the largest gap between
the two sides' solutions, relative to ``max(1, |y|_inf)`` of the parent's:
over the Newton-converged levels (the direct solve, the two-grid coarse
level) and over the one-step fine levels.  perfbench's calibration samples,
taken between the cases and after each round, and each side's provenance
complete it; one-sided files compare only where those samples agree.
Bad arguments stop the tool before it loads or measures anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np

from toolbox import ROOT, load_spgrid, run as perfbench_run, tracing, workloads as wl

EPS = 1e-4
CASES = ({"problem": "ex1", "family": "bakhvalov", "a": 4.0, "layer_sides": "both"},
         {"problem": "ex2", "family": "vulanovic", "a": 2.0, "layer_sides": "left"})
SIZES = (2 ** 12, 2 ** 16, 2 ** 20)
LAYERS = ("mesh", "start", "residual", "jacobian", "solve", "interpolation")
RUNS = ("direct", "tg1", "tg2")


def _root(n: int, power: int) -> int:
    N = round(max(n, 1) ** (1.0 / power))
    if N < 2 or N ** power != n:  # a mesh has at least 2 intervals
        raise ValueError(f"size {n} is not the {power}th power of an integer above 1")
    return N


def traced_layers(sp, problem, spec) -> dict:
    """Seconds per layer of one traced direct solve and tg1 run on ``spec.n``,
    read from the tracer's ``(name, start, end, parent, op)`` spans."""
    tracer = tracing.Tracer()
    tracer.install(sp)
    try:
        sp.newton.solve(sp.mesh.build_mesh(spec), problem)
        sp.twogrid.algorithm1(problem, sp.twogrid.TwoGridPlan(
            coarse=replace(spec, n=_root(spec.n, 2))))
    finally:
        tracer.uninstall()
    spans, children = tracer.spans, defaultdict(list)
    for index, (name, _, _, parent, _) in enumerate(spans):
        children[parent, name].append(index)
    [mesh], [solve], [tg1] = (children[-1, name] for name in
                              ("mesh.build_mesh", "newton.solve", "twogrid.algorithm"))
    steps = children[solve, "newton.newton_step"]  # a nested start's sit one level deeper

    def seconds(indices):
        return [spans[i][2] - spans[i][1] for i in indices]

    out = {"mesh": seconds([mesh]), "start": [spans[steps[0]][1] - spans[solve][1]],
           "interpolation": seconds(children[tg1, "twogrid.interpolant_slopes"])}
    for layer, name in (("residual", "newton.residual"), ("jacobian", "newton.jacobian"),
                        ("solve", "linsolve.thomas_solve")):
        out[layer] = seconds([i for step in steps for i in children[step, name]])
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
        out[name] = [time.perf_counter() - start]
    return out


def each_side(sides: dict, rng) -> list:
    """``(side, package)`` of every side, in an order drawn from ``rng``."""
    return [(side, sides[side]) for side in rng.sample(list(sides), len(sides))]


def _inputs(sp, case: dict, n: int) -> tuple:
    return (sp.problems.make_problem(case["problem"], EPS),
            sp.mesh.MeshSpec(case["family"], EPS, n, a=case["a"],
                             layer_sides=case["layer_sides"]))


def measure_case(sides: dict, case: dict, n: int, repeat: int, rng, calibration: list) -> dict:
    """Best and raw seconds of every layer and run of one case on every side,
    after one untimed call of each; a calibration sample after them."""
    samples = {side: {name: [] for name in LAYERS + RUNS} for side in sides}
    for run in (traced_layers, end_to_end):  # first-call costs land outside the samples
        for sp in sides.values():
            run(sp, *_inputs(sp, case, n))
    for _ in range(repeat):
        for run in (traced_layers, end_to_end):
            for side, sp in each_side(sides, rng):
                for name, seconds in run(sp, *_inputs(sp, case, n)).items():
                    samples[side][name].extend(seconds)
    out = {**case, "eps": EPS, "n": n}
    for side, sp in sides.items():
        prob, spec = _inputs(sp, case, n)
        out[side] = {"iterations": sp.newton.solve(sp.mesh.build_mesh(spec), prob).iterations,
                     "layers_s": {k: min(samples[side][k]) for k in LAYERS},
                     "end_to_end_s": {k: min(samples[side][k]) for k in RUNS},
                     "samples_s": samples[side]}
    if len(sides) == 2:
        parent, change = ({**out[s]["layers_s"], **out[s]["end_to_end_s"]}
                          for s in ("parent", "change"))
        out["ratio"] = {k: change[k] / parent[k] for k in LAYERS + RUNS}
    calibration.append(perfbench_run.calibrate())
    return out


def timed_op(sp, op, reference) -> tuple:
    """Seconds of one ``workloads.run`` and its solutions, one per level (none
    for a table op); the answer is checked untimed."""
    start = time.perf_counter()
    raw = wl.run(sp, op)
    seconds = time.perf_counter() - start
    wl.check(op, wl.answer_rows(sp, op, raw), reference)
    return seconds, [] if op.workload == "table" else [out.y for out in raw[2]]


def level_gaps(parent: list, change: list) -> list:
    """``max|y_parent - y_change| / max(1, |y_parent|_inf)`` per level."""
    return [float(np.max(np.abs(p - c)) / max(1.0, np.max(np.abs(p))))
            for p, c in zip(parent, change, strict=True)]


def sweep(sides: dict, workload: str, rounds: int, rng, calibration: list) -> dict:
    """Every cell of ``workload`` once per round, on every side back to back."""
    reference = wl.load_reference()
    cells = wl.cells(workload)
    for sp in sides.values():  # first-call costs land outside the timing
        timed_op(sp, cells[0], reference)
    seconds = {side: [] for side in sides}
    gaps = {"converged": [], "one_step": []}  # level 0 is Newton-converged
    for _ in range(rounds):
        for op in rng.sample(cells, len(cells)):
            ys = {}
            for side, sp in each_side(sides, rng):
                op_s, ys[side] = timed_op(sp, op, reference)
                seconds[side].append(op_s)
            if len(ys) == 2 and ys["parent"]:
                first, *rest = level_gaps(ys["parent"], ys["change"])
                gaps["converged"].append(first)
                gaps["one_step"].extend(rest)
        calibration.append(perfbench_run.calibrate())
    out = {"ops": len(cells) * rounds}
    for side, values in seconds.items():
        out[side] = {"p50_s": float(np.quantile(values, 0.5)),
                     "p90_s": float(np.quantile(values, 0.9)), "samples_s": values}
    if len(sides) == 2:
        ratio = np.divide(seconds["change"], seconds["parent"])
        out["ratio_p25"], out["ratio_p50"], out["ratio_p75"] = (
            float(q) for q in np.quantile(ratio, [0.25, 0.5, 0.75]))
        for kind, values in gaps.items():
            out[f"gap_{kind}"] = max(values, default=None)
    return out


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


def measure(sides: dict, sizes, repeat: int, rng) -> dict:
    perfbench_run.calibrate()  # the first call runs cold
    calibration = [perfbench_run.calibrate() for _ in range(3)]
    cases = [measure_case(sides, case, n, repeat, rng, calibration)
             for case in CASES for n in sizes]
    workloads = {w: sweep(sides, w, repeat, rng, calibration) for w in wl.WORKLOADS}
    return {"cases": cases, "workloads": workloads, "calibration_s": calibration}


def report(record: dict) -> None:
    """A line per case and side and per workload and side; then the ratios and,
    where a workload's ops hold solutions, their largest gap."""
    for case in record["cases"]:
        name = f"{case['problem']} {case['family']} n={case['n']}"
        for side in record["provenance"]:
            best = {**case[side]["layers_s"], **case[side]["end_to_end_s"]}
            print(f"{side} {name} it={case[side]['iterations']} ms: "
                  + " ".join(f"{k}={1e3 * v:.3f}" for k, v in best.items()))
        if "ratio" in case:
            print(f"ratio {name}: " + " ".join(f"{k}={v:.3f}" for k, v in case["ratio"].items()))
    for workload, w in record["workloads"].items():
        for side in record["provenance"]:
            print(f"{side} {workload}: {w['ops']} ops, p50 {1e3 * w[side]['p50_s']:.3f} ms, "
                  f"p90 {1e3 * w[side]['p90_s']:.3f} ms")
        if "ratio_p50" in w:
            print(f"ratio {workload}: median {w['ratio_p50']:.3f} (quartiles "
                  f"{w['ratio_p25']:.3f}, {w['ratio_p75']:.3f})")
        if w.get("gap_converged") is not None:  # a table op holds no solution
            converged, one_step = (f"{g:.1e}" if g is not None else "none"
                                   for g in (w["gap_converged"], w["gap_one_step"]))
            print(f"largest solution gap / max(1, |y|_inf): converged {converged}, "
                  f"one-step fine {one_step}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True,
                        help="the file is BENCH_<label>.json; it also seeds the order")
    parser.add_argument("--parent", type=Path,
                        help="checkout whose src/spgrid runs beside this one's")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory to write to")
    parser.add_argument("--repeat", type=int, default=5,
                        help="runs per best value, and rounds of every workload")
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)),
                        help="comma list of n, each a 4th power of N >= 2 (tg2 starts at N)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
        for n in sizes:
            _root(n, 4)
    except ValueError as err:
        parser.error(f"--sizes: {err}")
    path = args.out / f"BENCH_{args.label}.json"
    if not path.parent.is_dir():  # checked before minutes of runs, not after
        parser.error(f"cannot write {path}: no directory {path.parent}")
    trees = {"parent": args.parent, "change": ROOT} if args.parent else {"change": ROOT}
    trees = {side: tree / "src" for side, tree in trees.items()}
    try:
        sides = {side: load_spgrid(src, f"spgrid_{side}") for side, src in trees.items()}
    except FileNotFoundError as err:
        parser.error(str(err))
    record = {"label": args.label, "repeat": args.repeat,
              "provenance": {side: provenance(sides[side], src) for side, src in trees.items()}}
    record.update(measure(sides, sizes, args.repeat, random.Random(f"bench:{args.label}")))
    record["calibration_ref_s"] = perfbench_run.CAL_REF_S
    path.write_text(json.dumps(record, indent=1) + "\n")
    report(record)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
