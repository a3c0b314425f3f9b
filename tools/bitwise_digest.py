"""sha256 digests of every array the solver stack computes, one line per case.

Run the script against two source trees and diff the outputs to check that a
change leaves every mesh, start vector, Newton iterate, two-grid interpolant
and fine-level solution bit for bit as it was:

    python3 tools/bitwise_digest.py --src /path/to/parent/src > before.txt
    python3 tools/bitwise_digest.py > after.txt
    diff before.txt after.txt

The grid is ex1, ex2 and ``log_transform(ex2)`` (from ``tests/oracles.py``) on
the uniform, Shishkin, Bakhvalov and Vulanovic meshes at eps = 1e-2, 1e-4 and
1e-6, with the benchmark's grading ``a`` (perfbench/workloads.py).  Every case
runs ``algorithm2`` on the plan of ``spgrid.bench.make_plan``: ``direct`` at n
= 64, 4096 and 65536, ``tg2`` with (N, levels) = (8, 2), (16, 2) and (256, 1),
and ``tg1_ropt`` from N = 8, whose fine mesh has round(8**r) = 61 intervals (r
itself is not digested); a tree without ``make_plan`` is a usage error.  Each
line names its case and gives, per kind, a 16-hex-digit digest over every
array of that kind in call order: ``mesh`` (nodes, steps, half_steps,
degenerate flag), ``newton`` (each Newton step's input iterate, interpolant
slopes, output iterate and update), ``interp`` (each ``interpolant_slopes``
output) and ``out`` (final y, iterations, update history and residual norm of
every level; the norm is ``newton.residual_for`` on the level's mesh, so the
tool reads no field that an outcome lacks on either tree).  A case that raises
prints its exception type and message digest.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

from toolbox import ROOT, load_spgrid, profiled, workloads

grading = workloads.grading
PROBLEMS = ("ex1", "ex2", "ex2log")
FAMILIES = ("uniform", "shishkin", "bakhvalov", "vulanovic")
EPS = (1e-2, 1e-4, 1e-6)
SOLVE_N = (64, 4096, 65536)
CASCADES = ((8, 2), (16, 2), (256, 1))
KINDS = ("mesh", "newton", "interp", "out")
PLANS = {"solve": "direct", "algorithm2": "tg2", "tg1_ropt": "tg1_ropt"}  # case kind -> plan name


def log_transform(problem):
    """``tests/oracles.py``'s ``log_transform``; that file imports ``spgrid``
    by name, so it is imported on first use, after ``--src``'s ``spgrid`` is."""
    import oracles
    return oracles.log_transform(problem)


def cases():
    """Every case as ``(problem, family, eps, algorithm, size, levels)``."""
    for problem in PROBLEMS:
        for family in FAMILIES:
            for eps in EPS:
                for n in SOLVE_N:
                    yield problem, family, eps, "solve", n, 0
                for N, levels in CASCADES:
                    yield problem, family, eps, "algorithm2", N, levels
                yield problem, family, eps, "tg1_ropt", 8, 1


def case_key(case) -> str:
    problem, family, eps, algorithm, size, levels = case
    tail = f" levels={levels}" if algorithm == "algorithm2" else ""
    return f"{problem} {family} {eps!r} {algorithm} {size}{tail}"


class _Recorder:
    """Running sha256 per kind, fed by its profile hook on ``newton_step`` and
    ``interpolant_slopes`` while a case runs."""

    def __init__(self, sp):
        self.hashes = {kind: hashlib.sha256() for kind in KINDS}
        self.kinds = {sp.newton.newton_step.__code__: "newton",
                      sp.twogrid.interpolant_slopes.__code__: "interp"}

    def profile(self, frame, event, arg) -> None:
        """Hashes a step's input iterate and slopes, and what a step or a transfer returns."""
        kind = self.kinds.get(frame.f_code)  # a c_call event carries the caller's
        if kind == "newton" and event == "call":
            self.add(kind, frame.f_locals["y"], frame.f_locals["slopes"])
        elif kind and event == "return" and arg is not None:  # None: the call raised
            self.add(kind, *arg)

    def add(self, kind: str, *items) -> None:
        h = self.hashes[kind]
        for item in items:
            if isinstance(item, np.ndarray):
                h.update(f"{item.dtype}{item.shape}".encode())
                h.update(np.ascontiguousarray(item).tobytes())
            else:
                h.update(repr(item).encode())

    def add_mesh(self, mesh) -> None:
        self.add("mesh", mesh.nodes, mesh.steps, mesh.half_steps, mesh.degenerate)

    def add_outcome(self, sp, mesh, problem, out) -> None:
        norm = float(np.abs(sp.newton.residual_for(mesh, problem, out.y)).max())
        self.add("out", out.y, out.iterations, list(out.update_history), norm)

    def line(self) -> str:
        return " ".join(f"{k}={self.hashes[k].hexdigest()[:16]}" for k in KINDS)


def digest_case(sp, case) -> str:
    """One output line: the case key and a digest per kind (or the error)."""
    problem, family, eps, algorithm, size, levels = case
    recorder = _Recorder(sp)
    try:
        prob = sp.problems.make_problem(problem[:3], eps)
        if problem == "ex2log":
            prob = log_transform(prob)
        plan = sp.bench.make_plan(PLANS[algorithm], size, levels=levels, family=family,
                                  eps=eps, a=grading(problem[:3], family))
        with profiled(recorder.profile):
            result = sp.twogrid.algorithm2(prob, plan)
            meshes = (result.coarse_mesh, *result.fine_meshes)
            for mesh in meshes:
                recorder.add_mesh(mesh)
            for mesh, out in zip(meshes, (result.coarse, *result.fine)):
                recorder.add_outcome(sp, mesh, prob, out)
    except Exception as err:  # a case that fails must fail alike on both sides
        message = hashlib.sha256(str(err).encode()).hexdigest()[:16]
        return f"{case_key(case)} error={type(err).__name__}:{message}"
    return f"{case_key(case)} {recorder.line()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree holding the spgrid package (default: this checkout's)")
    args = parser.parse_args(argv)
    try:
        sp = load_spgrid(args.src)
    except FileNotFoundError as err:
        parser.error(str(err))
    if not hasattr(sp.bench, "make_plan"):
        parser.error(f"{args.src} has no spgrid.bench.make_plan to plan the cases")
    for case in cases():
        print(digest_case(sp, case), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
