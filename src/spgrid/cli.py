"""Command-line interface.

Subcommands: ``solve`` (one problem instance), ``table`` (convergence
sweep), ``layers`` (layer-point percentages), ``bench`` (direct vs
two-grid timing).  Exit codes: 0 success; 2 a validation error, a repeated
``table`` sweep value too; 3 a solver failure (``bench.SOLVER_ERRORS``, a
Jacobian or diffusion failure too) in a solve or in any cell of a table;
141 once the reader closes stdout: the rest is dropped, with no traceback.
A command yields once planned: a ``ValueError`` until then is bad input
(exit 2), and one raised by a run is a defect that propagates.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Iterator

from .bench import (ALGORITHMS, FORMATS, METRICS, SOLVER_ERRORS, ReportConfig,
                    fmt_float, layer_report, make_plan, nodal_error, render_layer_rows,
                    run_report, timing_rows)
from .mesh import FAMILIES, LAYER_SIDES, MeshSpec
from .newton import residual_for
from .problems import PROBLEMS, make_problem
from .twogrid import TwoGridPlan, algorithm2

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_BROKEN_PIPE = 141  # as a shell reports a writer that SIGPIPE ended


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _add_mesh_args(p: argparse.ArgumentParser, what: str = "mesh family") -> None:
    p.add_argument("--mesh", default="shishkin", help=f"{what}: {'|'.join(FAMILIES)}")
    p.add_argument("--a", type=float, default=MeshSpec.a, help="grading strength (B/V)")
    p.add_argument("--q", type=float, default=MeshSpec.q, help="layer point fraction (B/V)")
    p.add_argument("--gamma0", type=float, default=MeshSpec.gamma0,
                   help="Shishkin transition scaling")
    p.add_argument("--layer-sides", default=MeshSpec.layer_sides, choices=LAYER_SIDES)


def _grading(args) -> dict:  # the MeshSpec fields of _add_mesh_args' flags but family
    return dict(a=args.a, q=args.q, gamma0=args.gamma0, layer_sides=args.layer_sides)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: a prefix such as --r must not stand for
    # --repeats in bench while it is the fine-size exponent in solve and table
    parser = argparse.ArgumentParser(
        prog="spgrid", allow_abbrev=False,
        description="Layer-adapted finite differences and two-grid solvers "
                    "for singularly perturbed reaction-diffusion problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(run=run, subparser=p)  # main reports leftovers with p's usage
        return p

    ps = command("solve", _cmd_solve, "solve one problem instance")
    ps.add_argument("--problem", required=True, choices=tuple(PROBLEMS))
    _add_mesh_args(ps)
    ps.add_argument("--eps", type=float, required=True)
    ps.add_argument("--n", type=int, help="interval count (direct) or fine size (tg1)")
    ps.add_argument("--algorithm", default=ReportConfig.algorithm, choices=ALGORITHMS)
    ps.add_argument("--coarse", type=int, help="coarse interval count (two-grid)")
    ps.add_argument("--r", type=float, default=TwoGridPlan.r, help="fine-size exponent")
    ps.add_argument("--levels", type=int, default=ReportConfig.levels,
                    help="cascade levels (tg2)")
    ps.add_argument("--out", default="json", choices=("json", "nodes"))

    pt = command("table", _cmd_table, "convergence table over (eps, N) cells")
    pt.add_argument("--problem", required=True, choices=tuple(PROBLEMS))
    _add_mesh_args(pt, "mesh family or comma list")
    pt.add_argument("--eps", type=_float_list, required=True, help="comma list")
    pt.add_argument("--coarse", type=_int_list, required=True, help="comma list of N")
    pt.add_argument("--algorithm", default=ReportConfig.algorithm, choices=ALGORITHMS)
    pt.add_argument("--r", type=float, default=TwoGridPlan.r)
    pt.add_argument("--levels", type=int, default=ReportConfig.levels)
    pt.add_argument("--format", dest="fmt", default=ReportConfig.fmt, choices=FORMATS)
    pt.add_argument("--metric", default=ReportConfig.metric, choices=METRICS)

    pl = command("layers", _cmd_layers, "percent of mesh points inside the layers")
    pl.add_argument("--eps", type=float, default=2.0 ** -8)
    pl.add_argument("--coarse", type=_int_list, default=[8, 16, 32, 64])
    pl.add_argument("--fine", type=_int_list, default=[64, 256, 1024, 4096])
    pl.add_argument("--a", type=float, default=MeshSpec.a)
    pl.add_argument("--a-bakhvalov", type=float, default=4.0,
                    help="grading strength for the Bakhvalov rows (the "
                         "reference table uses 4 there and 1 elsewhere)")
    pl.add_argument("--q", type=float, default=MeshSpec.q)
    pl.add_argument("--gamma0", type=float, default=MeshSpec.gamma0)

    pb = command("bench", _cmd_bench, "direct vs two-grid timing on n = N^2")
    pb.add_argument("--problem", required=True, choices=tuple(PROBLEMS))
    _add_mesh_args(pb)
    pb.add_argument("--eps", type=float, required=True)
    pb.add_argument("--coarse", type=_int_list, required=True)
    pb.add_argument("--repeats", type=int, default=3)
    return parser


def _cmd_solve(args) -> Iterator[int | None]:
    problem = make_problem(args.problem, args.eps)
    plan = make_plan(args.algorithm, args.coarse, args.n, args.r, args.levels,
                     family=args.mesh, eps=args.eps, **_grading(args))
    yield
    result = algorithm2(problem, plan)
    meshes, outs = [result.coarse_mesh, *result.fine_meshes], [result.coarse, *result.fine]
    mesh, out = meshes[-1], outs[-1]
    error = None if problem.exact is None else nodal_error(mesh, out.y, problem.exact)
    if args.out == "nodes":
        for x, v in zip(mesh.nodes, out.y):
            print(f"{x:.17g} {v:.17g}")
        yield EXIT_OK
        return
    spec = plan.coarse
    payload = {
        "problem": args.problem,
        "algorithm": args.algorithm,
        "mesh": {"family": spec.family, "n": mesh.n, "eps": spec.eps, "a": spec.a,
                 "q": spec.q, "gamma0": spec.gamma0, "degenerate": mesh.degenerate},
        "iterations": out.iterations,
        "final_update": out.final_update,
        "residual_norm": float(abs(residual_for(mesh, problem, out.y)).max()),
        "seconds": sum(result.step_seconds),
        "nodal_error": error,
        "levels": [{"n": m.n, "iterations": o.iterations, "final_update": o.final_update,
                    "update_history": o.update_history, "seconds": s}
                   for m, o, s in zip(meshes, outs, result.step_seconds, strict=True)],
        "nodes": mesh.nodes.tolist(),
        "values": out.y.tolist(),
    }
    print(json.dumps(payload))
    yield EXIT_OK


def _cmd_table(args) -> Iterator[int | None]:
    cfg = ReportConfig(problem=args.problem, families=args.mesh.split(","),
                       eps_list=args.eps, n_list=args.coarse,
                       algorithm=args.algorithm, r=args.r, levels=args.levels,
                       fmt=args.fmt, metric=args.metric, **_grading(args))
    yield
    report = run_report(cfg)
    print(report.render(), end="")
    for row in report.rows:  # the CSV has no column for either
        if row.failed is not None:
            print(f"error: {row.mesh} eps={row.eps:g} N={row.N}: {row.failed}",
                  file=sys.stderr)
        elif row.degenerate and row.step == 1:
            print(f"warning: {row.mesh} eps={row.eps:g} N={row.N}: "
                  "the mesh fell back to uniform", file=sys.stderr)
    yield EXIT_NO_CONVERGENCE if report.failed_cells() else EXIT_OK


def _cmd_layers(args) -> Iterator[int | None]:
    a = {"bakhvalov": args.a_bakhvalov, "vulanovic": args.a, "shishkin": args.a}
    rows = layer_report(args.eps, ("shishkin", "vulanovic", "bakhvalov"),
                        args.coarse, args.fine, a=a, q=args.q, gamma0=args.gamma0)
    yield  # no solve runs: the mesh builds count as planning
    print(render_layer_rows(rows), end="")
    yield EXIT_OK


def _cmd_bench(args) -> Iterator[int | None]:
    rows = timing_rows(args.problem, args.coarse, args.repeats, family=args.mesh,
                       eps=args.eps, **_grading(args))
    yield
    rows = list(rows)  # every row timed before any is printed
    print("N,n,direct_seconds,twogrid_seconds,ratio")
    for row in rows:
        print(f"{row.N},{row.n},{fmt_float(row.direct_seconds)},"
              f"{fmt_float(row.twogrid_seconds)},{fmt_float(row.ratio)}")
    yield EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # a subcommand hands its leftovers up: report them with its usage
            args.subparser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    steps = args.run(args)
    planning = True
    try:
        next(steps)  # the command plans, then yields
        planning = False
        code = next(steps)  # ... and runs, then yields its exit code
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
        return code
    except SOLVER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ValueError as exc:
        if not planning:  # a run's ValueError is a defect, not bad input
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BrokenPipeError:  # drop what nobody reads, so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
