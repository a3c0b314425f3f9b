"""Command-line interface.

Subcommands: ``solve`` (one problem instance), ``table`` (convergence
sweep), ``layers`` (layer-point percentages), ``bench`` (direct vs
two-grid timing).  Exit codes: 0 success, 2 validation error, 3 solver
non-convergence in any cell.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bench import (ALGORITHMS, FORMATS, METRICS, ReportConfig, fmt_float,
                    layer_report, make_plan, nodal_error, render_layer_rows,
                    run_algorithm, run_report, timing_comparison)
from .mesh import MeshSpec
from .newton import NoConvergenceError
from .problems import PROBLEMS, make_problem

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _add_mesh_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mesh", default="shishkin",
                   help="mesh family or comma list: uniform|shishkin|bakhvalov|vulanovic")
    p.add_argument("--a", type=float, default=1.0, help="grading strength (B/V)")
    p.add_argument("--q", type=float, default=0.4, help="layer point fraction (B/V)")
    p.add_argument("--gamma0", type=float, default=1.0,
                   help="Shishkin transition scaling")
    p.add_argument("--layer-sides", default="both", choices=("both", "left"))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spgrid",
        description="Layer-adapted finite differences and two-grid solvers "
                    "for singularly perturbed reaction-diffusion problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one problem instance")
    ps.add_argument("--problem", required=True, choices=tuple(PROBLEMS))
    _add_mesh_args(ps)
    ps.add_argument("--eps", type=float, required=True)
    ps.add_argument("--n", type=int, help="interval count (direct) or fine size (tg1)")
    ps.add_argument("--algorithm", default="direct", choices=ALGORITHMS)
    ps.add_argument("--coarse", type=int, help="coarse interval count (two-grid)")
    ps.add_argument("--r", type=float, default=2.0, help="fine-size exponent")
    ps.add_argument("--levels", type=int, default=2, help="cascade levels (tg2)")
    ps.add_argument("--out", default="json", choices=("json", "nodes"))

    pt = sub.add_parser("table", help="convergence table over (eps, N) cells")
    pt.add_argument("--problem", required=True, choices=tuple(PROBLEMS))
    _add_mesh_args(pt)
    pt.add_argument("--eps", type=_float_list, required=True, help="comma list")
    pt.add_argument("--coarse", type=_int_list, required=True, help="comma list of N")
    pt.add_argument("--algorithm", default="direct", choices=ALGORITHMS)
    pt.add_argument("--r", type=float, default=2.0)
    pt.add_argument("--levels", type=int, default=2)
    pt.add_argument("--format", dest="fmt", default="markdown", choices=FORMATS)
    pt.add_argument("--metric", default="nodal", choices=METRICS)

    pl = sub.add_parser("layers", help="percent of mesh points inside the layers")
    pl.add_argument("--eps", type=float, default=2.0 ** -8)
    pl.add_argument("--coarse", type=_int_list, default=[8, 16, 32, 64])
    pl.add_argument("--fine", type=_int_list, default=[64, 256, 1024, 4096])
    pl.add_argument("--a", type=float, default=1.0)
    pl.add_argument("--a-bakhvalov", type=float, default=4.0,
                    help="grading strength for the Bakhvalov rows (the "
                         "reference table uses 4 there and 1 elsewhere)")
    pl.add_argument("--q", type=float, default=0.4)
    pl.add_argument("--gamma0", type=float, default=1.0)

    pb = sub.add_parser("bench", help="direct vs two-grid timing on n = N^2")
    pb.add_argument("--problem", required=True, choices=tuple(PROBLEMS))
    _add_mesh_args(pb)
    pb.add_argument("--eps", type=float, required=True)
    pb.add_argument("--coarse", type=_int_list, required=True)
    pb.add_argument("--repeats", type=int, default=3)
    return parser


def _cmd_solve(args) -> int:
    problem = make_problem(args.problem, args.eps)
    direct = args.algorithm == "direct"
    if direct and args.n is None:
        print("error: --n is required for the direct algorithm", file=sys.stderr)
        return EXIT_VALIDATION
    if not direct and args.coarse is None:
        print("error: --coarse is required for two-grid algorithms", file=sys.stderr)
        return EXIT_VALIDATION
    spec = MeshSpec(family=args.mesh, eps=args.eps,
                    n=args.n if direct else args.coarse, a=args.a, q=args.q,
                    gamma0=args.gamma0, layer_sides=args.layer_sides)
    plan = make_plan(spec, args.algorithm, args.r, args.levels,
                     None if direct else args.n)
    steps = run_algorithm(problem, args.algorithm, plan)
    mesh, out, _ = steps[-1]
    seconds = sum(step[2] for step in steps)
    error = None if problem.exact is None else nodal_error(mesh, out.y, problem.exact)
    if args.out == "nodes":
        for x, v in zip(mesh.nodes, out.y):
            print(f"{x:.17g} {v:.17g}")
        return EXIT_OK
    payload = {
        "problem": args.problem,
        "algorithm": args.algorithm,
        "mesh": {"family": args.mesh, "n": mesh.n, "eps": args.eps, "a": args.a,
                 "q": args.q, "gamma0": args.gamma0, "degenerate": mesh.degenerate},
        "iterations": out.iterations,
        "final_update": out.final_update,
        "residual_norm": out.residual_norm,
        "seconds": seconds,
        "nodal_error": error,
        "nodes": mesh.nodes.tolist(),
        "values": out.y.tolist(),
    }
    print(json.dumps(payload))
    return EXIT_OK


def _cmd_table(args) -> int:
    cfg = ReportConfig(problem=args.problem, families=args.mesh.split(","),
                       eps_list=args.eps, n_list=args.coarse,
                       algorithm=args.algorithm, r=args.r, levels=args.levels,
                       fmt=args.fmt, metric=args.metric, a=args.a, q=args.q,
                       gamma0=args.gamma0, layer_sides=args.layer_sides)
    report = run_report(cfg)
    print(report.render(), end="")
    for row in report.rows:  # the CSV has no column for the reason
        if row.failed is not None:
            print(f"error: {row.mesh} eps={row.eps:g} N={row.N}: {row.failed}",
                  file=sys.stderr)
    return EXIT_NO_CONVERGENCE if report.failed_cells() else EXIT_OK


def _cmd_layers(args) -> int:
    a = {"bakhvalov": args.a_bakhvalov, "vulanovic": args.a,
         "shishkin": args.a, "uniform": args.a}
    rows = layer_report(args.eps, ("shishkin", "vulanovic", "bakhvalov"),
                        args.coarse, args.fine, a=a, q=args.q, gamma0=args.gamma0)
    print(render_layer_rows(rows), end="")
    return EXIT_OK


def _cmd_bench(args) -> int:
    rows = timing_comparison(args.problem, args.mesh, args.eps, args.coarse,
                             a=args.a, q=args.q, gamma0=args.gamma0,
                             repeats=args.repeats, layer_sides=args.layer_sides)
    print("N,n,direct_seconds,twogrid_seconds,ratio")
    for row in rows:
        print(f"{row.N},{row.n},{fmt_float(row.direct_seconds)},"
              f"{fmt_float(row.twogrid_seconds)},{fmt_float(row.ratio)}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "layers":
            return _cmd_layers(args)
        return _cmd_bench(args)
    except NoConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
