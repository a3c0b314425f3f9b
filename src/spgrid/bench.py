"""Error metrics, convergence tables, timing comparisons and rendering.

A report sweeps (mesh family, eps, N) cells, runs the requested algorithm
per cell, and records one row per computational step: the coarse
nonlinear solve is step 1, the first fine linearized solve step 2, a
second cascade level step 3, and so on.  Observed convergence orders
``(ln E_N - ln E_2N) / ln 2`` are attached per step wherever the sweep
contains the doubled coarse size; the finest row of each group has none.

Solver errors in a cell, and a plan over the interval budget, are captured
into the row instead of aborting the sweep, so one diverging cell cannot
take down a table.  Invalid parameters raise when the config is built; any
other exception is a defect and propagates.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .linsolve import ZeroPivotError
from .mesh import Mesh, MeshSpec, NoRootError, build_mesh, layer_fraction
from .newton import NoConvergenceError
from .problems import make_problem
from .twogrid import TwoGridPlan, _run, algorithm1, algorithm2, choose_r

ALGORITHMS = ("direct", "tg1", "tg2", "tg1_ropt")
FORMATS = ("markdown", "csv", "json")
METRICS = ("nodal", "interpolant")

CSV_HEADER = "problem,mesh,a,q,gamma0,eps,N,n,step,error,order,iterations,seconds"


class MissingExactError(ValueError):
    """Error metric requested for a problem without a closed-form solution."""


class DegenerateError(ValueError):
    """Convergence order undefined because an error is exactly zero."""


def nodal_error(mesh: Mesh, y: np.ndarray, exact: Callable | None) -> float:
    """Discrete maximum-norm error ``max_i |exact(x_i) - y_i|``."""
    if exact is None:
        raise MissingExactError("problem has no exact solution")
    return float(np.abs(exact(mesh.nodes) - y).max())


def interpolant_error(mesh: Mesh, y: np.ndarray, exact: Callable | None) -> float:
    """Max-norm error of the piecewise-linear interpolant, sampled per interval.

    Every mesh interval is cut into ten equal parts and sampled at their
    ends, nodes included, so the result dominates the nodal error and a
    layer interval is sampled however small eps is.
    """
    if exact is None:
        raise MissingExactError("problem has no exact solution")
    t = np.linspace(0.0, 1.0, 11)[:, None]
    x = (1.0 - t) * mesh.nodes[:-1] + t * mesh.nodes[1:]
    return float(np.abs(exact(x) - ((1.0 - t) * y[:-1] + t * y[1:])).max())


def convergence_order(error_coarse: float, error_fine: float) -> float:
    """Observed order ``(ln E_N - ln E_2N) / ln 2`` for a doubling step."""
    if error_coarse <= 0.0 or error_fine <= 0.0:
        raise DegenerateError("orders need two positive errors")
    return (math.log(error_coarse) - math.log(error_fine)) / math.log(2.0)


@dataclass
class ConvergenceRow:
    problem: str
    mesh: str
    a: float
    q: float
    gamma0: float
    eps: float
    N: int
    n: int
    step: int
    error: float | None = None
    order: float | None = None
    iterations: int | None = None
    seconds: float | None = None
    failed: str | None = None


@dataclass(frozen=True)
class ReportConfig:
    """One sweep.  ``plans`` (no field) holds each cell's :func:`make_plan`,
    built here: it, :class:`MeshSpec` and :class:`TwoGridPlan` own the checks
    of the algorithm, mesh and plan parameters, so a bad value fails before
    a cell runs."""

    problem: str
    families: Sequence[str]
    eps_list: Sequence[float]
    n_list: Sequence[int]
    algorithm: str = "direct"
    r: float = 2.0
    levels: int = 2
    fmt: str = "markdown"
    metric: str = "nodal"
    a: float = 1.0
    q: float = 0.4
    gamma0: float = 1.0
    layer_sides: str = "both"

    def __post_init__(self) -> None:
        if self.fmt not in FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if not self.families or not list(self.eps_list) or not list(self.n_list):
            raise ValueError("families, eps_list and n_list must be nonempty")
        object.__setattr__(self, "plans", tuple(
            make_plan(MeshSpec(family=family, eps=eps, n=N, a=self.a, q=self.q,
                               gamma0=self.gamma0, layer_sides=self.layer_sides),
                      self.algorithm, self.r, self.levels)
            for family in self.families for eps in self.eps_list for N in self.n_list))


@dataclass
class Report:
    config: ReportConfig
    rows: list

    def failed_cells(self) -> int:
        return sum(1 for row in self.rows if row.failed is not None)

    def render(self) -> str:
        """The report in ``config.fmt``."""
        return getattr(self, "to_" + self.config.fmt)()

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        writer.writerows(_cells(row) for row in self.rows)
        return buf.getvalue()

    def to_json(self) -> str:
        config = _fields(self.config)
        for key in ("families", "eps_list", "n_list"):
            config[key] = list(config[key])
        payload = {"config": config, "rows": [_fields(r) for r in self.rows]}
        return json.dumps(payload, indent=2)

    def to_markdown(self) -> str:
        header = CSV_HEADER.split(",")
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join(["---"] * len(header)) + "|"]
        for row in self.rows:
            cells = _cells(row)
            if row.failed:
                cells[header.index("error")] = "failed: " + row.failed
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"


def _fields(obj) -> dict:
    """A flat dataclass as ``asdict`` gives it, without its recursive copy."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _cells(row: ConvergenceRow) -> list:
    """The ``CSV_HEADER`` cells of a row; a missing value is the empty cell."""
    return [row.problem, row.mesh, fmt_float(row.a), fmt_float(row.q),
            fmt_float(row.gamma0), fmt_float(row.eps), str(row.N), str(row.n),
            str(row.step), fmt_float(row.error), fmt_float(row.order),
            "" if row.iterations is None else str(row.iterations),
            fmt_float(row.seconds)]


def fmt_float(v: float) -> str:
    """Six significant digits; scientific notation below 1e-3 in magnitude."""
    if v is None:
        return ""
    if v == 0:
        return "0"
    if abs(v) < 1e-3:
        return f"{v:.5e}"
    return f"{v:.6g}"


def _error_of(cfg: ReportConfig, mesh: Mesh, y: np.ndarray, exact) -> float:
    if cfg.metric == "interpolant":
        return interpolant_error(mesh, y, exact)
    return nodal_error(mesh, y, exact)


def make_plan(spec: MeshSpec, algorithm: str, r: float = 2.0, levels: int = 2,
              fine_n: int | None = None) -> MeshSpec | TwoGridPlan:
    """What :func:`run_algorithm` runs: ``spec`` itself for ``direct``.

    The two-grid algorithms take ``spec`` as the coarse mesh: ``tg1``
    refines to ``fine_n`` (or ``N**r``), ``tg1_ropt`` picks r by
    :func:`choose_r`, and ``tg2`` cascades ``levels`` times.
    """
    if algorithm == "direct":
        return spec
    if algorithm == "tg2":
        return TwoGridPlan(coarse=spec, cascade_levels=levels)  # r is tg1's
    if algorithm == "tg1_ropt":
        r, fine_n = choose_r(spec.n)
    elif algorithm != "tg1":
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return TwoGridPlan(coarse=spec, r=r, fine_n=fine_n)


def run_algorithm(problem, algorithm: str, plan: MeshSpec | TwoGridPlan) -> list:
    """Run a :func:`make_plan` plan; ``(mesh, outcome, seconds)`` per step.

    A step's seconds include the build of its mesh; ``direct`` has no fine step.
    """
    result = (_run(problem, plan, []) if algorithm == "direct" else
              (algorithm2 if algorithm == "tg2" else algorithm1)(problem, plan))
    return list(zip([result.coarse_mesh] + result.fine_meshes,
                    [result.coarse] + result.fine, result.step_seconds))


def _run_cell(cfg: ReportConfig, plan: MeshSpec | TwoGridPlan) -> list:
    """Rows for one (family, eps, N) cell; one row per step."""
    spec = plan if cfg.algorithm == "direct" else plan.coarse
    problem = make_problem(cfg.problem, spec.eps)
    base = dict(problem=cfg.problem, mesh=spec.family, a=cfg.a, q=cfg.q,
                gamma0=cfg.gamma0, eps=spec.eps, N=spec.n)
    rows = []
    try:
        steps = run_algorithm(problem, cfg.algorithm, plan)
        for step, (mesh, out, seconds) in enumerate(steps, start=1):
            rows.append(ConvergenceRow(
                **base, n=mesh.n, step=step,
                error=_error_of(cfg, mesh, out.y, problem.exact),
                iterations=out.iterations, seconds=seconds))
    except (ValueError, NoConvergenceError, ZeroPivotError, NoRootError) as exc:
        # solver and budget failures are captured per cell; the sweep continues
        rows.append(ConvergenceRow(**base, n=spec.n, step=1,
                                   failed=f"{type(exc).__name__}: {exc}"))
    return rows


def _attach_orders(rows: list) -> None:
    index = {(r.mesh, r.eps, r.step, r.N): r for r in rows if r.failed is None}
    for row in rows:
        if row.failed is not None or row.error is None:
            continue
        finer = index.get((row.mesh, row.eps, row.step, 2 * row.N))
        if finer is None or finer.error is None:
            continue
        try:
            row.order = convergence_order(row.error, finer.error)
        except DegenerateError:
            row.order = None


def run_report(cfg: ReportConfig) -> Report:
    """Run the configured sweep and return the populated report.

    Rows are deterministic (keyed by family, eps, N, step) and independent
    of execution order; per-cell failures are recorded, not raised.
    """
    rows = [row for plan in cfg.plans for row in _run_cell(cfg, plan)]
    rows.sort(key=lambda r: (r.mesh, r.eps, r.N, r.step))
    _attach_orders(rows)
    return Report(config=cfg, rows=rows)


@dataclass
class LayerRow:
    family: str
    step: int
    sizes: list
    percents: list


def layer_report(eps: float, families: Sequence[str], coarse: Sequence[int],
                 fine: Sequence[int], a: float | Mapping[str, float] = 1.0,
                 q: float = 0.4, gamma0: float = 1.0) -> list:
    """Percent of nodes inside the layers for coarse and fine size lists.

    ``a`` may be a single value or a per-family mapping (the graded
    families are often run with different grading strengths).
    """
    rows = []
    for family in families:
        fam_a = a[family] if isinstance(a, Mapping) else a
        for step, sizes in ((1, list(coarse)), (2, list(fine))):
            percents = []
            for n in sizes:
                mesh = build_mesh(MeshSpec(family=family, eps=eps, n=n,
                                           a=fam_a, q=q, gamma0=gamma0))
                percents.append(layer_fraction(mesh, eps))
            rows.append(LayerRow(family=family, step=step, sizes=sizes,
                                 percents=percents))
    return rows


def render_layer_rows(rows: list) -> str:
    """Half-up two-decimal rendering, trailing zeros trimmed (25, 12.5, 4.69)."""
    def cell(v: float) -> str:
        rounded = math.floor(v * 100.0 + 0.5) / 100.0
        return f"{rounded:.2f}".rstrip("0").rstrip(".")

    lines = []
    for row in rows:
        sizes = " ".join(f"{s:>6d}" for s in row.sizes)
        vals = " ".join(f"{cell(p):>6s}" for p in row.percents)
        lines.append(f"{row.family:<10s} step {row.step}  n: {sizes}")
        lines.append(f"{'':<10s}         %: {vals}")
    return "\n".join(lines) + "\n"


@dataclass
class TimingRow:
    N: int
    n: int
    direct_seconds: float
    twogrid_seconds: float

    @property
    def ratio(self) -> float:
        return self.direct_seconds / self.twogrid_seconds


def timing_comparison(problem_id: str, family: str, eps: float,
                      coarse_sizes: Sequence[int], a: float = 1.0, q: float = 0.4,
                      gamma0: float = 1.0, repeats: int = 3,
                      layer_sides: str = "both") -> list:
    """Best-of-``repeats`` step seconds: direct solve on n = N^2 vs two-grid.

    Absolute times are hardware-bound; only the ratio is meaningful, and
    only once n is large enough that the coarse stage is negligible.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    problem = make_problem(problem_id, eps)
    plans = [make_plan(MeshSpec(family=family, eps=eps, n=N, a=a, q=q, gamma0=gamma0,
                                layer_sides=layer_sides), "tg1", fine_n=N * N)
             for N in coarse_sizes]
    sizes = [plan.single_fine_size() for plan in plans]  # before any run is timed
    rows = []
    for plan, n in zip(plans, sizes):
        runs = (("direct", replace(plan.coarse, n=n)), ("tg1", plan))
        seconds = [[sum(step[2] for step in run_algorithm(problem, *run))
                    for run in runs] for _ in range(repeats)]
        direct, tg = (min(column) for column in zip(*seconds))
        rows.append(TimingRow(plan.coarse.n, n, direct, tg))
    return rows
