"""Error metrics, convergence tables, timing comparisons and rendering.

A report sweeps (mesh family, eps, N) cells, runs the requested algorithm
per cell, and records one row per computational step: the coarse
nonlinear solve is step 1, the first fine linearized solve step 2, a
second cascade level step 3, and so on.  Observed convergence orders
``(ln E_N - ln E_2N) / ln 2`` are attached per step wherever the sweep
contains the doubled coarse size; the finest row of each group has none.

A cell's solver failures (``SOLVER_ERRORS``), and only those, are captured
into the row instead of aborting the sweep, so one diverging cell cannot
take down a table.  Invalid parameters, repeated sweep values and fine
sizes over the budget among them, raise when the config is built; any other
exception, a ``ValueError`` from a callback too, is a defect and propagates.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .linsolve import ZeroPivotError
from .mesh import Mesh, MeshSpec, NoRootError, build_mesh, layer_fraction
from .newton import NoConvergenceError, NonpositiveJacobianError, SingularDiffusionError
from .problems import make_problem
from .twogrid import TwoGridPlan, algorithm2, choose_r

ALGORITHMS = ("direct", "tg1", "tg2", "tg1_ropt")
FORMATS = ("markdown", "csv", "json")
METRICS = ("nodal", "interpolant")
INTERPOLANT_CHUNK = 2 ** 14  # intervals per block of interpolant_error's samples
#: What a valid run can still raise: a failed cell in a report, exit 3 in the CLI.
SOLVER_ERRORS = (NoConvergenceError, ZeroPivotError, NoRootError,
                 NonpositiveJacobianError, SingularDiffusionError)

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
    ends, nodes included, so the result dominates the nodal error.  A layer
    thinner than a tenth of its interval falls between the samples: on the
    uniform family, ex1 at eps = 1e-4 and 1e-6, N = 4..16, reads 0.900 where
    1001 points per interval read 0.988-0.999.  The samples are formed
    ``INTERPOLANT_CHUNK`` intervals at a time: one (11, n) block would peak
    at 44 arrays of n doubles.
    """
    if exact is None:
        raise MissingExactError("problem has no exact solution")
    t = np.linspace(0.0, 1.0, 11)[:, None]
    peaks = []
    for lo in range(0, mesh.n, INTERPOLANT_CHUNK):
        hi = lo + INTERPOLANT_CHUNK + 1
        nodes, ys = mesh.nodes[lo:hi], y[lo:hi]
        x = (1.0 - t) * nodes[:-1] + t * nodes[1:]
        peaks.append(np.abs(exact(x) - ((1.0 - t) * ys[:-1] + t * ys[1:])).max())
    return float(np.max(peaks))  # a NaN anywhere is the result, as in one block


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
    final_update: float | None = None  # in the JSON rows; no CSV column
    degenerate: bool | None = None  # the coarse mesh fell back to uniform; JSON only
    seconds: float | None = None
    failed: str | None = None


@dataclass(frozen=True)
class ReportConfig:
    """One sweep.  ``plans`` (no field) holds each cell's :func:`make_plan`,
    built here: it, :class:`MeshSpec` and :class:`TwoGridPlan` own the checks
    of the algorithm, mesh and plan parameters, so a bad value fails before
    a cell runs, as does a problem without an exact solution to measure."""

    problem: str
    families: Sequence[str]
    eps_list: Sequence[float]
    n_list: Sequence[int]
    algorithm: str = "direct"
    r: float = TwoGridPlan.r
    levels: int = 2
    fmt: str = "markdown"
    metric: str = "nodal"
    a: float = MeshSpec.a
    q: float = MeshSpec.q
    gamma0: float = MeshSpec.gamma0
    layer_sides: str = MeshSpec.layer_sides

    def __post_init__(self) -> None:
        if self.fmt not in FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        for key in ("families", "eps_list", "n_list"):
            values = list(getattr(self, key))
            if not values:
                raise ValueError("families, eps_list and n_list must be nonempty")
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"repeated value {repeated[0]!r} in {key}")
        if any(make_problem(self.problem, eps).exact is None for eps in self.eps_list):
            raise MissingExactError(f"problem {self.problem!r} has no exact solution")
        object.__setattr__(self, "plans", tuple(
            make_plan(self.algorithm, N, r=self.r, levels=self.levels, family=family,
                      eps=eps, a=self.a, q=self.q, gamma0=self.gamma0,
                      layer_sides=self.layer_sides)
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


def make_plan(algorithm: str, coarse: int | None = None, n: int | None = None,
              r: float = TwoGridPlan.r, levels: int = ReportConfig.levels,
              **mesh) -> TwoGridPlan:
    """The one reader of an algorithm name: the plan :func:`algorithm2` runs.

    ``mesh`` holds the :class:`MeshSpec` fields but n.  ``direct`` solves on
    ``n`` (or on ``coarse`` alone, as ``table`` passes its N).  The others
    refine ``coarse`` by ``round(n**r)`` per level: ``tg1`` once, at r = ln n
    / ln N if given n; ``tg1_ropt`` once, at :func:`choose_r`'s r; ``tg2``
    ``levels`` times.  A size that the algorithm never reads is an error, and
    so is a fine size over the budget: the plan checks its sizes when made.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm == "direct":
        if (n is None) == (coarse is None):
            raise ValueError("one size is required for the direct algorithm: "
                             "--n or --coarse, not both")
        return TwoGridPlan(MeshSpec(n=coarse if n is None else n, **mesh),
                           cascade_levels=0)
    if coarse is None:
        raise ValueError("--coarse is required for two-grid algorithms")
    if n is not None and algorithm != "tg1":
        raise ValueError(f"{algorithm} reads no --n: only tg1 takes a fine size")
    spec = MeshSpec(n=coarse, **mesh)  # checks N before any log of it
    if algorithm == "tg2" and levels < 1:
        raise ValueError("cascade_levels must be at least 1")
    if algorithm == "tg1_ropt":
        r = choose_r(coarse)[0]
    elif n is not None:
        if n <= coarse:
            raise ValueError("fine grid must be strictly finer than coarse")
        r = math.log(n) / math.log(coarse)
    return TwoGridPlan(spec, r, levels if algorithm == "tg2" else 1)


def _run_cell(cfg: ReportConfig, plan: TwoGridPlan) -> list:
    """Rows for one (family, eps, N) cell; one row per step."""
    spec = plan.coarse
    problem = make_problem(cfg.problem, spec.eps)
    base = dict(problem=cfg.problem, mesh=spec.family, a=spec.a, q=spec.q,
                gamma0=spec.gamma0, eps=spec.eps, N=spec.n)
    try:
        result = algorithm2(problem, plan)
    except SOLVER_ERRORS as exc:
        return [ConvergenceRow(**base, n=spec.n, step=1,
                               failed=f"{type(exc).__name__}: {exc}")]
    steps = zip([result.coarse_mesh, *result.fine_meshes],
                [result.coarse, *result.fine], result.step_seconds)
    return [ConvergenceRow(**base, n=mesh.n, step=step,
                           error=_error_of(cfg, mesh, out.y, problem.exact),
                           iterations=out.iterations, final_update=out.final_update,
                           degenerate=result.coarse_mesh.degenerate, seconds=seconds)
            for step, (mesh, out, seconds) in enumerate(steps, start=1)]


def _attach_orders(rows: list) -> None:
    index = {(r.mesh, r.eps, r.step, r.N): r for r in rows if r.failed is None}
    for (mesh, eps, step, N), row in index.items():
        finer = index.get((mesh, eps, step, 2 * N))
        if finer is not None:
            try:
                row.order = convergence_order(row.error, finer.error)
            except DegenerateError:
                pass  # the order stays None


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
                 fine: Sequence[int], a: float | Mapping[str, float] = MeshSpec.a,
                 **mesh) -> list:
    """Percent of nodes inside the layers for coarse and fine size lists.

    ``a`` may be a single value or a per-family mapping (the graded
    families are often run with different grading strengths); ``mesh``
    holds the remaining :class:`MeshSpec` fields (q, gamma0, layer_sides).
    """
    if not all(map(len, (families, coarse, fine))):
        raise ValueError("families, coarse and fine must be nonempty")
    rows = []
    for family in families:
        fam_a = a[family] if isinstance(a, Mapping) else a
        for step, sizes in ((1, list(coarse)), (2, list(fine))):
            specs = (MeshSpec(family, eps, n, a=fam_a, **mesh) for n in sizes)
            percents = [layer_fraction(build_mesh(spec), eps) for spec in specs]
            rows.append(LayerRow(family, step, sizes, percents))
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


def timing_rows(problem_id: str, coarse_sizes: Sequence[int], repeats: int,
                **mesh) -> Iterator[TimingRow]:
    """Best-of-``repeats`` step seconds: direct solve on n = N^2 vs two-grid,
    one row per N, timed as it is read.

    ``mesh`` holds the :class:`MeshSpec` fields but n, as for :func:`make_plan`.
    The arguments and every fine size are checked in the call, before any run.
    Absolute times are hardware-bound; only the ratio is meaningful, and only
    once n is large enough that the coarse stage is negligible.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    if not coarse_sizes:
        raise ValueError("coarse_sizes must be nonempty")
    plans = [make_plan("tg1", N, **mesh) for N in coarse_sizes]
    problem = make_problem(problem_id, plans[0].coarse.eps)
    def rows():
        for plan in plans:
            [n] = plan.fine_sizes()
            runs = (make_plan("direct", n=n, **mesh), plan)
            seconds = [[sum(algorithm2(problem, run).step_seconds) for run in runs]
                       for _ in range(repeats)]
            direct, tg = (min(column) for column in zip(*seconds))
            yield TimingRow(plan.coarse.n, n, direct, tg)
    return rows()
