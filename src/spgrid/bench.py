"""Error metrics, convergence tables, timing comparisons and rendering.

A report sweeps (mesh family, eps, N) cells, runs the requested algorithm
per cell, and records one row per computational step: the coarse
nonlinear solve is step 1, the first fine linearized solve step 2, a
second cascade level step 3, and so on.  Observed convergence orders
``(ln E_N - ln E_2N) / ln 2`` are attached per step wherever the sweep
contains the doubled coarse size; the finest row of each group has none.

Solver and validation errors in a cell are captured into the row instead
of aborting the sweep, so one diverging cell cannot take down a table;
any other exception is a defect and propagates.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .linsolve import ZeroPivotError
from .mesh import Mesh, MeshSpec, NoRootError, build_mesh, layer_fraction
from .newton import NewtonConfig, NoConvergenceError, solve as newton_solve
from .problems import make_problem
from .twogrid import TwoGridPlan, algorithm1, algorithm2, choose_r, interpolate

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
    return float(np.max(np.abs(exact(mesh.nodes) - y)))


def interpolant_error(mesh: Mesh, y: np.ndarray, exact: Callable | None,
                      samples: int | None = None) -> float:
    """Max-norm error of the piecewise-linear interpolant on a dense set.

    The sample set is a uniform grid of at least ``10 n`` points merged
    with the mesh nodes, so the result always dominates the nodal error.
    """
    if exact is None:
        raise MissingExactError("problem has no exact solution")
    count = samples if samples is not None else 10 * mesh.n
    count = max(count, 10 * mesh.n)
    s = np.union1d(np.linspace(0.0, 1.0, count + 1), mesh.nodes)
    return float(np.max(np.abs(exact(s) - interpolate(mesh, y, s))))


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
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.fmt not in FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if not self.families or not list(self.eps_list) or not list(self.n_list):
            raise ValueError("families, eps_list and n_list must be nonempty")
        if self.algorithm in ("tg1", "tg2") and self.r <= 1.0:
            raise ValueError("r must exceed 1")
        if any(n < 2 for n in self.n_list):
            raise ValueError("coarse sizes must be at least 2")


@dataclass
class Report:
    config: ReportConfig
    rows: list

    def failed_cells(self) -> int:
        return sum(1 for row in self.rows if row.failed is not None)

    def render(self, fmt: str | None = None) -> str:
        fmt = fmt or self.config.fmt
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        return self.to_markdown()

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for row in self.rows:
            writer.writerow([
                row.problem, row.mesh, fmt_float(row.a), fmt_float(row.q),
                fmt_float(row.gamma0), fmt_float(row.eps), row.N, row.n,
                row.step,
                "" if row.error is None else fmt_float(row.error),
                "" if row.order is None else fmt_float(row.order),
                "" if row.iterations is None else row.iterations,
                "" if row.seconds is None else fmt_float(row.seconds),
            ])
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {"config": asdict(self.config), "rows": [asdict(r) for r in self.rows]}
        payload["config"]["families"] = list(self.config.families)
        payload["config"]["eps_list"] = list(self.config.eps_list)
        payload["config"]["n_list"] = list(self.config.n_list)
        return json.dumps(payload, indent=2)

    def to_markdown(self) -> str:
        header = CSV_HEADER.split(",")
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join(["---"] * len(header)) + "|"]
        for row in self.rows:
            cells = [row.problem, row.mesh, fmt_float(row.a), fmt_float(row.q),
                     fmt_float(row.gamma0), fmt_float(row.eps), str(row.N),
                     str(row.n), str(row.step),
                     "failed: " + row.failed if row.failed else fmt_float(row.error),
                     "" if row.order is None else fmt_float(row.order),
                     "" if row.iterations is None else str(row.iterations),
                     "" if row.seconds is None else fmt_float(row.seconds)]
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"


def fmt_float(v: float) -> str:
    """Six significant digits; scientific notation below 1e-3 in magnitude."""
    if v is None:
        return ""
    if v == 0:
        return "0"
    if abs(v) < 1e-3:
        return f"{v:.5e}"
    return f"{v:.6g}"


def _mesh_spec(cfg: ReportConfig, family: str, eps: float, n: int) -> MeshSpec:
    return MeshSpec(family=family, eps=eps, n=n, a=cfg.a, q=cfg.q,
                    gamma0=cfg.gamma0, layer_sides=cfg.layer_sides)


def _error_of(cfg: ReportConfig, mesh: Mesh, y: np.ndarray, exact) -> float:
    if cfg.metric == "interpolant":
        return interpolant_error(mesh, y, exact)
    return nodal_error(mesh, y, exact)


def run_algorithm(problem, spec: MeshSpec, algorithm: str, r: float = 2.0,
                  levels: int = 2, fine_n: int | None = None,
                  newton_cfg: NewtonConfig | None = None) -> list:
    """Run one algorithm; ``(mesh, outcome, seconds)`` for each step.

    ``direct`` solves on ``spec``.  The two-grid algorithms take ``spec``
    as the coarse mesh: ``tg1`` refines to ``fine_n`` (or ``N**r``),
    ``tg1_ropt`` picks r by :func:`choose_r`, and ``tg2`` cascades
    ``levels`` times.
    """
    if algorithm == "direct":
        mesh = build_mesh(spec)
        t0 = time.perf_counter()
        out = newton_solve(mesh, problem, newton_cfg)
        return [(mesh, out, time.perf_counter() - t0)]
    if algorithm == "tg2":
        result = algorithm2(problem, TwoGridPlan(coarse=spec, cascade_levels=levels),
                            newton_cfg)
    elif algorithm in ("tg1", "tg1_ropt"):
        if algorithm == "tg1_ropt":
            r, fine_n = choose_r(spec.n)
        result = algorithm1(problem, TwoGridPlan(coarse=spec, r=r, fine_n=fine_n),
                            newton_cfg)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return list(zip([result.coarse_mesh] + result.fine_meshes,
                    [result.coarse] + result.fine, result.step_seconds))


def _run_cell(cfg: ReportConfig, family: str, eps: float, N: int,
              newton_cfg: NewtonConfig) -> list:
    """Rows for one (family, eps, N) cell; one row per step."""
    problem = make_problem(cfg.problem, eps)
    base = dict(problem=cfg.problem, mesh=family, a=cfg.a, q=cfg.q,
                gamma0=cfg.gamma0, eps=eps, N=N)
    rows = []
    try:
        steps = run_algorithm(problem, _mesh_spec(cfg, family, eps, N), cfg.algorithm,
                              cfg.r, cfg.levels, newton_cfg=newton_cfg)
        for step, (mesh, out, seconds) in enumerate(steps, start=1):
            rows.append(ConvergenceRow(
                **base, n=mesh.n, step=step,
                error=_error_of(cfg, mesh, out.y, problem.exact),
                iterations=out.iterations, seconds=seconds))
    except (ValueError, NoConvergenceError, ZeroPivotError, NoRootError) as exc:
        # solver and validation failures are captured per cell; the sweep continues
        rows.append(ConvergenceRow(**base, n=N, step=1,
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


def run_report(cfg: ReportConfig,
               newton_cfg: NewtonConfig | None = None) -> Report:
    """Run the configured sweep and return the populated report.

    Rows are deterministic (keyed by family, eps, N, step) and independent
    of execution order; per-cell failures are recorded, not raised.
    """
    ncfg = newton_cfg or NewtonConfig()
    rows = []
    for family in cfg.families:
        for eps in cfg.eps_list:
            for N in cfg.n_list:
                rows.extend(_run_cell(cfg, family, eps, N, ncfg))
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
                      gamma0: float = 1.0, repeats: int = 3) -> list:
    """Best-of-``repeats`` wall time: direct solve on n = N^2 vs two-grid.

    Absolute times are hardware-bound; only the ratio is meaningful, and
    only once n is large enough that the coarse stage is negligible.
    """
    problem = make_problem(problem_id, eps)
    rows = []
    for N in coarse_sizes:
        n = N * N
        spec_fine = MeshSpec(family=family, eps=eps, n=n, a=a, q=q, gamma0=gamma0)
        spec_coarse = replace(spec_fine, n=N)
        direct_best = math.inf
        tg_best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            mesh = build_mesh(spec_fine)
            newton_solve(mesh, problem)
            direct_best = min(direct_best, time.perf_counter() - t0)
            t0 = time.perf_counter()
            algorithm1(problem, TwoGridPlan(coarse=spec_coarse, fine_n=n))
            tg_best = min(tg_best, time.perf_counter() - t0)
        rows.append(TimingRow(N=N, n=n, direct_seconds=direct_best,
                              twogrid_seconds=tg_best))
    return rows
