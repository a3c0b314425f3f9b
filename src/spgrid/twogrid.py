"""Two-grid algorithms: nonlinear coarse solve, linearized fine solve(s).

The cheap route to fine-grid accuracy: solve the nonlinear scheme only on
a coarse mesh with N intervals, interpolate, then perform a single Newton
correction on the fine mesh (n = N^r intervals, r > 1) about the
interpolant.  Repeating the fine step on successively squared grid sizes
(n = N^(2^m)) cascades the accuracy while only ever solving linear
systems after the coarse stage.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .mesh import Mesh, MeshSpec, build_mesh
from .newton import (NewtonConfig, SolveOutcome, newton_step,
                     residual_for, solve as newton_solve)

#: Hard cap on interval counts produced by plans (cascade sizes grow fast).
MAX_INTERVALS = 2 ** 20


class OutOfDomainError(ValueError):
    """Interpolation query outside [0, 1]."""


@dataclass(frozen=True)
class TwoGridPlan:
    """Grid-size schedule for the two-grid algorithms.

    ``coarse`` fixes the mesh family, parameters and the coarse interval
    count N.  For the single fine step the fine size is ``fine_n`` if
    given, else ``round(N**r)``.  For the cascade, level m uses
    ``N**(2**m)`` intervals, m = 1 .. cascade_levels.
    """

    coarse: MeshSpec
    r: float = 2.0
    fine_n: int | None = None
    cascade_levels: int = 1

    def __post_init__(self) -> None:
        if self.r <= 1.0:
            raise ValueError("r must exceed 1")
        if self.cascade_levels < 1:
            raise ValueError("cascade_levels must be at least 1")
        if self.fine_n is not None and self.fine_n <= self.coarse.n:
            raise ValueError("fine grid must be strictly finer than coarse")

    def single_fine_size(self) -> int:
        n = self.fine_n if self.fine_n is not None else round(self.coarse.n ** self.r)
        if n > MAX_INTERVALS:
            raise ValueError(f"fine size {n} exceeds the {MAX_INTERVALS} interval budget")
        return n

    def cascade_sizes(self) -> list[int]:
        sizes = []
        for m in range(1, self.cascade_levels + 1):
            n = self.coarse.n ** (2 ** m)
            if n > MAX_INTERVALS:
                raise ValueError(
                    f"cascade level {m} needs {n} intervals, over the "
                    f"{MAX_INTERVALS} budget")
            sizes.append(n)
        return sizes


@dataclass
class TwoGridResult:
    """Coarse outcome plus one fine outcome (and mesh) per level."""

    coarse_mesh: Mesh
    coarse: SolveOutcome
    fine_meshes: list
    fine: list
    step_seconds: list


def interpolate(mesh: Mesh, values: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Piecewise-linear interpolant of nodal values at the query points.

    Exact at nodes and for linear data; queries must lie in [0, 1].
    """
    q = np.asarray(query, dtype=float)
    if q.size and (q.min() < 0.0 or q.max() > 1.0):
        raise OutOfDomainError("query points must lie in [0, 1]")
    if len(values) != mesh.n + 1:
        raise ValueError("values length does not match mesh")
    return np.interp(q, mesh.nodes, values)


def interpolant_slopes(coarse: Mesh, values: np.ndarray,
                       fine: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Interpolant values at fine nodes plus exact per-interval slopes.

    For a fine interval contained in one coarse cell the slope is that
    cell's slope verbatim, so adjacent equal slopes cancel exactly in the
    fine second difference; computing slopes from interpolated values
    instead would leave eps^2/h^2-amplified rounding noise in the fine
    residual.  Intervals straddling a coarse node fall back to the chord
    of the interpolated values.
    """
    w = interpolate(coarse, values, fine.nodes)
    coarse_slopes = np.diff(values) / coarse.steps
    mids = 0.5 * (fine.nodes[:-1] + fine.nodes[1:])
    cell = np.clip(np.searchsorted(coarse.nodes, mids) - 1, 0, coarse.n - 1)
    inside = (coarse.nodes[cell] <= fine.nodes[:-1]) & \
             (fine.nodes[1:] <= coarse.nodes[cell + 1])
    chord = np.diff(w) / fine.steps
    return w, np.where(inside, coarse_slopes[cell], chord)


def _fine_step(problem, fine_mesh: Mesh, prev_mesh: Mesh,
               prev_values: np.ndarray) -> SolveOutcome:
    """One linearized fine solve about the interpolant of the previous level."""
    t0 = time.perf_counter()
    w, slopes = interpolant_slopes(prev_mesh, prev_values, fine_mesh)
    w[0] = problem.bc_left
    w[-1] = problem.bc_right
    y, update = newton_step(fine_mesh, problem, w, slopes=slopes)
    res = float(np.max(np.abs(residual_for(fine_mesh, problem, y))))
    return SolveOutcome(y=y, iterations=1, final_update=update, converged=True,
                        wall_time=time.perf_counter() - t0, residual_norm=res,
                        update_history=[update])


def _run(problem, plan: TwoGridPlan, sizes: list[int],
         cfg: NewtonConfig | None) -> TwoGridResult:
    t0 = time.perf_counter()
    coarse_mesh = build_mesh(plan.coarse)
    coarse = newton_solve(coarse_mesh, problem, cfg)
    seconds = [time.perf_counter() - t0]
    fine_meshes = []
    fine = []
    prev_mesh, prev_values = coarse_mesh, coarse.y
    for n in sizes:
        t1 = time.perf_counter()
        fine_mesh = build_mesh(replace(plan.coarse, n=n))
        outcome = _fine_step(problem, fine_mesh, prev_mesh, prev_values)
        seconds.append(time.perf_counter() - t1)
        fine_meshes.append(fine_mesh)
        fine.append(outcome)
        prev_mesh, prev_values = fine_mesh, outcome.y
    return TwoGridResult(coarse_mesh=coarse_mesh, coarse=coarse,
                         fine_meshes=fine_meshes, fine=fine,
                         step_seconds=seconds)


def algorithm1(problem, plan: TwoGridPlan,
               cfg: NewtonConfig | None = None) -> TwoGridResult:
    """Coarse nonlinear solve, then one linearized solve on the fine mesh."""
    return _run(problem, plan, [plan.single_fine_size()], cfg)


def algorithm2(problem, plan: TwoGridPlan,
               cfg: NewtonConfig | None = None) -> TwoGridResult:
    """Cascade: repeat the fine step on n = N^(2^m), m = 1..cascade_levels.

    Each level linearizes about the interpolant of the previous level's
    solution; with one level this coincides with :func:`algorithm1` at
    r = 2.
    """
    return _run(problem, plan, plan.cascade_sizes(), cfg)


def choose_r(n_coarse: int) -> tuple[float, int]:
    """Cost-balancing exponent: solve ``N^r / r = N^2 / ln N`` for r.

    Bisection to 1e-12 on r; the initial bracket (1, 2] is widened upward
    when needed (for N < 8 the root exceeds 2).  Returns ``(r,
    round(N**r))``.
    """
    if n_coarse < 4:
        raise ValueError("coarse size must be at least 4")
    ln_n = math.log(n_coarse)
    target = math.log(n_coarse * n_coarse / ln_n)

    def excess(r: float) -> float:
        return r * ln_n - math.log(r) - target

    lo, hi = 1.0 + 1e-12, 2.0
    while excess(hi) < 0.0:
        hi += 0.5
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    r = 0.5 * (lo + hi)
    return r, round(n_coarse ** r)
