"""Two-grid algorithms: nonlinear coarse solve, linearized fine solve(s).

The cheap route to fine-grid accuracy: solve the nonlinear scheme only on
a coarse mesh with N intervals, then perform a single Newton correction on
the fine mesh (n = N^r intervals, r > 1) about the coarse solution's
interpolant.  Repeating the fine step, each level on round(n^r) intervals
(r = 2: n = N^(2^m)), cascades the accuracy while only ever solving linear
systems after the coarse stage.  The transfer is
:func:`spgrid.mesh.interpolant_slopes`, the one interpolation function, which
the direct solve's nested start shares; it is imported here by name.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .mesh import MAX_INTERVALS, Mesh, MeshSpec, build_mesh, interpolant_slopes
from .newton import SolveOutcome, _iterate, solve as newton_solve


@dataclass(frozen=True)
class TwoGridPlan:
    """The coarse mesh (N intervals) and the fine sizes that follow it.

    Every level has ``round(n**r)`` intervals, n those of the level before
    (Xu's size rule), and r is finite and exceeds 1.  :func:`algorithm2` runs
    ``cascade_levels`` levels, :func:`algorithm1` level 1 alone; zero
    levels is the direct solve on ``coarse``.
    """

    coarse: MeshSpec
    r: float = 2.0
    cascade_levels: int = 1

    def __post_init__(self) -> None:
        if not 1.0 < self.r < math.inf:  # NaN fails too
            raise ValueError("r must be finite and exceed 1")
        if self.cascade_levels < 0:
            raise ValueError("cascade_levels must not be negative")
        self.fine_sizes()  # every plan that exists is runnable

    def fine_sizes(self) -> list[int]:
        """Interval counts of the ``cascade_levels`` fine levels.

        Each level raises the previous count to the power r and rounds (r = 2:
        the cascade's ``N**(2**m)``).  A plan runs this, the one check of each
        size against N and the budget, when it is made; a power past floats
        is named, not formed.
        """
        n, r, sizes = self.coarse.n, self.r, []
        for _ in range(self.cascade_levels):
            huge = r * math.log(n) > 700.0  # e**709.8 overflows
            n = f"{n}**{r:g}" if huge else round(n ** r)
            if huge or n > MAX_INTERVALS:
                raise ValueError(f"fine size {n} exceeds the {MAX_INTERVALS} "
                                 "interval budget")
            if n <= self.coarse.n:  # only level 1 can fail: no level shrinks
                raise ValueError("fine grid must be strictly finer than coarse")
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


def _fine_step(problem, fine_mesh: Mesh, prev_mesh: Mesh,
               prev_values: np.ndarray) -> SolveOutcome:
    """One linearized fine solve about the interpolant of the previous level:
    the Newton loop to ``tol = inf``.  Neither ``newton.couplings`` nor the
    source are built ahead, and the slopes are handed over in a list that the
    loop empties: held through the step, each would raise the peak memory.

    The step certifies its own gap to the direct fine solution ``y_h``.  For
    the semilinear scheme ``y - y_h = J(w)^-1 R``, ``R_i = f_uu(xi_i)/2 (w_i -
    y_h,i)^2``; the M-matrix ``J(w)`` has ``|J(w)^-1|_inf <= 1/min f_u`` for
    every eps, so ``|y - y_h| <= max|f_uu|/(2 min f_u) |w - y_h|^2``, where
    ``final_update = |y - w|`` stands in for ``|w - y_h|``."""
    w, *first = interpolant_slopes(prev_mesh, prev_values, fine_mesh)
    return _iterate(fine_mesh, problem, w, first, None, None, math.inf)


def _run(problem, plan: TwoGridPlan) -> TwoGridResult:
    """Solve on the coarse mesh, then a fine step per size (none: the direct solve)."""
    t0 = time.perf_counter()
    coarse_mesh = build_mesh(plan.coarse)
    coarse = newton_solve(coarse_mesh, problem)
    seconds = [time.perf_counter() - t0]
    fine_meshes = []
    fine = []
    prev_mesh, prev_values = coarse_mesh, coarse.y
    for n in plan.fine_sizes():
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


def algorithm1(problem, plan: TwoGridPlan) -> TwoGridResult:
    """Coarse nonlinear solve, then one linearized solve on the fine mesh."""
    return _run(problem, replace(plan, cascade_levels=1))


def algorithm2(problem, plan: TwoGridPlan) -> TwoGridResult:
    """Cascade: a fine step per size of :meth:`TwoGridPlan.fine_sizes`.

    Level m linearizes about the interpolant of level m - 1 on round(n**r)
    intervals, n those of level m - 1 (r = 2: n = N^(2^m)).  One level is
    :func:`algorithm1`, and zero levels the direct solve.
    """
    return _run(problem, plan)


def choose_r(n_coarse: int) -> tuple[float, int]:
    """Cost-balancing exponent: solve ``N^r / r = N^2 / ln N`` for r.

    Newton on ``r ln N - ln r - ln(N^2/ln N)``, increasing and convex past
    the root, from ``r0 = (ln(N^2/ln N) + 1)/ln N < e`` (N >= 4), where it
    is ``1 - ln r0 > 0``, falls to the root until an iterate no longer falls.
    Returns ``(r, round(N**r))``.
    """
    if n_coarse < 4:
        raise ValueError("coarse size must be at least 4")
    ln_n = math.log(n_coarse)
    target = math.log(n_coarse * n_coarse / ln_n)
    r = (target + 1.0) / ln_n
    for _ in range(60):
        nxt = r - (r * ln_n - math.log(r) - target) / (ln_n - 1.0 / r)
        if not nxt < r:
            break
        r = nxt
    return r, round(n_coarse ** r)
