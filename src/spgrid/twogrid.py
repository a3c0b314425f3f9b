"""Two-grid algorithms: nonlinear coarse solve, linearized fine solve(s).

The cheap route to fine-grid accuracy: solve the nonlinear scheme only on
a coarse mesh with N intervals, interpolate, then perform a single Newton
correction on the fine mesh (n = N^r intervals, r > 1) about the
interpolant.  Repeating the fine step on successively squared grid sizes
(n = N^(2^m)) cascades the accuracy while only ever solving linear
systems after the coarse stage.  The transfer is ``np.interp``'s
interpolant bit for bit, built by run-length expansion over coarse cells.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .mesh import MAX_INTERVALS, Mesh, MeshSpec, build_mesh
from .newton import SolveOutcome, _iterate, solve as newton_solve


class OutOfDomainError(ValueError):
    """Interpolation query outside [0, 1]."""


@dataclass(frozen=True)
class TwoGridPlan:
    """Grid-size schedule for the two-grid algorithms.

    ``coarse`` fixes the mesh family, parameters and the coarse interval
    count N.  For the single fine step the fine size is ``fine_n`` if
    given, else ``round(N**r)``; it must exceed N, and r must be finite.
    For the cascade, level m uses ``N**(2**m)`` intervals, m = 1 ..
    cascade_levels; it ignores r.
    """

    coarse: MeshSpec
    r: float = 2.0
    fine_n: int | None = None
    cascade_levels: int = 1

    def __post_init__(self) -> None:
        if not 1.0 < self.r < math.inf:  # NaN fails too
            raise ValueError("r must be finite and exceed 1")
        if self.cascade_levels < 1:
            raise ValueError("cascade_levels must be at least 1")
        # the single fine level must refine; round(N**r) in logs: N**r can overflow
        if (self.fine_n <= self.coarse.n if self.fine_n is not None
                else self.r * math.log(self.coarse.n) <= math.log(self.coarse.n + 0.5)):
            raise ValueError("fine grid must be strictly finer than coarse")

    def single_fine_size(self) -> int:
        n = self.fine_n
        if n is None:  # an N**r past twice the budget is not computed: it can overflow
            fits = self.r * math.log(self.coarse.n) < math.log(2 * MAX_INTERVALS)
            n = round(self.coarse.n ** self.r) if fits else math.inf
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

    Exact at nodes and for linear data; queries must lie in [0, 1] (the
    check is negated so that NaN fails it, as infinities do).
    """
    q = np.asarray(query, dtype=float)
    if q.size and not (q.min() >= 0.0 and q.max() <= 1.0):
        raise OutOfDomainError("query points must lie in [0, 1]")
    if len(values) != mesh.n + 1:
        raise ValueError("values length does not match mesh")
    return np.interp(q, mesh.nodes, values)


def interpolant_slopes(coarse: Mesh, values: np.ndarray,
                       fine: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Interpolant values at fine nodes plus exact per-interval slopes.

    ``w`` is ``np.interp(fine.nodes, coarse.nodes, values)`` bit for bit,
    built in O(n + N log n) by repeating each coarse cell's slope, node and
    value over its run of fine nodes; a fine node on a coarse node takes
    the nodal value (so -0.0 stays -0.0).  A fine interval gets the slope of
    the coarse cell holding its left end verbatim, so equal slopes cancel
    exactly in the fine second difference (slopes from ``w`` would leave
    eps^2/h^2-amplified rounding noise); one straddling a coarse node takes
    the chord of ``w``.  Non-finite values flow on (not in np.interp's bits).
    """
    values = np.asarray(values, dtype=float)
    if len(values) != coarse.n + 1:
        raise ValueError("values length does not match mesh")
    X, x = coarse.nodes, fine.nodes
    # cell j holds fine nodes k[j] .. k[j+1] - 1; a last run holds x_n alone
    k = np.searchsorted(x, X)
    run = np.concatenate((k[1:], [len(x)])) - k
    s = np.repeat(np.concatenate(((values[1:] - values[:-1]) / coarse.steps, [0.0])),
                  run)
    w = (x - np.repeat(X, run)) * s + np.repeat(values, run)
    on = x[k] == X
    w[k[on]] = values[on]
    # chords: the intervals with an interior coarse node strictly inside
    c = k[1:-1][~on[1:-1]] - 1
    s[c] = (w[c + 1] - w[c]) / fine.steps[c]
    return w, s[:-1]


def _fine_step(problem, fine_mesh: Mesh, prev_mesh: Mesh,
               prev_values: np.ndarray) -> SolveOutcome:
    """One linearized fine solve about the interpolant of the previous level:
    the Newton loop to ``tol = inf``.  Neither the couplings nor the source
    are built ahead: held through the step, they would raise the peak memory."""
    w, slopes = interpolant_slopes(prev_mesh, prev_values, fine_mesh)
    return _iterate(fine_mesh, problem, w, slopes, None, None, math.inf)


def _run(problem, spec: MeshSpec, sizes: list[int]) -> TwoGridResult:
    """Solve on ``spec``'s mesh, then a fine step per size (none: the direct solve)."""
    t0 = time.perf_counter()
    coarse_mesh = build_mesh(spec)
    coarse = newton_solve(coarse_mesh, problem)
    seconds = [time.perf_counter() - t0]
    fine_meshes = []
    fine = []
    prev_mesh, prev_values = coarse_mesh, coarse.y
    for n in sizes:
        t1 = time.perf_counter()
        fine_mesh = build_mesh(replace(spec, n=n))
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
    return _run(problem, plan.coarse, [plan.single_fine_size()])


def algorithm2(problem, plan: TwoGridPlan) -> TwoGridResult:
    """Cascade: repeat the fine step on n = N^(2^m), m = 1..cascade_levels.

    Each level linearizes about the interpolant of the previous level's
    solution; with one level this coincides with :func:`algorithm1` at
    r = 2.
    """
    return _run(problem, plan.coarse, plan.cascade_sizes())


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
