"""Newton (quasilinearization) solvers for the nonlinear difference schemes.

Both solvers iterate in correction form: each sweep solves the linearized
tridiagonal system ``J(y) delta = -F(y)`` for the update and sets
``y <- y + delta``.  Algebraically this is the classical quasilinearization
sweep ``(-eps^2 D_h + f_u(y)) y_new = f_u(y) y - f(x, y)``, but the
correction form stays accurate on strongly graded fine meshes where
solving for the full solution would lose ~6 digits to cancellation.

Residuals may be evaluated with caller-supplied per-interval slopes of the
current iterate (see :func:`spgrid.twogrid.interpolant_slopes`); when the
iterate is a piecewise-linear interpolant from a coarser grid this makes
the second difference vanish exactly inside coarse cells instead of
leaving ``eps^2/h^2``-amplified rounding noise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .linsolve import TridiagonalSystem, thomas_solve
from .mesh import Mesh
from .problems import QuasilinearDiffusionProblem, SemilinearProblem

InitialGuess = Union[str, np.ndarray]


class NoConvergenceError(RuntimeError):
    """Newton hit max_iter or a non-finite update; carries the last update."""

    def __init__(self, message: str, final_update: float):
        super().__init__(message)
        self.final_update = final_update


class NonpositiveJacobianError(ValueError):
    """f_u <= 0 at some node of the current iterate."""


class SingularDiffusionError(ValueError):
    """Diffusion factor not positive/finite at an interval midpoint."""


@dataclass(frozen=True)
class NewtonConfig:
    """Iteration controls.

    ``initial`` is ``"reduced"`` (per-node root of the reaction term,
    the default), ``"zero"``, or an explicit full-length start vector.
    ``picard`` drops the d_u chain terms from the quasilinear-diffusion
    Jacobian (frozen-coefficient iteration); the converged solution is
    unchanged, only the rate degrades.
    """

    tol: float = 1e-13
    max_iter: int = 50
    initial: InitialGuess = "reduced"
    picard: bool = False

    def __post_init__(self) -> None:
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if isinstance(self.initial, str) and self.initial not in ("zero", "reduced"):
            raise ValueError("initial must be 'zero', 'reduced', or an array")


@dataclass
class SolveOutcome:
    """Converged discrete solution plus iteration diagnostics."""

    y: np.ndarray
    iterations: int
    final_update: float
    converged: bool
    wall_time: float
    residual_norm: float
    update_history: list = field(default_factory=list)


def _interval_slopes(mesh: Mesh, y: np.ndarray) -> np.ndarray:
    return np.diff(y) / mesh.steps


def semilinear_residual(mesh: Mesh, p: SemilinearProblem, y: np.ndarray,
                        slopes: np.ndarray | None = None) -> np.ndarray:
    """Interior residual ``-eps^2 y_xx + f(x, y)`` of the nonlinear scheme."""
    s = _interval_slopes(mesh, y) if slopes is None else slopes
    lap = (s[1:] - s[:-1]) / mesh.half_steps
    return -p.eps ** 2 * lap + p.f(mesh.interior(), y[1:-1])


def semilinear_jacobian(mesh: Mesh, p: SemilinearProblem,
                        y: np.ndarray) -> TridiagonalSystem:
    """Tridiagonal Jacobian rows about ``y`` (rhs slot left zero)."""
    xi = mesh.interior()
    b = p.f_u(xi, y[1:-1])
    if np.any(b <= 0.0) or not np.all(np.isfinite(b)):
        raise NonpositiveJacobianError("f_u must be positive along the iterate")
    h = mesh.steps
    hbar = mesh.half_steps
    e2 = p.eps ** 2
    lower = -e2 / (hbar * h[:-1])
    upper = -e2 / (hbar * h[1:])
    diag = -(lower + upper) + b
    sub = np.concatenate(([0.0], lower[1:]))
    sup = np.concatenate((upper[:-1], [0.0]))
    return TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=np.zeros_like(diag))


def diffusion_residual(mesh: Mesh, p: QuasilinearDiffusionProblem, y: np.ndarray,
                       slopes: np.ndarray | None = None) -> np.ndarray:
    """Interior residual of the conservative midpoint scheme.

    ``F_i = -eps^2/hbar_i [ d(m_{i+1/2}) s_{i+1} - d(m_{i-1/2}) s_i ]
    + r(x_i, y_i)`` with interval midpoint values ``m`` and slopes ``s``.
    """
    s = _interval_slopes(mesh, y) if slopes is None else slopes
    mid = 0.5 * (y[:-1] + y[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        dm = p.d(mid)
    if not np.all(np.isfinite(dm)) or np.any(dm <= 0.0):
        raise SingularDiffusionError("diffusion factor not positive at a midpoint")
    flux = dm * s
    return (-p.eps ** 2 * (flux[1:] - flux[:-1]) / mesh.half_steps
            + p.r(mesh.interior(), y[1:-1]))


def diffusion_jacobian(mesh: Mesh, p: QuasilinearDiffusionProblem, y: np.ndarray,
                       picard: bool = False) -> TridiagonalSystem:
    """Analytic tridiagonal Jacobian of the midpoint scheme about ``y``."""
    xi = mesh.interior()
    h = mesh.steps
    hbar = mesh.half_steps
    e2 = p.eps ** 2
    s = _interval_slopes(mesh, y)
    mid = 0.5 * (y[:-1] + y[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        dm = p.d(mid)
    if not np.all(np.isfinite(dm)) or np.any(dm <= 0.0):
        raise SingularDiffusionError("diffusion factor not positive at a midpoint")
    dmu = np.zeros_like(dm) if picard else p.d_u(mid) * s
    # interval j couples nodes j and j+1; chain terms carry 0.5 * d_u * s_j
    right_flux = dm[1:] / h[1:]       # d(m_{i+1/2})/h_{i+1} for interior i
    left_flux = dm[:-1] / h[:-1]
    right_chain = 0.5 * dmu[1:]
    left_chain = 0.5 * dmu[:-1]
    scale = -e2 / hbar
    upper = scale * (right_flux + right_chain)
    lower = scale * (left_flux - left_chain)
    diag = (scale * (-right_flux - left_flux + right_chain - left_chain)
            + p.r_u(xi, y[1:-1]))
    sub = np.concatenate(([0.0], lower[1:]))
    sup = np.concatenate((upper[:-1], [0.0]))
    return TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=np.zeros_like(diag))


def newton_step(mesh: Mesh, problem, y: np.ndarray,
                slopes: np.ndarray | None = None,
                picard: bool = False) -> tuple[np.ndarray, float]:
    """One Newton correction about ``y``; returns (new iterate, |delta|_inf).

    Boundary entries of ``y`` are kept verbatim (the correction has zero
    boundary values).
    """
    if isinstance(problem, QuasilinearDiffusionProblem):
        F = diffusion_residual(mesh, problem, y, slopes)
        jac = diffusion_jacobian(mesh, problem, y, picard)
    else:
        F = semilinear_residual(mesh, problem, y, slopes)
        jac = semilinear_jacobian(mesh, problem, y)
    sys = TridiagonalSystem(sub=jac.sub, diag=jac.diag, sup=jac.sup, rhs=-F)
    delta = thomas_solve(sys)
    out = y.copy()
    out[1:-1] += delta
    return out, float(np.max(np.abs(delta)))


def reduced_initial(mesh: Mesh, problem) -> np.ndarray:
    """Per-node root of the reaction term, used as the default start.

    Damped scalar Newton (steps clamped to 0.5) on ``f(x, .) = 0`` or
    ``r(x, .) = 0``; robust against nonlinearities whose tangent from zero
    overshoots into a singularity.  The result is a heuristic start only,
    so a loose tolerance suffices.
    """
    if isinstance(problem, QuasilinearDiffusionProblem):
        fun, der = problem.r, problem.r_u
    else:
        fun, der = problem.f, problem.f_u
    xi = mesh.interior()
    u = np.zeros_like(xi)
    for _ in range(60):
        with np.errstate(divide="ignore", invalid="ignore"):
            step = fun(xi, u) / der(xi, u)
        step = np.nan_to_num(step, nan=0.0, posinf=0.5, neginf=-0.5)
        u -= np.clip(step, -0.5, 0.5)
        if np.max(np.abs(step)) < 1e-12:
            break
    y = np.empty(mesh.n + 1)
    y[1:-1] = u
    y[0] = problem.bc_left
    y[-1] = problem.bc_right
    return y


def _start_vector(mesh: Mesh, problem, cfg: NewtonConfig) -> np.ndarray:
    if isinstance(cfg.initial, np.ndarray):
        if len(cfg.initial) != mesh.n + 1:
            raise ValueError("initial guess length does not match mesh")
        y = np.array(cfg.initial, dtype=float)
    elif cfg.initial == "reduced":
        y = reduced_initial(mesh, problem)
    else:
        y = np.zeros(mesh.n + 1)
    y[0] = problem.bc_left
    y[-1] = problem.bc_right
    return y


def _solve(mesh: Mesh, problem, cfg: NewtonConfig) -> SolveOutcome:
    t0 = time.perf_counter()
    y = _start_vector(mesh, problem, cfg)
    picard = cfg.picard and isinstance(problem, QuasilinearDiffusionProblem)
    updates = []
    converged = False
    for _ in range(cfg.max_iter):
        y, upd = newton_step(mesh, problem, y, picard=picard)
        updates.append(upd)
        if not np.isfinite(upd):
            raise NoConvergenceError(
                f"non-finite update in iteration {len(updates)}", final_update=upd)
        if upd <= cfg.tol:
            converged = True
            break
    if not converged:
        raise NoConvergenceError(
            f"no convergence in {cfg.max_iter} iterations "
            f"(last update {updates[-1]:.3e})", final_update=updates[-1])
    if isinstance(problem, QuasilinearDiffusionProblem):
        res = diffusion_residual(mesh, problem, y)
    else:
        res = semilinear_residual(mesh, problem, y)
    return SolveOutcome(y=y, iterations=len(updates), final_update=updates[-1],
                        converged=True, wall_time=time.perf_counter() - t0,
                        residual_norm=float(np.max(np.abs(res))),
                        update_history=updates)


def solve_semilinear(mesh: Mesh, p: SemilinearProblem,
                     cfg: NewtonConfig | None = None) -> SolveOutcome:
    """Solve ``-eps^2 y_xx + f(x, y) = 0`` with Dirichlet data from ``p``."""
    return _solve(mesh, p, cfg or NewtonConfig())


def solve_quasilinear_diffusion(mesh: Mesh, p: QuasilinearDiffusionProblem,
                                cfg: NewtonConfig | None = None) -> SolveOutcome:
    """Solve the conservative midpoint scheme for ``-eps^2 (d(u)u')' + r = 0``."""
    return _solve(mesh, p, cfg or NewtonConfig())


def solve(mesh: Mesh, problem, cfg: NewtonConfig | None = None) -> SolveOutcome:
    """Dispatch on the problem type."""
    return _solve(mesh, problem, cfg or NewtonConfig())


def residual_for(mesh: Mesh, problem, y: np.ndarray) -> np.ndarray:
    """Interior nonlinear-scheme residual, dispatched on the problem type."""
    if isinstance(problem, QuasilinearDiffusionProblem):
        return diffusion_residual(mesh, problem, y)
    return semilinear_residual(mesh, problem, y)


def _residual_func(mesh: Mesh, problem):
    return lambda y: residual_for(mesh, problem, y)


def jacobian_fd_gap(mesh: Mesh, problem, y: np.ndarray) -> float:
    """Max entrywise gap between the analytic Jacobian and central differences.

    The gap is relative to the entry magnitude, floored at one; intended
    as a correctness check, not for production paths.
    """
    if isinstance(problem, QuasilinearDiffusionProblem):
        jac = diffusion_jacobian(mesh, problem, y)
    else:
        jac = semilinear_jacobian(mesh, problem, y)
    resid = _residual_func(mesh, problem)
    m = mesh.n - 1
    gap = 0.0
    for j in range(m):
        step = 1e-6 * (1.0 + abs(y[j + 1]))
        yp = y.copy()
        yp[j + 1] += step
        ym = y.copy()
        ym[j + 1] -= step
        col = (resid(yp) - resid(ym)) / (2.0 * step)
        entries = [(j, jac.diag[j])]
        if j > 0:
            entries.append((j - 1, jac.sup[j - 1]))
        if j < m - 1:
            entries.append((j + 1, jac.sub[j + 1]))
        for i, a in entries:
            fd = col[i]
            gap = max(gap, abs(a - fd) / max(1.0, abs(a), abs(fd)))
    return gap
