"""Newton (quasilinearization) solver for the nonlinear difference scheme.

Both problem types share one scheme, the conservative midpoint
discretization of ``-eps^2 (d(u) u')' + r(x, u) = 0``; a semilinear
problem is the case ``d = 1``, ``r = f``.  One residual and one Jacobian
implement it, the Jacobian's rows come from :func:`spgrid.linsolve.stencil`,
and :func:`_scheme` is the only dispatch on the problem type.

:func:`solve` iterates in correction form: each sweep solves the linearized
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

from .linsolve import TridiagonalSystem, stencil, thomas_solve
from .mesh import Mesh
from .problems import QuasilinearDiffusionProblem, SemilinearProblem

InitialGuess = Union[str, np.ndarray]


class NoConvergenceError(RuntimeError):
    """Newton hit max_iter or a non-finite update; carries the last update."""

    def __init__(self, message: str, final_update: float):
        super().__init__(message)
        self.final_update = final_update


class NonpositiveJacobianError(ValueError):
    """Reaction derivative (f_u or r_u) <= 0 or non-finite along the iterate."""


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


def _midpoint_diffusion(d, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interval midpoint values of ``y`` and the diffusion factor there."""
    mid = 0.5 * (y[:-1] + y[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        dm = d(mid)
    if not np.all(np.isfinite(dm)) or np.any(dm <= 0.0):
        raise SingularDiffusionError("diffusion factor not positive at a midpoint")
    return mid, dm


def _residual(mesh: Mesh, eps: float, d, reaction, y: np.ndarray,
              slopes: np.ndarray | None) -> np.ndarray:
    """``-eps^2/hbar_i (flux_{i+1/2} - flux_{i-1/2}) + reaction(x_i, y_i)``.

    The flux on an interval is ``d(midpoint) * slope``, or the slope alone
    when ``d`` is None (the semilinear scheme).
    """
    flux = _interval_slopes(mesh, y) if slopes is None else slopes
    if d is not None:
        flux = _midpoint_diffusion(d, y)[1] * flux
    return (-eps ** 2 * ((flux[1:] - flux[:-1]) / mesh.half_steps)
            + reaction(mesh.interior(), y[1:-1]))


def _jacobian(mesh: Mesh, eps: float, d, d_u, reaction_u, y: np.ndarray,
              picard: bool) -> TridiagonalSystem:
    """Tridiagonal Jacobian of :func:`_residual` about ``y`` (rhs left zero).

    ``d(m_j)`` moves by ``d_u(m_j)/2`` per unit change of either end value
    of interval j, so its flux weights are ``d(m_j) +- chain_j`` with
    ``chain_j = d_u(m_j) (y_{j+1} - y_j)/2``; Picard iteration drops chain.
    """
    b = reaction_u(mesh.interior(), y[1:-1])
    if np.any(b <= 0.0) or not np.all(np.isfinite(b)):
        raise NonpositiveJacobianError(
            "reaction derivative must be positive along the iterate")
    if d is None:
        return stencil(mesh, eps, b, np.zeros_like(b))
    mid, dm = _midpoint_diffusion(d, y)
    chain = 0.0 if picard else 0.5 * d_u(mid) * np.diff(y)
    return stencil(mesh, eps, b, np.zeros_like(b), dm + chain, dm - chain)


def semilinear_residual(mesh: Mesh, p: SemilinearProblem, y: np.ndarray,
                        slopes: np.ndarray | None = None) -> np.ndarray:
    """Interior residual ``-eps^2 y_xx + f(x, y)`` of the nonlinear scheme."""
    return _residual(mesh, p.eps, None, p.f, y, slopes)


def semilinear_jacobian(mesh: Mesh, p: SemilinearProblem, y: np.ndarray,
                        picard: bool = False) -> TridiagonalSystem:
    """Tridiagonal Jacobian rows about ``y`` (``picard`` has no terms to drop)."""
    return _jacobian(mesh, p.eps, None, None, p.f_u, y, picard)


def diffusion_residual(mesh: Mesh, p: QuasilinearDiffusionProblem, y: np.ndarray,
                       slopes: np.ndarray | None = None) -> np.ndarray:
    """Interior residual of the conservative midpoint scheme.

    ``F_i = -eps^2/hbar_i [ d(m_{i+1/2}) s_{i+1} - d(m_{i-1/2}) s_i ]
    + r(x_i, y_i)`` with interval midpoint values ``m`` and slopes ``s``.
    """
    return _residual(mesh, p.eps, p.d, p.r, y, slopes)


def diffusion_jacobian(mesh: Mesh, p: QuasilinearDiffusionProblem, y: np.ndarray,
                       picard: bool = False) -> TridiagonalSystem:
    """Analytic tridiagonal Jacobian of the midpoint scheme about ``y``."""
    return _jacobian(mesh, p.eps, p.d, p.d_u, p.r_u, y, picard)


def _scheme(problem):
    """``(residual, jacobian, reaction, reaction_u)`` for the problem type.

    The only dispatch on the problem type.  The functions are looked up
    in the module namespace at call time, so rebinding one of the public
    names (as a tracer does) reaches every caller.
    """
    if isinstance(problem, QuasilinearDiffusionProblem):
        return diffusion_residual, diffusion_jacobian, problem.r, problem.r_u
    return semilinear_residual, semilinear_jacobian, problem.f, problem.f_u


def newton_step(mesh: Mesh, problem, y: np.ndarray,
                slopes: np.ndarray | None = None,
                picard: bool = False) -> tuple[np.ndarray, float]:
    """One Newton correction about ``y``; returns (new iterate, |delta|_inf).

    Boundary entries of ``y`` are kept verbatim (the correction has zero
    boundary values).
    """
    residual, jacobian, _, _ = _scheme(problem)
    F = residual(mesh, problem, y, slopes)
    jac = jacobian(mesh, problem, y, picard)
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
    _, _, fun, der = _scheme(problem)
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


def solve(mesh: Mesh, problem, cfg: NewtonConfig | None = None) -> SolveOutcome:
    """Solve the nonlinear scheme of either problem type by Newton's method."""
    cfg = cfg or NewtonConfig()
    t0 = time.perf_counter()
    y = _start_vector(mesh, problem, cfg)
    updates = []
    for _ in range(cfg.max_iter):
        y, upd = newton_step(mesh, problem, y, picard=cfg.picard)
        updates.append(upd)
        if not np.isfinite(upd):
            raise NoConvergenceError(
                f"non-finite update in iteration {len(updates)}", final_update=upd)
        if upd <= cfg.tol:
            break
    else:
        raise NoConvergenceError(
            f"no convergence in {cfg.max_iter} iterations "
            f"(last update {updates[-1]:.3e})", final_update=updates[-1])
    res = residual_for(mesh, problem, y)
    return SolveOutcome(y=y, iterations=len(updates), final_update=updates[-1],
                        converged=True, wall_time=time.perf_counter() - t0,
                        residual_norm=float(np.max(np.abs(res))),
                        update_history=updates)


def residual_for(mesh: Mesh, problem, y: np.ndarray) -> np.ndarray:
    """Interior nonlinear-scheme residual, dispatched on the problem type."""
    return _scheme(problem)[0](mesh, problem, y)


def jacobian_fd_gap(mesh: Mesh, problem, y: np.ndarray) -> float:
    """Max entrywise gap between the analytic Jacobian and central differences.

    The gap is relative to the entry magnitude, floored at one; intended
    as a correctness check, not for production paths.  Row i of the
    residual reads only unknowns i-1, i and i+1, so perturbing every third
    unknown at once (Curtis, Powell and Reid 1974) leaves each row one
    perturbed neighbour: three residual pairs give the same entries as a
    loop over single columns, in O(n).
    """
    residual, jacobian, _, _ = _scheme(problem)
    jac = jacobian(mesh, problem, y)
    m = mesh.n - 1
    gap = 0.0
    for colour in range(3):
        cols = np.arange(colour, m, 3)
        step = 1e-6 * (1.0 + np.abs(y[cols + 1]))
        yp = y.copy()
        yp[cols + 1] += step
        ym = y.copy()
        ym[cols + 1] -= step
        diff = residual(mesh, problem, yp) - residual(mesh, problem, ym)
        # column j holds diag[j], sup[j - 1] in row j - 1 and sub[j + 1] in row j + 1
        for shift, band in ((0, jac.diag), (-1, jac.sup), (1, jac.sub)):
            rows = cols + shift
            inside = (rows >= 0) & (rows < m)
            a = band[rows[inside]]
            fd = diff[rows[inside]] / (2.0 * step[inside])
            rel = np.abs(a - fd) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(fd)))
            gap = max(gap, float(np.max(rel, initial=0.0)))
    return gap
