"""Newton (quasilinearization) solver for the nonlinear difference scheme.

Both problem types share one scheme, the conservative midpoint
discretization of ``-eps^2 (d(u) u')' + r(x, u) = source(x)``; a
semilinear problem is the case ``d = 1``, ``r = f``.  One residual and one
Jacobian implement it: :func:`_jacobian` assembles the three-point rows
that :func:`spgrid.linsolve.thomas_solve` solves, and :func:`_scheme` is
the only dispatch on the problem type.  The source depends on the mesh
alone: :func:`solve` evaluates it once (:func:`interior_source`) and hands
the array to the start sweep and to every residual; likewise it builds the
rows' :func:`couplings` once for every Jacobian.

:func:`solve` and every fine level of :func:`levels`, the walk of a
two-grid cascade, run one loop, :func:`_iterate`, in correction form: each
sweep solves the linearized tridiagonal system ``J(y) delta = -F(y)`` for
the update and sets ``y <- y + delta``.  Algebraically
this is the classical quasilinearization sweep ``(-eps^2 D_h + f_u(y)) y_new
= f_u(y) y - f(x, y)``, but the correction form stays accurate on strongly
graded fine meshes where solving for the full solution would lose ~6 digits
to cancellation.

Above ``NESTED_BASE`` intervals :func:`solve` starts from the interpolant
of its own solution on every 16th node (mesh independence: Allgower, Böhmer,
Potra and Rheinboldt, *SIAM J. Numer. Anal.* 23, 1986).

Residuals may be evaluated with caller-supplied per-interval slopes of the
current iterate (see :func:`spgrid.mesh.interpolant_slopes`).  A fine
level of :func:`levels` hands over the slopes its transfer already formed,
which spares its first residual one slope pass; fed none, it gives the same
solution to rounding (within 2e-15), only slower.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .linsolve import thomas_solve
from .mesh import Mesh, coarsen, interpolant_slopes
from .problems import QuasilinearDiffusionProblem, SemilinearProblem

Midpoint = tuple[np.ndarray, np.ndarray | None]  # (d(m), chain), see _midpoint_diffusion
Scales = tuple[np.ndarray, np.ndarray]  # (scale_l, scale_r), see couplings
Bands = tuple[np.ndarray, np.ndarray, np.ndarray]  # (sub, diag, sup), see _jacobian


class NoConvergenceError(RuntimeError):
    """Newton hit MAX_ITER or a non-finite update; carries the last update."""

    def __init__(self, message: str, final_update: float):
        super().__init__(message)
        self.final_update = final_update


class NonpositiveJacobianError(ValueError):
    """Reaction derivative f_u or r_u (a linear problem's b) <= 0 or non-finite."""


class SingularDiffusionError(ValueError):
    """Diffusion factor not positive/finite at an interval midpoint."""


#: :func:`solve`'s stop tolerance for :func:`_converged`, its step cap, and
#: the size above which it starts from its solution on every 16th node.
TOL = 1e-13
MAX_ITER = 50
NESTED_BASE = 4096
NESTED_RATIO = 16


@dataclass
class SolveOutcome:
    """Converged discrete solution plus iteration diagnostics.

    Built only once :func:`_converged` holds (a fine level of :func:`levels`
    tests at ``tol = inf``: its first finite update converges).  Plain data: the
    residual of ``y`` is :func:`residual_for` on the mesh it was solved on.
    """

    y: np.ndarray
    iterations: int
    final_update: float
    update_history: list


def _interval_slopes(mesh: Mesh, y: np.ndarray) -> np.ndarray:
    return (y[1:] - y[:-1]) / mesh.steps


def _midpoint_diffusion(d, d_u, y: np.ndarray) -> Midpoint:
    """``(d(m), chain)`` at the interval midpoints ``m`` of ``y``, with
    ``chain_j = d_u(m_j) (y_{j+1} - y_j)/2`` (None when ``d_u`` is None)."""
    mid = 0.5 * (y[:-1] + y[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        dm = np.asarray(d(mid))
    if not (dm.min() > 0.0 and dm.max() < math.inf):  # NaN fails too
        raise SingularDiffusionError("diffusion factor not positive and finite "
                                     "at a midpoint")
    if d_u is None:
        return dm, None
    chain = 0.5 * d_u(mid)
    chain *= y[1:] - y[:-1]
    return dm, chain


def interior_source(mesh: Mesh, problem) -> np.ndarray:
    """The problem's x-only source at the interior nodes (zeros for None)."""
    if problem.source is None:
        return np.zeros(mesh.n - 1)
    return problem.source(mesh.interior())


def _residual(mesh: Mesh, p, d, reaction, y: np.ndarray,
              slopes: np.ndarray | None, src: np.ndarray | None,
              midpoint: Midpoint | None = None) -> np.ndarray:
    """``-eps^2/hbar_i (flux_{i+1/2} - flux_{i-1/2}) + reaction(x_i, y_i) - src_i``.

    The flux on an interval is ``d(midpoint) * slope``, or the slope alone
    when ``d`` is None (the semilinear scheme).  ``src`` is
    :func:`interior_source` and ``midpoint`` is :func:`_midpoint_diffusion`
    of ``y``, each evaluated here when not given; only its ``d(m)`` is read.
    """
    if src is None:
        src = interior_source(mesh, p)
    flux = _interval_slopes(mesh, y) if slopes is None else slopes
    if d is not None:
        flux = (midpoint or _midpoint_diffusion(d, None, y))[0] * flux
    return (-p.eps ** 2 * ((flux[1:] - flux[:-1]) / mesh.half_steps)
            + (reaction(mesh.interior(), y[1:-1]) - src))


def _scale(mesh: Mesh, eps: float, h: np.ndarray) -> np.ndarray:
    """``-eps^2/(hbar_i h)`` for ``h = steps[:-1]`` (left) or ``steps[1:]`` (right)."""
    prod = mesh.half_steps * h
    return np.divide(-(eps * eps), prod, out=prod)


def couplings(mesh: Mesh, eps: float) -> Scales:
    """``(scale_l, scale_r)``, built once per solve: ``-eps^2/(hbar_i h_i)``
    and ``-eps^2/(hbar_i h_{i+1})`` couple row i through its left and its
    right interval (for unit flux weights they are ``sub`` and ``sup``).
    Read-only, because every Newton iteration shares them."""
    scale_l = _scale(mesh, eps, mesh.steps[:-1])
    scale_r = _scale(mesh, eps, mesh.steps[1:])
    scale_l.flags.writeable = scale_r.flags.writeable = False
    return scale_l, scale_r


def _jacobian(mesh: Mesh, eps: float, d, d_u, reaction_u, y: np.ndarray,
              cpl: Scales | None, midpoint: Midpoint | None = None) -> Bands:
    """Tridiagonal Jacobian ``(sub, diag, sup)`` of :func:`_residual` about ``y``.

    Row i is ``-eps^2/hbar_i (phi_{i+1/2} - phi_{i-1/2}) + b_i y_i``, ``b =
    reaction_u``, with the flux ``phi_j = (right_j y_{j+1} - left_j y_j) /
    h_j`` on interval j; ``sub[0]`` and ``sup[-1]`` couple to the boundary
    values.  With ``d`` None the weights are one and the off-diagonals are
    the couplings themselves.  Else ``d(m_j)`` moves by ``d_u(m_j)/2`` per
    unit change of either end value of interval j, so the weights are
    ``d(m_j) +- chain_j``, ``chain_j = d_u(m_j) (y_{j+1} - y_j)/2``, written
    straight into the bands: ``left`` overwrites the chain, ``sup`` is
    ``right[1:]`` and ``left[1:]`` holds the diagonal's second product.
    ``cpl`` are the solve's :func:`couplings` and ``midpoint`` is
    :func:`_midpoint_diffusion` of ``y``, each built here when not given.
    """
    b = np.asarray(reaction_u(mesh.interior(), y[1:-1]))
    if not (b.min() > 0.0 and b.max() < math.inf):  # NaN fails too
        raise NonpositiveJacobianError(
            "reaction derivative must be positive and finite along the iterate")
    if d is None:  # unit weights: the same rows without four products
        sub, sup = couplings(mesh, eps) if cpl is None else cpl
        return sub, b - (sub + sup), sup
    dm, chain = midpoint or _midpoint_diffusion(d, d_u, y)
    right = dm + chain
    left = np.subtract(dm, chain, out=chain)
    # without cached couplings, one side's at a time: a band fewer at the peak
    scale = _scale(mesh, eps, mesh.steps[:-1]) if cpl is None else cpl[0]
    diag = scale * right[:-1]
    sub = scale * left[:-1]
    del scale
    scale = _scale(mesh, eps, mesh.steps[1:]) if cpl is None else cpl[1]
    diag += np.multiply(scale, left[1:], out=left[1:])
    np.subtract(b, diag, out=diag)
    sup = np.multiply(scale, right[1:], out=right[1:])
    return sub, diag, sup


def semilinear_residual(mesh: Mesh, p: SemilinearProblem, y: np.ndarray,
                        slopes: np.ndarray | None = None,
                        src: np.ndarray | None = None) -> np.ndarray:
    """Interior residual ``-eps^2 y_xx + f(x, y) - source(x)`` of the scheme."""
    return _residual(mesh, p, None, p.f, y, slopes, src)


def semilinear_jacobian(mesh: Mesh, p: SemilinearProblem, y: np.ndarray,
                        cpl: Scales | None = None) -> Bands:
    """Tridiagonal Jacobian rows about ``y``."""
    return _jacobian(mesh, p.eps, None, None, p.f_u, y, cpl)


def diffusion_residual(mesh: Mesh, p: QuasilinearDiffusionProblem, y: np.ndarray,
                       slopes: np.ndarray | None = None,
                       src: np.ndarray | None = None,
                       midpoint: Midpoint | None = None) -> np.ndarray:
    """Interior residual of the conservative midpoint scheme.

    ``F_i = -eps^2/hbar_i [ d(m_{i+1/2}) s_{i+1} - d(m_{i-1/2}) s_i ]
    + r(x_i, y_i) - source(x_i)`` with interval midpoint values ``m`` and
    slopes ``s``.  ``midpoint`` is :func:`_midpoint_diffusion` of ``y`` if
    already evaluated (:func:`newton_step` shares it with the Jacobian).
    """
    return _residual(mesh, p, p.d, p.r, y, slopes, src, midpoint)


def diffusion_jacobian(mesh: Mesh, p: QuasilinearDiffusionProblem, y: np.ndarray,
                       cpl: Scales | None = None,
                       midpoint: Midpoint | None = None) -> Bands:
    """Analytic tridiagonal Jacobian of the midpoint scheme about ``y``;
    ``midpoint`` is :func:`_midpoint_diffusion` of ``y`` if already evaluated,
    and the Jacobian writes over its chain."""
    return _jacobian(mesh, p.eps, p.d, p.d_u, p.r_u, y, cpl, midpoint)


def _scheme(problem):
    """``(residual, jacobian, reaction, reaction_u, unit)`` for the problem type.

    The only dispatch on the problem type; ``unit`` says that the flux
    weights are one (the semilinear scheme).  The functions are looked up
    in the module namespace at call time, so rebinding one of the public
    names (as a tracer does) reaches every caller.
    """
    if isinstance(problem, QuasilinearDiffusionProblem):
        return diffusion_residual, diffusion_jacobian, problem.r, problem.r_u, False
    return semilinear_residual, semilinear_jacobian, problem.f, problem.f_u, True


def newton_step(mesh: Mesh, problem, y: np.ndarray,
                slopes: np.ndarray | None = None,
                src: np.ndarray | None = None,
                cpl: Scales | None = None) -> tuple[np.ndarray, float]:
    """One Newton correction about ``y``; returns (new iterate, |delta|_inf).

    Boundary entries of ``y`` are kept verbatim (the correction has zero
    boundary values).  ``src`` is :func:`interior_source` and ``cpl`` the
    Jacobian's :func:`couplings`, if already built.  The quasilinear
    scheme's midpoint diffusion and chain are evaluated once, shared by
    residual and Jacobian, and dropped before the linear solve; ``slopes``
    are dropped after the residual.
    """
    residual, jacobian, _, _, unit = _scheme(problem)
    shared = {} if unit else {"midpoint": _midpoint_diffusion(problem.d, problem.d_u, y)}
    F = residual(mesh, problem, y, slopes, src, **shared)
    del slopes  # the caller handed over its last reference (see _iterate)
    jac = jacobian(mesh, problem, y, cpl, **shared)
    del shared
    # J delta = -F solved as J (-delta) = F: the solve is odd in its
    # right-hand side, bit for bit, so no negated copy of F is needed
    neg_delta = thomas_solve(*jac, F)
    out = y.copy()
    out[1:-1] -= neg_delta
    return out, float(np.abs(neg_delta).max())


def reduced_initial(mesh: Mesh, problem,
                    src: np.ndarray | None = None) -> np.ndarray:
    """Per-node root of the reaction term, the start of :func:`solve`.

    Damped scalar Newton (steps clamped to 0.5) on ``f(x, .) = source(x)``
    or ``r(x, .) = source(x)``; robust against nonlinearities whose tangent
    from zero overshoots into a singularity.  The sweeps stop once every
    clamped step is below an absolute 1e-12, or after 60.  ``src`` is
    :func:`interior_source` if already evaluated.
    """
    _, _, fun, der, _ = _scheme(problem)
    if src is None:
        src = interior_source(mesh, problem)
    xi = mesh.interior()
    u = np.zeros_like(xi)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(60):
            step = (fun(xi, u) - src) / der(xi, u)
            # +-inf clips to +-0.5 (maximum and minimum propagate NaN, as
            # np.clip does); a NaN step (0/0) moves nothing.  The stop test
            # reads the clipped step, which decides alike as 1e-12 < 0.5.
            np.maximum(step, -0.5, out=step)
            np.minimum(step, 0.5, out=step)
            np.copyto(step, 0.0, where=np.isnan(step))
            u -= step
            if np.abs(step).max() < 1e-12:
                break
    y = np.empty(mesh.n + 1)
    y[1:-1] = u
    y[0] = problem.bc_left
    y[-1] = problem.bc_right
    return y


def _converged(updates: list, y: np.ndarray, tol: float) -> bool:
    """Error-oriented stop test (Deuflhard, *Newton Methods for Nonlinear
    Problems*, 2004): the last of the ``updates``, or, if the last two
    contract by ``theta <= 1/2``, the bound ``theta/(1 - theta) * update`` on
    the distance of ``y`` to the discrete solution is at most ``tol * max(1,
    |y|_inf)``.  At ``tol = inf`` (one sweep) it holds at once, reading no
    ``|y|_inf``."""
    if tol == math.inf:
        return True
    update = updates[-1]
    tau = tol * max(1.0, float(np.abs(y).max()))
    theta = update / updates[-2] if len(updates) > 1 else 1.0
    return update <= tau or (theta <= 0.5 and theta / (1.0 - theta) * update <= tau)


def _iterate(mesh: Mesh, problem, y: np.ndarray, first: list,
             src: np.ndarray | None, cpl: Scales | None,
             tol: float) -> SolveOutcome:
    """Newton steps from ``y`` until :func:`_converged` holds at ``tol``,
    at most ``MAX_ITER`` of them.

    ``y`` is pinned to the Dirichlet data in place.  ``first`` holds the
    start's interval slopes, or nothing: popped into the first step, they
    die after its residual.  A non-finite update raises; ``tol = inf``
    accepts the first finite one.  ``newton_step`` is looked up at call
    time, so a rebinding reaches it.
    """
    y[0], y[-1] = problem.bc_left, problem.bc_right
    updates = []
    for _ in range(MAX_ITER):
        y, upd = newton_step(mesh, problem, y, slopes=first.pop() if first else None,
                             src=src, cpl=cpl)
        updates.append(upd)
        if not math.isfinite(upd):
            raise NoConvergenceError(
                f"non-finite update in iteration {len(updates)}", final_update=upd)
        if _converged(updates, y, tol):
            return SolveOutcome(y=y, iterations=len(updates), final_update=upd,
                                update_history=updates)
    raise NoConvergenceError(f"no convergence in {MAX_ITER} iterations (last "
                             f"update {upd:.3e})", final_update=upd)


def solve(mesh: Mesh, problem) -> SolveOutcome:
    """Solve the nonlinear scheme of either problem type by Newton's method
    to ``TOL`` within ``MAX_ITER`` steps, from :func:`reduced_initial` up to
    ``NESTED_BASE`` intervals and from :func:`_nested_start` above, where
    ``iterations`` counts the sweeps on ``mesh`` alone."""
    if mesh.n > NESTED_BASE:  # the start first: src and cpl are not held through it
        return _iterate(mesh, problem, _nested_start(mesh, problem), [],
                        interior_source(mesh, problem), couplings(mesh, problem.eps), TOL)
    src = interior_source(mesh, problem)
    return _iterate(mesh, problem, reduced_initial(mesh, problem, src), [], src,
                    couplings(mesh, problem.eps), TOL)


def _nested_start(mesh: Mesh, problem) -> np.ndarray:
    """The interpolant of :func:`solve` on every ``NESTED_RATIO``-th node.  Its
    slopes would spare the first residual a slope pass, which buys no time."""
    coarse = coarsen(mesh, NESTED_RATIO)
    return interpolant_slopes(coarse, solve(coarse, problem).y, mesh)[0]


def levels(problem, mesh: Mesh,
           finer: Iterable[Mesh] = ()) -> Iterator[tuple[Mesh, SolveOutcome]]:
    """Walk a two-grid cascade: yield ``(mesh, outcome)`` for :func:`solve` on
    ``mesh``, then for one Newton sweep on each mesh of ``finer`` from the
    interpolant of the level before.

    ``finer`` is read lazily, so each fine mesh is built inside its own
    level, after the level before was yielded.  A fine level is the loop at
    ``tol = inf``: it accepts its first finite update and raises on a
    non-finite one.  Neither :func:`couplings` nor the source are built
    ahead, and the interpolant's slopes are handed over in a list that the
    first step empties: held through the step, each would raise the peak
    memory.

    A fine level certifies its own gap to the direct fine solution ``y_h``.
    For the semilinear scheme ``y - y_h = J(w)^-1 R``, ``R_i = f_uu(xi_i)/2
    (w_i - y_h,i)^2``; the M-matrix ``J(w)`` has ``|J(w)^-1|_inf <= 1/min
    f_u`` for every eps, so ``|y - y_h| <= max|f_uu|/(2 min f_u) |w -
    y_h|^2``, where ``final_update = |y - w|`` stands in for ``|w - y_h|``.
    """
    outcome = solve(mesh, problem)
    yield mesh, outcome
    for fine in finer:
        w, *first = interpolant_slopes(mesh, outcome.y, fine)
        mesh, outcome = fine, _iterate(fine, problem, w, first, None, None, math.inf)
        yield mesh, outcome


def residual_for(mesh: Mesh, problem, y: np.ndarray) -> np.ndarray:
    """Interior nonlinear-scheme residual, dispatched on the problem type."""
    return _scheme(problem)[0](mesh, problem, y)
