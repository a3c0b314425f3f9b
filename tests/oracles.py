"""Test oracles: independent routes to what the library computes.

Nothing in ``spgrid`` calls them; tests and ``tools/bitwise_digest.py``
(which imports this file by name, after loading ``spgrid`` from the source
tree it digests) do.
"""

from __future__ import annotations

import math

import numpy as np

from spgrid.mesh import Mesh
from spgrid.newton import TOL, SolveOutcome, _iterate, _scheme, interior_source, reduced_initial
from spgrid.problems import QuasilinearDiffusionProblem, SemilinearProblem


def log_transform(p: QuasilinearDiffusionProblem) -> SemilinearProblem:
    """Rewrite a ``d(u) = 1/(1+u)`` diffusion problem in semilinear form.

    With ``v = ln(1 + u)`` the flux ``u'/(1+u)`` becomes ``v'``, so ``v``
    solves ``-eps^2 v'' + r(x, exp(v) - 1) = source(x)`` with transformed
    boundary data and the same source.  Used as an independent cross-check
    of the quasilinear solver.
    """
    if p.bc_left <= -1.0 or p.bc_right <= -1.0:
        raise ValueError("boundary values must exceed -1 for the log substitution")
    us = np.linspace(-0.9, 9.0, 67)
    if not np.allclose(p.d(us), 1.0 / (1.0 + us), rtol=1e-12, atol=1e-12):
        raise ValueError("diffusion factor is not 1/(1+u); transform does not apply")

    def f(x, v):
        return p.r(x, np.expm1(v))

    def f_u(x, v):
        ev = np.exp(v)
        return p.r_u(x, ev - 1.0) * ev

    exact = None
    if p.exact is not None:
        inner = p.exact

        def exact(x):
            return np.log1p(inner(x))

    return SemilinearProblem(eps=p.eps, f=f, f_u=f_u,
                             bc_left=math.log1p(p.bc_left),
                             bc_right=math.log1p(p.bc_right),
                             exact=exact, source=p.source)


def reduced_start_solve(mesh: Mesh, problem) -> SolveOutcome:
    """Newton to ``TOL`` from :func:`spgrid.newton.reduced_initial` on ``mesh``
    itself, at any size: :func:`spgrid.newton.solve` without its nested start."""
    return _iterate(mesh, problem, reduced_initial(mesh, problem), [], None, None, TOL)


def jacobian_fd_gap(mesh: Mesh, problem, y: np.ndarray) -> float:
    """Max entrywise gap between the analytic Jacobian and central differences.

    The gap is relative to the entry magnitude, floored at one; intended
    as a correctness check, not for production paths.  Row i of the
    residual reads only unknowns i-1, i and i+1, so perturbing every third
    unknown at once (Curtis, Powell and Reid 1974) leaves each row one
    perturbed neighbour: three residual pairs give the same entries as a
    loop over single columns, in O(n).
    """
    residual, jacobian, _, _, _ = _scheme(problem)
    sub, diag, sup = jacobian(mesh, problem, y)
    src = interior_source(mesh, problem)
    m = mesh.n - 1
    gap = 0.0
    for colour in range(3):
        cols = np.arange(colour, m, 3)
        step = 1e-6 * (1.0 + np.abs(y[cols + 1]))
        yp = y.copy()
        yp[cols + 1] += step
        ym = y.copy()
        ym[cols + 1] -= step
        diff = (residual(mesh, problem, yp, src=src)
                - residual(mesh, problem, ym, src=src))
        # column j holds diag[j], sup[j - 1] in row j - 1 and sub[j + 1] in row j + 1
        for shift, band in ((0, diag), (-1, sup), (1, sub)):
            rows = cols + shift
            inside = (rows >= 0) & (rows < m)
            a = band[rows[inside]]
            fd = diff[rows[inside]] / (2.0 * step[inside])
            rel = np.abs(a - fd) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(fd)))
            gap = max(gap, float(np.max(rel, initial=0.0)))
    return gap
