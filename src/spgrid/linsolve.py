"""Three-point difference scheme for linear reaction-diffusion problems.

For ``-eps^2 u'' + b(x) u = g(x)`` on a (possibly strongly nonuniform)
mesh, interior row ``i`` of the discrete system reads

    -eps^2/(hbar_i h_i) y_{i-1}
      + [eps^2/hbar_i (1/h_i + 1/h_{i+1}) + b(x_i)] y_i
      - eps^2/(hbar_i h_{i+1}) y_{i+1}  =  g(x_i),

with Dirichlet data folded into the first and last right-hand sides.
:func:`stencil` builds these rows; with per-interval flux weights in place
of the unit ones it also builds the Newton Jacobians of the nonlinear
scheme (:mod:`spgrid.newton`).  With ``b > 0`` the matrix is an irreducibly diagonally dominant M-matrix,
so elimination needs no pivoting: :func:`thomas_solve` removes the odd rows
level by level (cyclic reduction, Hockney 1965) and ends in Thomas elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh


class NonpositiveCoefficientError(ValueError):
    """Reaction coefficient b(x_i) <= 0 at some interior node."""


class ZeroPivotError(RuntimeError):
    """Vanishing pivot during elimination; diagonal dominance is broken."""


@dataclass(frozen=True)
class TridiagonalSystem:
    """Interior system for unknowns ``y_1 ... y_{n-1}``.

    All four arrays have length ``n - 1``; ``sub[0]`` and ``sup[-1]`` are
    zero by convention.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    rhs: np.ndarray

    @property
    def m(self) -> int:
        return len(self.diag)


def _values(func_or_array, x: np.ndarray) -> np.ndarray:
    if callable(func_or_array):
        return np.asarray(func_or_array(x), dtype=float)
    vals = np.asarray(func_or_array, dtype=float)
    if vals.shape != x.shape:
        raise ValueError("coefficient array length does not match interior nodes")
    return vals


def stencil(mesh: Mesh, eps: float, b: np.ndarray, rhs: np.ndarray,
            right: np.ndarray | None = None, left: np.ndarray | None = None,
            bc_left: float = 0.0, bc_right: float = 0.0) -> TridiagonalSystem:
    """Three-point rows of ``-eps^2/hbar_i (phi_{i+1/2} - phi_{i-1/2}) + b_i y_i``.

    The flux on interval j (nodes j, j+1) is linear in its end values,
    ``phi_j = (right_j y_{j+1} - left_j y_j) / h_j``.  ``right`` and
    ``left`` are per-interval arrays, given together; both default to one,
    the plain second difference.  Dirichlet data is folded into ``rhs`` in
    place.
    """
    h = mesh.steps
    hbar = mesh.half_steps
    e2 = eps * eps
    # coupling scale of each row through its left and its right interval
    scale_l = -e2 / (hbar * h[:-1])
    scale_r = -e2 / (hbar * h[1:])
    if right is None:  # unit weights: the same rows without four products
        lower, upper = scale_l, scale_r
        diag = b - (lower + upper)
    else:
        lower = scale_l * left[:-1]
        upper = scale_r * right[1:]
        diag = b - (scale_l * right[:-1] + scale_r * left[1:])
    rhs[0] -= lower[0] * bc_left
    rhs[-1] -= upper[-1] * bc_right
    sub = np.concatenate(([0.0], lower[1:]))
    sup = np.concatenate((upper[:-1], [0.0]))
    return TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs)


def assemble(mesh: Mesh, eps: float, b, g,
             bc_left: float = 0.0, bc_right: float = 0.0) -> TridiagonalSystem:
    """Assemble the interior tridiagonal system.

    ``b`` and ``g`` may be callables of the interior nodes or plain arrays
    of interior values.
    """
    xi = mesh.interior()
    bvals = _values(b, xi)
    if np.any(bvals <= 0.0):
        raise NonpositiveCoefficientError("b(x) must be strictly positive")
    return stencil(mesh, eps, bvals, _values(g, xi).copy(), bc_left=bc_left,
                   bc_right=bc_right)


# Systems this small are cheaper in the scalar loop than as numpy levels.
REDUCTION_BASE = 128
_PAD = (0.0, 1.0, 0.0, 0.0)  # decoupled unit row: sub, diag, sup, rhs


def thomas_solve(sys: TridiagonalSystem) -> np.ndarray:
    """Odd-even cyclic reduction to ``REDUCTION_BASE`` rows, then Thomas.

    Even-length levels get a decoupled unit row appended, trimmed again on
    the way back.  A zero or non-finite pivot raises :class:`ZeroPivotError`.
    """
    a, b, c, d = sys.sub, sys.diag, sys.sup, sys.rhs
    levels = []
    while len(b) > REDUCTION_BASE:
        m = len(b)
        if m % 2 == 0:
            a, b, c, d = (np.append(v, pad) for v, pad in zip((a, b, c, d), _PAD))
        ao, bo, co, do = a[1::2], b[1::2], c[1::2], d[1::2]
        bad = ~(np.abs(bo) >= 1e-300) | np.isinf(bo)
        if bad.any():
            raise ZeroPivotError("zero or non-finite pivot in row "
                                 f"{(2 * bad.argmax() + 1) << len(levels)}")
        inv = 1.0 / bo
        alpha = -a[2::2] * inv   # even row 2j+2 eliminates odd row 2j+1 ...
        gamma = -c[:-1:2] * inv  # ... and so does even row 2j
        b, d = b[::2].copy(), d[::2].copy()
        b[1:] += alpha * co
        b[:-1] += gamma * ao
        d[1:] += alpha * do
        d[:-1] += gamma * do
        a = np.concatenate(([0.0], alpha * ao))
        c = np.concatenate((gamma * co, [0.0]))
        levels.append((m, ao, co, do, inv))
    # scalar Thomas elimination; row i here is row i << len(levels) above
    sub, diag, sup, rhs = a.tolist(), b.tolist(), c.tolist(), d.tolist()
    m = len(diag)
    c = [0.0] * m
    d = [0.0] * m
    for i in range(m):  # c[-1] and d[-1] are still 0.0 at i = 0
        piv = diag[i] - sub[i] * c[i - 1]
        if not 1e-300 <= abs(piv) < math.inf:
            raise ZeroPivotError("zero or non-finite pivot in row "
                                 f"{i << len(levels)}")
        c[i] = sup[i] / piv
        d[i] = (rhs[i] - sub[i] * d[i - 1]) / piv
    for i in range(m - 2, -1, -1):
        d[i] -= c[i] * d[i + 1]
    y = np.asarray(d)
    for m, ao, co, do, inv in reversed(levels):
        full = np.empty(2 * len(y) - 1)
        full[::2] = y
        full[1::2] = (do - ao * y[:-1] - co * y[1:]) * inv
        y = full[:m]
    return y


def residual_norm(sys: TridiagonalSystem, y: np.ndarray) -> float:
    """Max-norm of ``A y - rhs`` for an interior solution vector."""
    ay = sys.diag * y
    ay[1:] += sys.sub[1:] * y[:-1]
    ay[:-1] += sys.sup[:-1] * y[1:]
    return float(np.max(np.abs(ay - sys.rhs)))


def solve_linear(mesh: Mesh, eps: float, b, g,
                 bc_left: float = 0.0, bc_right: float = 0.0) -> np.ndarray:
    """Assemble and solve; returns the full vector ``y_0 ... y_n``."""
    sys = assemble(mesh, eps, b, g, bc_left, bc_right)
    y = np.empty(mesh.n + 1)
    y[0] = bc_left
    y[-1] = bc_right
    y[1:-1] = thomas_solve(sys)
    return y
