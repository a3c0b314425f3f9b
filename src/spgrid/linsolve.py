"""Three-point difference scheme for linear reaction-diffusion problems.

For ``-eps^2 u'' + b(x) u = g(x)`` on a (possibly strongly nonuniform)
mesh, interior row ``i`` of the discrete system reads

    -eps^2/(hbar_i h_i) y_{i-1}
      + [eps^2/hbar_i (1/h_i + 1/h_{i+1}) + b(x_i)] y_i
      - eps^2/(hbar_i h_{i+1}) y_{i+1}  =  g(x_i),

with Dirichlet data folded into the first and last right-hand sides.
:func:`stencil` builds these rows; with per-interval flux weights in place
of the unit ones it also builds the Newton Jacobians of the nonlinear
scheme (:mod:`spgrid.newton`).  The couplings ``-eps^2/(hbar_i h_i)``
depend on the mesh and eps alone, so a Newton solve builds them once
(:func:`couplings`, read-only) and every Jacobian reuses them.  With
``b > 0`` the matrix is an irreducibly diagonally dominant M-matrix, so
elimination needs no pivoting: :func:`thomas_solve` removes the odd rows
level by level, by one rule at every level length (cyclic reduction,
Hockney 1965), and ends in Thomas elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .mesh import Mesh


class NonpositiveCoefficientError(ValueError):
    """Reaction coefficient b(x_i) <= 0 or non-finite at some interior node."""


class ZeroPivotError(RuntimeError):
    """Vanishing pivot during elimination; diagonal dominance is broken."""


@dataclass(frozen=True)
class TridiagonalSystem:
    """Interior system for unknowns ``y_1 ... y_{n-1}``.

    All four arrays have length ``n - 1``; ``sub[0]`` and ``sup[-1]`` hold
    the couplings to the boundary values and are never read by
    :func:`thomas_solve`.  :func:`stencil` leaves ``rhs`` None: :func:`assemble`
    supplies it, and a Newton step its residual.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    rhs: np.ndarray | None


@dataclass(frozen=True)
class Couplings:
    """The parts of the stencil rows that depend on the mesh and eps alone.

    ``scale_l = -eps^2/(hbar_i h_i)`` and ``scale_r = -eps^2/(hbar_i
    h_{i+1})`` couple row i through its left and its right interval; for
    unit flux weights they are the rows' off-diagonals ``sub``/``sup``, and
    their sum ``total`` is fixed too (None unless asked for).  All arrays
    are read-only, because every Newton iteration shares them.
    """

    scale_l: np.ndarray
    scale_r: np.ndarray
    total: np.ndarray | None = None


def _values(func_or_array, x: np.ndarray) -> np.ndarray:
    if callable(func_or_array):
        return np.asarray(func_or_array(x), dtype=float)
    vals = np.asarray(func_or_array, dtype=float)
    if vals.shape != x.shape:
        raise ValueError("coefficient array length does not match interior nodes")
    return vals


def _scale(mesh: Mesh, eps: float, h: np.ndarray) -> np.ndarray:
    """``-eps^2/(hbar_i h)`` for ``h = steps[:-1]`` (left) or ``steps[1:]`` (right)."""
    prod = mesh.half_steps * h
    return np.divide(-(eps * eps), prod, out=prod)


def couplings(mesh: Mesh, eps: float, unit: bool = False) -> Couplings:
    """Build the :class:`Couplings` of ``mesh``; ``unit`` adds their sum.

    Build them once per solve and pass them to :func:`stencil` for every
    Jacobian; a one-shot assembly needs none.
    """
    scale_l = _scale(mesh, eps, mesh.steps[:-1])
    scale_r = _scale(mesh, eps, mesh.steps[1:])
    arrays = [scale_l, scale_r]
    if unit:
        arrays.append(scale_l + scale_r)
    for arr in arrays:
        arr.flags.writeable = False
    return Couplings(*arrays)


def stencil(mesh: Mesh, eps: float, b: np.ndarray,
            right: np.ndarray | None = None, left: np.ndarray | None = None,
            cpl: Couplings | None = None) -> TridiagonalSystem:
    """Three-point rows of ``-eps^2/hbar_i (phi_{i+1/2} - phi_{i-1/2}) + b_i y_i``.

    The flux on interval j (nodes j, j+1) is linear in its end values,
    ``phi_j = (right_j y_{j+1} - left_j y_j) / h_j``.  ``right`` and
    ``left`` are per-interval arrays, given together; both default to one,
    the plain second difference; the rows leave ``rhs`` None.  ``cpl`` are
    this mesh's :func:`couplings`, the unit-weight bands themselves; with
    ``total`` cached, unit weights cost one subtraction.  Weighted rows are
    written straight into their bands, and a weighted call overwrites
    ``right`` and ``left``: ``sup`` is ``right[1:]``, and ``left[1:]`` holds
    the diagonal's second product.
    """
    if right is None:  # unit weights: the same rows without four products
        if cpl is None:  # bands of its own, not the read-only cached ones
            cpl = Couplings(_scale(mesh, eps, mesh.steps[:-1]),
                            _scale(mesh, eps, mesh.steps[1:]))
        sub, sup = cpl.scale_l, cpl.scale_r
        diag = b - (sub + sup if cpl.total is None else cpl.total)
    else:
        # without cached couplings, one side's at a time: a band fewer at the peak
        scale = _scale(mesh, eps, mesh.steps[:-1]) if cpl is None else cpl.scale_l
        diag = scale * right[:-1]
        sub = scale * left[:-1]
        del scale
        scale = _scale(mesh, eps, mesh.steps[1:]) if cpl is None else cpl.scale_r
        diag += np.multiply(scale, left[1:], out=left[1:])
        np.subtract(b, diag, out=diag)
        sup = np.multiply(scale, right[1:], out=right[1:])
    return TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=None)


def assemble(mesh: Mesh, eps: float, b, g,
             bc_left: float = 0.0, bc_right: float = 0.0) -> TridiagonalSystem:
    """Assemble the interior tridiagonal system.

    ``b`` and ``g`` may be callables of the interior nodes or plain arrays
    of interior values; the Dirichlet data is folded into a copy of ``g``.
    """
    xi = mesh.interior()
    bvals = _values(b, xi)
    if not (bvals.min() > 0.0 and bvals.max() < math.inf):  # NaN fails too
        raise NonpositiveCoefficientError("b(x) must be positive and finite")
    rhs = _values(g, xi).copy()
    sys = stencil(mesh, eps, bvals)
    rhs[0] -= sys.sub[0] * bc_left
    rhs[-1] -= sys.sup[-1] * bc_right
    return replace(sys, rhs=rhs)


# Systems this small are cheaper in the scalar loop than as numpy levels.
REDUCTION_BASE = 128


def thomas_solve(sys: TridiagonalSystem) -> np.ndarray:
    """Odd-even cyclic reduction to ``REDUCTION_BASE`` rows, then Thomas.

    ``sub[0]`` and ``sup[-1]`` are never read.  An even length's last row is
    odd with no right neighbour: it is eliminated into and solved from its
    left neighbour alone.  A zero or non-finite pivot raises
    :class:`ZeroPivotError`.  Levels free their temporaries early and are
    dropped once solved, so the solve holds at most about four arrays of
    the system's length besides its input.
    """
    a, b, c, d = sys.sub, sys.diag, sys.sup, sys.rhs
    levels = []
    while len(b) > REDUCTION_BASE:
        k = len(b) // 2  # odd rows
        ao, bo, co, do = a[1::2], b[1::2], c[1::2], d[1::2]
        size = np.abs(bo)
        # min() propagates NaN, so these two tests catch NaN, zero, tiny and inf
        if not (size.min() >= 1e-300 and size.max() < math.inf):
            bad = ~(size >= 1e-300) | np.isinf(bo)
            raise ZeroPivotError("zero or non-finite pivot in row "
                                 f"{(2 * bad.argmax() + 1) << len(levels)}")
        ninv = np.divide(-1.0, bo, out=size)  # -1/b: no negated copies of a, c
        b, d = b[::2].copy(), d[::2].copy()
        del bo  # frees the input diagonal from the second level on
        j = len(b) - 1  # odd rows with an even row on their right
        alpha = a[2::2] * ninv[:j]  # even row 2i+2 eliminates odd row 2i+1 ...
        gamma = c[:2 * k:2] * ninv  # ... and so does even row 2i
        a, c = np.empty_like(b), np.empty_like(b)
        a[0] = c[-1] = 0.0
        np.multiply(alpha, ao[:j], out=a[1:])
        # c[:k] holds each product until it is added, and its own band last;
        # every row still adds its alpha term before its gamma term
        b[1:] += np.multiply(alpha, co[:j], out=c[:j])
        b[:k] += np.multiply(gamma, ao, out=c[:k])
        d[1:] += np.multiply(alpha, do[:j], out=c[:j])
        d[:k] += np.multiply(gamma, do, out=c[:k])
        np.multiply(gamma, co, out=c[:k])  # even length: sup[-1] only reaches c[-1]
        del alpha, gamma  # before the next level allocates its own
        levels.append((ao, co, do, ninv))
    # scalar Thomas elimination; row i here is row i << len(levels) above
    sub, diag, sup, rhs = a.tolist(), b.tolist(), c.tolist(), d.tolist()
    sub[0] = 0.0  # sup[-1] only reaches c[-1], which no row reads
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
    while levels:  # popped, so each level's arrays go once it is solved
        ao, co, do, ninv = levels.pop()
        j = len(y) - 1
        full = np.empty(len(y) + len(ao))
        full[::2] = y
        # (do - ao y - co y) / b, written as (ao y - do + co y) * (-1/b): round
        # to nearest is symmetric under negation, so the bits are the same
        odd = np.multiply(ao, y[:len(ao)], out=full[1::2])
        odd -= do
        odd[:j] += co[:j] * y[1:]
        odd *= ninv
        y = full
    return y


def solve_linear(mesh: Mesh, eps: float, b, g,
                 bc_left: float = 0.0, bc_right: float = 0.0) -> np.ndarray:
    """Assemble and solve; returns the full vector ``y_0 ... y_n``."""
    sys = assemble(mesh, eps, b, g, bc_left, bc_right)
    y = np.empty(mesh.n + 1)
    y[0] = bc_left
    y[-1] = bc_right
    y[1:-1] = thomas_solve(sys)
    return y
