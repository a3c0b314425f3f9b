"""Continuous two-point boundary value problems consumed by the solvers.

Two families are described:

* :class:`SemilinearProblem` -- ``-eps^2 u'' + f(x, u) = source(x)`` with
  Dirichlet data, where ``f_u >= c0^2 > 0`` guarantees a unique solution
  with boundary layers of width ``O(eps)`` at both ends.
* :class:`QuasilinearDiffusionProblem` --
  ``-eps^2 (d(u) u')' + r(x, u) = source(x)`` with a solution-dependent
  diffusion factor.

``source`` is the x-only right-hand side; ``None`` means zero.  Keeping it
out of ``f``/``r`` lets a solver evaluate it once per mesh instead of in
every residual.  All callbacks must be pure, accept numpy arrays
elementwise, and be total on ``[0, 1] x [-10, 10]``; problem records are
immutable, built by keyword only, and safe to share across threads.

The built-in test problems have closed-form solutions; their sources are
manufactured by substituting the solution into the equation, so the
discrete errors measured downstream are attributable to the scheme alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mesh import InputError, check_eps

Callback2 = Callable[[np.ndarray, np.ndarray], np.ndarray]
Callback1 = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, kw_only=True)
class _Problem:
    """What both problem records share, and its checks: eps by
    :func:`~spgrid.mesh.check_eps` (which the built-in factories run before
    they divide by eps), and the exact solution, if given, matching the
    Dirichlet data.  A failed check raises :class:`~spgrid.mesh.InputError`."""

    eps: float
    bc_left: float
    bc_right: float
    exact: Callback1 | None = None
    source: Callback1 | None = None

    def __post_init__(self) -> None:
        check_eps(self.eps)
        if self.exact is not None:
            for x, bc, side in ((0.0, self.bc_left, "bc_left"),
                                (1.0, self.bc_right, "bc_right")):
                if not abs(float(self.exact(np.array(x))) - bc) <= 1e-12:  # NaN fails
                    raise InputError(f"exact({x:g}) does not match {side}")


@dataclass(frozen=True, kw_only=True)
class SemilinearProblem(_Problem):
    f: Callback2
    f_u: Callback2


@dataclass(frozen=True, kw_only=True)
class QuasilinearDiffusionProblem(_Problem):
    d: Callback1
    d_u: Callback1
    r: Callback2
    r_u: Callback2

    def __post_init__(self) -> None:
        super().__post_init__()
        for bc in (self.bc_left, self.bc_right):
            if not 0.0 < float(self.d(np.array(bc))) < math.inf:  # NaN fails too
                raise InputError("diffusion factor not positive at boundary data, or inf")


def example1(eps: float) -> SemilinearProblem:
    """Semilinear benchmark with layers at both ends.

    ``-eps^2 u'' + (u - 1)/(2 - u) = source(x)`` with zero boundary
    values; the source is chosen so that

        ``u(x) = 1 - (exp(-x/eps) + exp(-(1-x)/eps)) / (1 + exp(-1/eps))``

    solves the equation.  Substituting the solution gives
    ``source = g^2/(1 + g)`` where ``g = 1 - u``.
    """
    den = 1.0 + math.exp(-1.0 / check_eps(eps))

    def g(x):
        return (np.exp(-x / eps) + np.exp(-(1.0 - x) / eps)) / den

    def exact(x):
        return 1.0 - g(x)

    def f(x, u):
        return (u - 1.0) / (2.0 - u)

    def source(x):
        gg = g(x)
        return gg * gg / (1.0 + gg)

    def f_u(x, u):
        return 1.0 / (2.0 - u) ** 2

    return SemilinearProblem(eps=eps, f=f, f_u=f_u, bc_left=0.0, bc_right=0.0,
                             exact=exact, source=source)


def example2(eps: float) -> QuasilinearDiffusionProblem:
    """Quasilinear-diffusion benchmark with a single layer at x = 0.

    ``-eps^2 (u'/(1 + u))' + u = fsrc(x)``, ``u(0) = 1``,
    ``u(1) = exp(-1/eps) + e - 1``; the source is manufactured so that
    ``u(x) = exp(-x/eps) + exp(x) - 1`` is the solution.  Using
    ``u'/(1+u) = (ln(1+u))'`` the diffusion term evaluates to
    ``A*B*(1 + eps)^2/(A + B)^2`` with ``A = exp(-x/eps)``, ``B = exp(x)``.
    """
    bc_right = math.exp(-1.0 / check_eps(eps)) + math.e - 1.0

    def exact(x):
        return np.exp(-x / eps) + np.exp(x) - 1.0

    def fsrc(x):
        A = np.exp(-x / eps)
        B = np.exp(x)
        return A + B - 1.0 - A * B * (1.0 + eps) ** 2 / (A + B) ** 2

    def d(u):
        return 1.0 / (1.0 + u)

    def d_u(u):
        return -1.0 / (1.0 + u) ** 2

    def r(x, u):
        return u

    def r_u(x, u):
        return np.ones_like(np.asarray(u, dtype=float))

    return QuasilinearDiffusionProblem(eps=eps, d=d, d_u=d_u, r=r, r_u=r_u,
                                       bc_left=1.0, bc_right=bc_right,
                                       exact=exact, source=fsrc)


PROBLEMS: dict[str, Callable] = {"ex1": example1, "ex2": example2}


def make_problem(problem_id: str, eps: float):
    """Instantiate a registered problem (``ex1`` or ``ex2``)."""
    try:
        factory = PROBLEMS[problem_id]
    except KeyError:
        raise InputError(f"unknown problem {problem_id!r}") from None
    return factory(eps)
