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
immutable and safe to share across threads.

The built-in test problems have closed-form solutions; their sources are
manufactured by substituting the solution into the equation, so the
discrete errors measured downstream are attributable to the scheme alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

Callback2 = Callable[[np.ndarray, np.ndarray], np.ndarray]
Callback1 = Callable[[np.ndarray], np.ndarray]


def _check_eps_and_exact(p) -> None:
    """The checks both problem records share: eps in (0, 1], and the exact
    solution, if given, matching the Dirichlet data."""
    if not 0.0 < p.eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    if p.exact is not None:
        # at a subnormal eps, x/eps overflows in a layer term; its limit is right
        with np.errstate(over="ignore"):
            for x, bc, side in (0.0, p.bc_left, "bc_left"), (1.0, p.bc_right, "bc_right"):
                if abs(float(p.exact(np.array(x))) - bc) > 1e-12:
                    raise ValueError(f"exact({x:g}) does not match {side}")


@dataclass(frozen=True)
class SemilinearProblem:
    eps: float
    f: Callback2
    f_u: Callback2
    bc_left: float
    bc_right: float
    exact: Callback1 | None = None
    source: Callback1 | None = None

    def __post_init__(self) -> None:
        _check_eps_and_exact(self)


@dataclass(frozen=True)
class QuasilinearDiffusionProblem:
    eps: float
    d: Callback1
    d_u: Callback1
    r: Callback2
    r_u: Callback2
    bc_left: float
    bc_right: float
    exact: Callback1 | None = None
    source: Callback1 | None = None

    def __post_init__(self) -> None:
        _check_eps_and_exact(self)
        for bc in (self.bc_left, self.bc_right):
            if float(self.d(np.array(bc))) <= 0.0:
                raise ValueError("diffusion factor not positive at boundary data")


def example1(eps: float) -> SemilinearProblem:
    """Semilinear benchmark with layers at both ends.

    ``-eps^2 u'' + (u - 1)/(2 - u) = source(x)`` with zero boundary
    values; the source is chosen so that

        ``u(x) = 1 - (exp(-x/eps) + exp(-(1-x)/eps)) / (1 + exp(-1/eps))``

    solves the equation.  Substituting the solution gives
    ``source = g^2/(1 + g)`` where ``g = 1 - u``.
    """
    den = 1.0 + math.exp(-1.0 / eps)

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
    bc_right = math.exp(-1.0 / eps) + math.e - 1.0

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


PROBLEMS: dict[str, Callable] = {"ex1": example1, "ex2": example2}


def make_problem(problem_id: str, eps: float):
    """Instantiate a registered problem (``ex1`` or ``ex2``)."""
    try:
        factory = PROBLEMS[problem_id]
    except KeyError:
        raise ValueError(f"unknown problem {problem_id!r}") from None
    return factory(eps)
