"""Layer-adapted meshes on [0, 1] built from generating functions.

A mesh with ``n`` intervals is the image of the uniform grid ``t_i = i/n``
under a monotone generating function ``lam`` with ``lam(0) = 0`` and
``lam(1) = 1``.  Four families are supported:

* ``uniform``    -- identity map.
* ``shishkin``   -- piecewise linear with a transition parameter
  ``alpha = min(1/4, 2*eps*ln(n)/gamma0)``; one quarter of the intervals
  is compressed into ``[0, alpha]`` (and mirrored at the right end).
* ``bakhvalov``  -- logarithmic layer part ``a*eps*ln(q/(q - t))``
  continued by its tangent through ``(1/2, 1/2)``; the contact abscissa
  solves a Lambert-W equation, by a monotone Newton loop.
* ``vulanovic``  -- rational layer part ``a*eps*t/(q - t)`` continued by
  its tangent through ``(1/2, 1/2)``; the contact abscissa has a closed
  form.

All constructions are symmetric about ``x = 1/2`` by default
(``lam(1 - t) = 1 - lam(t)``); a one-sided variant keeps the layer part
on ``[0, 1/2]`` and continues with the identity map on ``[1/2, 1]`` for
problems with a single layer at ``x = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FAMILIES = ("uniform", "shishkin", "bakhvalov", "vulanovic")
LAYER_SIDES = ("both", "left")

#: Hard cap on every mesh's interval count: direct, coarse or fine.
MAX_INTERVALS = 2 ** 20

#: Graded families whose parameters (a, q) must satisfy a*eps < q.
GRADED = ("bakhvalov", "vulanovic")


class DegenerateMeshError(ValueError):
    """Raised when a*eps >= q leaves no room for a graded layer part."""


class NoRootError(RuntimeError):
    """Raised when a mesh cannot be built in doubles: the Bakhvalov contact
    point is not a double in (0, q), or the layer steps are too fine for
    doubles near x = 1."""


@dataclass(frozen=True)
class MeshSpec:
    """Parameters defining one mesh.

    ``a`` and ``q`` are only meaningful for the graded families, ``gamma0``
    only for the Shishkin family; the stored defaults are harmless
    otherwise.
    """

    family: str
    eps: float
    n: int
    a: float = 1.0
    q: float = 0.4
    gamma0: float = 1.0
    layer_sides: str = "both"

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown mesh family {self.family!r}")
        if self.layer_sides not in LAYER_SIDES:
            raise ValueError(f"unknown layer_sides {self.layer_sides!r}")
        if not 0.0 < self.eps <= 1.0:
            raise ValueError("eps must lie in (0, 1]")
        if not 2 <= self.n <= MAX_INTERVALS:
            raise ValueError(f"n must lie in [2, {MAX_INTERVALS}]")
        if not 0.0 < self.gamma0 < math.inf:  # NaN fails too
            raise ValueError("gamma0 must be positive and finite")
        if self.family in GRADED:
            if not 0.0 < self.a < math.inf:
                raise ValueError("a must be positive and finite")
            if not 0.0 < self.q < 0.5:
                raise ValueError("q must lie in (0, 0.5)")


@dataclass(frozen=True)
class Mesh:
    """Nodes ``x_0 < ... < x_n`` plus precomputed step arrays.

    ``steps[i-1] = h_i = x_i - x_{i-1}`` (length ``n``) and
    ``half_steps[i-1] = 0.5*(h_i + h_{i+1})`` (length ``n - 1``).
    ``degenerate`` flags a graded spec that fell back to the uniform mesh
    (:class:`DegenerateMeshError`).
    """

    nodes: np.ndarray
    steps: np.ndarray
    half_steps: np.ndarray
    degenerate: bool = False

    @property
    def n(self) -> int:
        return len(self.nodes) - 1

    def interior(self) -> np.ndarray:
        return self.nodes[1:-1]


def shishkin_alpha(eps: float, gamma0: float, n: int) -> float:
    """Transition parameter ``min(1/4, 2*eps*ln(n)/gamma0)``.

    The logarithm always uses this grid's own interval count ``n``.
    """
    return min(0.25, 2.0 * eps * math.log(n) / gamma0)


def _layer_scale(eps: float, a: float, q: float) -> float:
    """``a*eps``, the graded layer part's scale; the one degenerate rule."""
    ea = eps * a
    if ea >= q:
        raise DegenerateMeshError(f"a*eps = {ea:g} >= q = {q:g}")
    return ea


def vulanovic_alpha(eps: float, a: float, q: float) -> float:
    """Closed-form contact abscissa of the tangent from (1/2, 1/2); raises as
    :func:`bakhvalov_alpha` does (a tiny a*eps rounds alpha to q)."""
    ea = _layer_scale(eps, a, q)
    root = math.sqrt(ea * q * (1.0 - 2.0 * q + 2.0 * ea))
    alpha = (q - root) / (1.0 + 2.0 * ea)
    if alpha <= 0.0:  # q - root cancelled: a*eps lies within rounding of q
        alpha = q * (q - ea) / (q + root)  # the same alpha, without the difference
    if not 0.0 < alpha < q:
        raise NoRootError(f"no double contact point in (0, {q:g}) for a*eps = {ea:g}")
    return alpha


def bakhvalov_alpha(eps: float, a: float, q: float) -> float:
    """Contact abscissa of the tangent from (1/2, 1/2) to the log layer part.

    In ``v = ln(q/(q - alpha))``, with ``k = (1/2 - q)/q``, tangency reads
    ``v + k (e^v - 1) = D = (q - a eps)/(2 a eps q)``, so ``k e^v = W(e^C)``
    (Lambert W), ``C = 1/(2 a eps) - 1 + ln k``.  Increasing and convex: Newton
    from ``min(D, ln(1 + D/k))``, right of the root, falls until an iterate no
    longer falls; a start capped at ``v = 700`` keeps ``e^v`` a double, and
    alpha rounds to q there.  ``alpha = q (1 - e^-v)`` takes ``expm1`` for
    small v, keeping its digits as a*eps nears q.  Raises
    :class:`DegenerateMeshError` for ``a*eps >= q`` and :class:`NoRootError`
    for no alpha in ``(0, q)``.
    """
    ea = _layer_scale(eps, a, q)
    k = (0.5 - q) / q
    d = (q - ea) / ea / (2.0 * q) if ea > 0.0 else math.inf
    v = min(d, math.log1p(d / k), 700.0)
    for _ in range(60):
        nxt = v - (v + k * math.expm1(v) - d) / (1.0 + k * math.exp(v))
        if not nxt < v:
            break
        v = nxt
    alpha = -q * math.expm1(-v) if v < 1.0 else q - q * math.exp(-v)
    if not 0.0 < alpha < q:  # D overflowed, or q - alpha underflowed
        raise NoRootError(f"no double contact point in (0, {q:g}) for a*eps = {ea:g}")
    return alpha


def _pieces(t: np.ndarray, split: float, inner, outer) -> np.ndarray:
    """``inner`` on the run ``t <= split`` of ascending ``t``, ``outer`` after."""
    j = np.searchsorted(t, split, side="right")
    out = np.empty(len(t))
    out[:j] = inner(t[:j])
    out[j:] = outer(t[j:])
    return out


def _half_map(spec: MeshSpec, t: np.ndarray) -> np.ndarray:
    """Evaluate the generating function on ascending ``t`` in [0, 1/2]."""
    if spec.family == "uniform":
        return t.astype(float)
    if spec.family == "shishkin":
        alpha = shishkin_alpha(spec.eps, spec.gamma0, spec.n)
        if alpha >= 0.25:
            return t.astype(float)
        return _pieces(t, 0.25, lambda s: 4.0 * alpha * s,
                       lambda s: alpha + 2.0 * (1.0 - 2.0 * alpha) * (s - 0.25))
    ea, q = spec.eps * spec.a, spec.q
    if spec.family == "bakhvalov":
        alpha = bakhvalov_alpha(spec.eps, spec.a, spec.q)
        layer = lambda s: ea * np.log(q / (q - s))  # s <= alpha < q
        val = ea * math.log(q / (q - alpha))
    else:  # vulanovic
        alpha = vulanovic_alpha(spec.eps, spec.a, spec.q)
        layer = lambda s: ea * s / (q - s)
        val = ea * alpha / (q - alpha)
    # Linear piece as the chord through (alpha, val) and (1/2, 1/2): the
    # tangency condition makes this the tangent line, but the chord form
    # keeps the joint exact and the midpoint within rounding (bakhvalov's
    # lam(1/2) can come out one ulp below 1/2) even when the contact
    # abscissa is ill-conditioned (q - alpha shrinks like eps).
    slope = (0.5 - val) / (0.5 - alpha)
    return _pieces(t, alpha, layer, lambda s: val + slope * (s - alpha))


def build_mesh(spec: MeshSpec) -> Mesh:
    """Construct the mesh ``x_i = lam(i/n)`` for the given spec.

    A graded spec whose contact point raises :class:`DegenerateMeshError`
    falls back silently to the uniform mesh ``i/n`` (not mirror-exact),
    flagged ``degenerate``.  Otherwise ``lam`` is evaluated once, on ``j/n``
    for j <= n/2; two-sided nodes right of 1/2 are ``1 - x[n-i]`` from
    those values (so ``x[n-j] == 1 - x[j]`` exactly for j < n/2, while
    ``lam(1/2)`` may sit one ulp off 1/2) and one-sided ones are ``i/n``.
    Raises :class:`NoRootError` when layer steps finer than the spacing of
    doubles near x = 1 make the mirrored nodes collapse.
    """
    n = spec.n
    try:
        left = _half_map(spec, np.arange(n // 2 + 1) / n)
    except DegenerateMeshError:
        nodes, degenerate = np.arange(n + 1) / n, True
    else:
        m = len(left)
        right = (np.arange(m, n + 1) / n if spec.layer_sides == "left"
                 else 1.0 - left[n - m::-1])
        nodes, degenerate = np.concatenate((left, right)), False
    nodes[0], nodes[-1] = 0.0, 1.0
    steps = nodes[1:] - nodes[:-1]
    if np.any(steps <= 0.0):
        raise NoRootError("layer step below the double spacing near x = 1: "
                          "mirrored nodes collapsed")
    half_steps = 0.5 * (steps[:-1] + steps[1:])
    for arr in (nodes, steps, half_steps):
        arr.flags.writeable = False
    return Mesh(nodes=nodes, steps=steps, half_steps=half_steps,
                degenerate=degenerate)


def layer_fraction(mesh: Mesh, eps: float) -> float:
    """Percentage of nodes inside ``[0, eps] U [1 - eps, 1]``.

    The count includes the endpoints; the denominator is the interval
    count ``n``, matching the usual reporting convention.
    """
    x = mesh.nodes
    count = int(np.count_nonzero((x <= eps) | (x >= 1.0 - eps)))
    return 100.0 * count / mesh.n

