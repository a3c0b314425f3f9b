"""Layer-adapted meshes on [0, 1] built from generating functions.

A mesh with ``n`` intervals is the image of the uniform grid ``t_i = i/n``
under a monotone generating function ``lam`` with ``lam(0) = 0`` and
``lam(1) = 1``.  Four families are supported:

* ``uniform``    -- identity map.
* ``shishkin``   -- piecewise linear with a transition parameter
  ``alpha = min(1/4, 2*eps*ln(n)/gamma0)``; one quarter of the intervals
  is compressed into ``[0, alpha]`` (and mirrored at the right end).
* ``bakhvalov``  -- logarithmic layer part ``a*eps*ln(q/(q - t))``
  continued by its tangent through ``(1/2, 1/2)``.
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
    """Raised when a mesh cannot be built: the tangency equation has no
    bracket, or the layer steps are too fine for doubles near x = 1."""


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
        if not self.gamma0 > 0.0:  # NaN fails too
            raise ValueError("gamma0 must be positive")
        if self.family in GRADED:
            if not self.a > 0.0:
                raise ValueError("a must be positive")
            if not 0.0 < self.q < 0.5:
                raise ValueError("q must lie in (0, 0.5)")


@dataclass(frozen=True)
class Mesh:
    """Nodes ``x_0 < ... < x_n`` plus precomputed step arrays.

    ``steps[i-1] = h_i = x_i - x_{i-1}`` (length ``n``) and
    ``half_steps[i-1] = 0.5*(h_i + h_{i+1})`` (length ``n - 1``).
    ``degenerate`` flags a graded spec that fell back to the uniform mesh
    because ``a*eps >= q``.
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


def vulanovic_alpha(eps: float, a: float, q: float) -> float:
    """Closed-form contact abscissa of the tangent from (1/2, 1/2)."""
    ea = eps * a
    if ea >= q:
        raise DegenerateMeshError(f"a*eps = {ea:g} >= q = {q:g}")
    return (q - math.sqrt(ea * q * (1.0 - 2.0 * q + 2.0 * ea))) / (1.0 + 2.0 * ea)


def _bakhvalov_tangency(alpha: float, ea: float, q: float) -> float:
    return ea * math.log(q / (q - alpha)) + ea * (0.5 - alpha) / (q - alpha) - 0.5


def bakhvalov_alpha(eps: float, a: float, q: float) -> float:
    """Contact abscissa of the tangent from (1/2, 1/2) to the log layer part.

    Solved by bisection (absolute tolerance 1e-14) followed by a Newton
    polish; the tangency function is strictly increasing on [0, q), so the
    root is unique.  Returns 0.0 when the tangent touches at the origin
    (``a*eps == q``), meaning the layer part is empty and the mesh is
    uniform.
    """
    ea = eps * a
    if ea > q:
        raise DegenerateMeshError(f"a*eps = {ea:g} > q = {q:g}")
    if _bakhvalov_tangency(0.0, ea, q) >= 0.0:
        return 0.0
    lo, hi = 0.0, q - 1e-15
    if _bakhvalov_tangency(hi, ea, q) <= 0.0:
        raise NoRootError("no sign change on [0, q); check a, q, eps")
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if _bakhvalov_tangency(mid, ea, q) < 0.0:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    # Newton polish: bisection alone leaves lam(1/2) - 1/2 ~ T'(alpha)*1e-14,
    # which for small eps can exceed the 1e-12 midpoint guarantee.
    for _ in range(4):
        s = q - alpha
        slope = ea * (1.0 / s + (0.5 - q) / (s * s))
        step = _bakhvalov_tangency(alpha, ea, q) / slope
        alpha -= step
        if not 0.0 <= alpha < q:
            alpha = max(0.0, min(alpha, q - 1e-15))
        if abs(step) < 1e-17:
            break
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

    Graded specs with ``a*eps >= q`` degenerate silently to the uniform
    mesh ``i/n``, which is not mirror-exact; the mesh carries
    ``degenerate=True``.  Otherwise ``lam`` is evaluated once, on ``j/n``
    for j <= n/2; two-sided nodes right of 1/2 are ``1 - x[n-i]`` from
    those values (so ``x[n-j] == 1 - x[j]`` exactly for j < n/2, while
    ``lam(1/2)`` may sit one ulp off 1/2) and one-sided ones are ``i/n``.
    Raises :class:`NoRootError` when layer steps finer than the spacing of
    doubles near x = 1 make the mirrored nodes collapse.
    """
    n = spec.n
    # exactly when vulanovic_alpha raises and, in doubles, bakhvalov_alpha is 0.0
    degenerate = spec.family in GRADED and spec.eps * spec.a >= spec.q
    if degenerate:
        nodes = np.arange(n + 1) / n
    else:
        left = _half_map(spec, np.arange(n // 2 + 1) / n)
        m = len(left)
        right = (np.arange(m, n + 1) / n if spec.layer_sides == "left"
                 else 1.0 - left[n - m::-1])
        nodes = np.concatenate((left, right))
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

