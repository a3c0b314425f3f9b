"""Discrete maximum principle and weighted rows of the scheme over the mesh space."""

import numpy as np
from hypothesis import given, strategies as st

from spgrid.newton import _jacobian, couplings, solve
from test_linsolve import linear_problem
from test_mesh_properties import _build, bounded, specs


@bounded
@given(specs, st.integers(0, 2 ** 32 - 1))
def test_discrete_maximum_principle(spec, seed):
    # b > 0, g >= 0, zero boundary data: 0 <= y <= max(g/b) on every mesh
    mesh = _build(spec)
    if mesh is None:
        return
    rng = np.random.default_rng(seed)
    m = spec.n - 1
    b = 10.0 ** rng.uniform(-3.0, 3.0, m)
    g = np.where(rng.random(m) < 0.2, 0.0, rng.uniform(0.0, 10.0, m))
    y = solve(mesh, linear_problem(spec.eps, b, g)).y
    assert y[0] == 0.0 and y[-1] == 0.0
    assert np.all(y >= 0.0)
    assert np.max(y) <= np.max(g / b, initial=0.0) * (1.0 + 1e-12)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@bounded
@given(specs, st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans(), st.booleans())
def test_weighted_rows_equal_the_explicit_expressions_bitwise(spec, seed, scalar_b,
                                                             cached, unit):
    # _jacobian writes the weighted bands in place, one side's couplings at a
    # time when none are cached, and over a copy of the chain here (it
    # overwrites it); unit weights (d None) read the couplings as bands,
    # cached as a Newton solve caches them or built afresh; every entry must
    # keep its operands and order
    mesh = _build(spec)
    if mesh is None:
        return
    rng = np.random.default_rng(seed)
    m = spec.n - 1
    b = np.asarray(rng.uniform(0.1, 10.0)) if scalar_b else rng.uniform(0.1, 10.0, m)
    dm, chain = rng.uniform(0.1, 1.0, spec.n), rng.uniform(-0.09, 0.09, spec.n)
    cpl = couplings(mesh, spec.eps) if cached else None
    # given the midpoint values, a weighted Jacobian never calls its d
    d, midpoint = (None, None) if unit else (np.ones_like, (dm, chain.copy()))
    sub, dg, sup = _jacobian(mesh, spec.eps, d, None, lambda x, u: b,
                             np.zeros(spec.n + 1), cpl, midpoint=midpoint)
    e2 = spec.eps * spec.eps
    scale_l = -e2 / (mesh.half_steps * mesh.steps[:-1])
    scale_r = -e2 / (mesh.half_steps * mesh.steps[1:])
    if unit:
        diag, lower, upper = b - (scale_l + scale_r), scale_l, scale_r
    else:
        right, left = dm + chain, dm - chain
        diag = b - (scale_l * right[:-1] + scale_r * left[1:])
        lower, upper = scale_l * left[:-1], scale_r * right[1:]
    assert _same_bits(dg, diag)
    assert _same_bits(sub, lower)  # the band ends are the boundary couplings
    assert _same_bits(sup, upper)
