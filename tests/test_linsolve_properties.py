"""Discrete maximum principle of the linear scheme over the mesh space."""

import numpy as np
from hypothesis import given, strategies as st

from spgrid.linsolve import solve_linear
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
    y = solve_linear(mesh, spec.eps, b, g)
    assert y[0] == 0.0 and y[-1] == 0.0
    assert np.all(y >= 0.0)
    assert np.max(y) <= np.max(g / b, initial=0.0) * (1.0 + 1e-12)
