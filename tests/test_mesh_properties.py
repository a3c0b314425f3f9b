"""Property tests of the mesh builder over its whole parameter space."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from spgrid.mesh import FAMILIES, GRADED, MeshSpec, NoRootError, build_mesh

specs = st.builds(
    MeshSpec,
    family=st.sampled_from(FAMILIES),
    eps=st.floats(1e-12, 1.0),
    n=st.integers(2, 4096),
    a=st.floats(0.1, 10.0),
    q=st.floats(0.01, 0.49),
    gamma0=st.floats(0.1, 10.0),
)

# A bounded example count keeps the three properties well under 2 s.
bounded = settings(max_examples=150, deadline=None)


def _build(spec):
    """``build_mesh(spec)``, or None where doubles cannot hold the mesh.

    Near x = 1 doubles are 1.1e-16 apart, so a right layer finer than that
    collapses onto 1.0 and the builder refuses the mesh.  Check that this,
    and nothing else, is why: the left half alone builds, and mirroring it
    repeats a node.
    """
    try:
        return build_mesh(spec)
    except NoRootError:
        left = build_mesh(replace(spec, layer_sides="left")).nodes[: spec.n // 2 + 1]
        assert np.any(np.diff(1.0 - left[::-1]) <= 0.0)
        return None


@bounded
@given(specs)
def test_nodes_strictly_increase_from_zero_to_one(spec):
    mesh = _build(spec)
    if mesh is not None:
        x = mesh.nodes
        assert len(x) == spec.n + 1
        assert x[0] == 0.0 and x[-1] == 1.0
        assert np.all(np.diff(x) > 0.0)


@bounded
@given(specs)
def test_two_sided_mesh_is_exactly_mirror_symmetric(spec):
    mesh = _build(spec)
    if mesh is not None and not mesh.degenerate:
        x, n = mesh.nodes, spec.n
        j = np.arange((n + 1) // 2)
        assert np.array_equal(x[n - j], 1.0 - x[j])
        if n % 2 == 0:
            # lam(1/2) is rounded, not pinned: it may sit one ulp off 1/2
            assert abs(x[n // 2] - 0.5) <= 2.0 ** -53


@bounded
@given(specs)
def test_degenerate_exactly_when_graded_and_layer_too_wide(spec):
    mesh = _build(spec)
    if mesh is not None:
        assert mesh.degenerate == (spec.family in GRADED and spec.a * spec.eps >= spec.q)
