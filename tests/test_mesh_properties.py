"""Property tests of the mesh builder over its whole parameter space."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spgrid.mesh import (FAMILIES, GRADED, LAYER_SIDES, DegenerateMeshError,
                         MeshSpec, NoRootError, bakhvalov_alpha, build_mesh,
                         shishkin_alpha, vulanovic_alpha)

specs = st.builds(
    MeshSpec,
    family=st.sampled_from(FAMILIES),
    eps=st.floats(1e-12, 1.0),
    n=st.integers(2, 4096),
    a=st.floats(0.1, 10.0),
    q=st.floats(0.01, 0.49),
    gamma0=st.floats(0.1, 10.0),
)

# The whole float range, as MeshSpec arguments: eps down into the subnormals,
# which MeshSpec refuses, a and gamma0 from 1e-300 to 1e300.
wide_specs = st.fixed_dictionaries(dict(
    family=st.sampled_from(FAMILIES),
    eps=st.floats(-320.0, 0.0).map(lambda e: 10.0 ** e),
    n=st.integers(2, 4096),
    a=st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
    q=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    gamma0=st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
    layer_sides=st.sampled_from(LAYER_SIDES),
))

# A bounded example count keeps the properties well under 2 s.
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
@given(wide_specs)
@example(dict(family="vulanovic", eps=0.01, n=64, a=1e-100))  # alpha rounded to q
# a subnormal a*eps: exp(v) overflowed at Bakhvalov's uncapped Newton start
@example(dict(family="bakhvalov", eps=1e-8, n=64, a=4.27e-301, q=0.3428865302350336))
@example(dict(family="bakhvalov", eps=1e-8, n=64, a=4.27e-301))
def test_every_spec_builds_or_raises_no_root_error(args):
    # a subnormal eps is refused; a degenerate graded spec builds its uniform
    # fallback, which counts
    if args["eps"] < 2.0 ** -1022:
        with pytest.raises(ValueError, match="eps must lie in"):
            MeshSpec(**args)
        return
    spec = MeshSpec(**args)
    try:
        mesh = build_mesh(spec)
    except NoRootError:
        return
    x = mesh.nodes
    assert len(x) == spec.n + 1 and x[0] == 0.0 and x[-1] == 1.0
    assert np.all(np.diff(x) > 0.0)


@bounded
@given(specs)
@example(MeshSpec("vulanovic", 1.0 - 2.0 ** -53, 2, a=0.2331608915957545,
                  q=0.2331608915957545))  # a*eps one ulp below q
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


def _where_half_map(spec, t):
    """Oracle generating function on ``t`` in [0, 1/2], in any order: every
    piece evaluated on all of ``t``, then selected with ``np.where``."""
    if spec.family == "uniform":
        return t.astype(float)
    if spec.family == "shishkin":
        alpha = shishkin_alpha(spec.eps, spec.gamma0, spec.n)
        if alpha >= 0.25:
            return t.astype(float)
        return np.where(t <= 0.25, 4.0 * alpha * t,
                        alpha + 2.0 * (1.0 - 2.0 * alpha) * (t - 0.25))
    ea, q = spec.eps * spec.a, spec.q
    if spec.family == "bakhvalov":
        alpha = bakhvalov_alpha(spec.eps, spec.a, spec.q)
        layer = ea * np.log(q / np.maximum(q - t, 1e-300))
        val = ea * math.log(q / (q - alpha))
    else:
        alpha = vulanovic_alpha(spec.eps, spec.a, spec.q)
        with np.errstate(divide="ignore", invalid="ignore"):
            layer = ea * t / (q - t)
        val = ea * alpha / (q - alpha)
    slope = (0.5 - val) / (0.5 - alpha)
    return np.where(t <= alpha, layer, val + slope * (t - alpha))


def _two_evaluation_mesh(spec):
    """Oracle: ``(nodes, steps, half_steps, degenerate)`` built by evaluating
    the generating function on all of [0, 1/2] for the left half and again
    on the descending mirrored points for the right half, with integer
    masks for the one-sided variant."""
    n = spec.n
    i = np.arange(n + 1)
    try:
        left = _where_half_map(spec, i[2 * i <= n] / n)
        nodes = np.empty(n + 1)
        nodes[: len(left)] = left
        nodes[len(left):] = 1.0 - _where_half_map(spec, (n - i[2 * i > n]) / n)
        if spec.layer_sides == "left":
            mask = 2 * i > n
            nodes[mask] = i[mask] / n
        degenerate = False
    except DegenerateMeshError:
        nodes, degenerate = np.arange(n + 1) / n, True
    nodes[0] = 0.0
    nodes[-1] = 1.0
    if np.any(np.diff(nodes) <= 0.0):
        raise NoRootError("layer step below the double spacing near x = 1: "
                          "mirrored nodes collapsed")
    steps = np.diff(nodes)
    return nodes, steps, 0.5 * (steps[:-1] + steps[1:]), degenerate


@bounded
@given(specs, st.sampled_from(LAYER_SIDES))
@example(MeshSpec("vulanovic", 0.5, 9, a=2.0, q=0.3), "both")  # degenerate
@example(MeshSpec("bakhvalov", 0.5, 10, a=2.0, q=0.3), "left")  # degenerate
@example(MeshSpec("bakhvalov", 1e-12, 2712, a=0.109375, q=0.375), "both")
@example(MeshSpec("bakhvalov", 0.0625, 2, a=0.9999999999999999, q=0.0625),
         "both")  # a*eps is the double next below q
def test_one_half_evaluation_matches_two_evaluations_bitwise(spec, side):
    spec = replace(spec, layer_sides=side)
    try:
        nodes, steps, half_steps, degenerate = _two_evaluation_mesh(spec)
    except NoRootError as err:
        with pytest.raises(NoRootError) as got:
            build_mesh(spec)
        assert str(got.value) == str(err)
        return
    mesh = build_mesh(spec)
    for got, want in ((mesh.nodes, nodes), (mesh.steps, steps),
                      (mesh.half_steps, half_steps)):
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
    assert mesh.degenerate == degenerate
