"""The coarse-to-fine transfer against its np.interp construction, bitwise."""

from dataclasses import replace

import numpy as np
from hypothesis import given, strategies as st

from spgrid.mesh import Mesh, MeshSpec, build_mesh
from spgrid.twogrid import interpolant_slopes
from test_mesh_properties import _build, bounded, specs


def _interp_interpolant_slopes(coarse, values, fine):
    """Oracle: ``np.interp`` at every fine node, and each fine interval's
    cell found by a binary search of its left end over the coarse nodes."""
    w = np.interp(fine.nodes, coarse.nodes, values)
    coarse_slopes = np.diff(values) / coarse.steps
    left = fine.nodes[:-1]
    cell = np.clip(np.searchsorted(coarse.nodes, left, side="right") - 1,
                   0, coarse.n - 1)
    inside = (coarse.nodes[cell] <= left) & \
             (fine.nodes[1:] <= coarse.nodes[cell + 1])
    chord = np.diff(w) / fine.steps
    return w, np.where(inside, coarse_slopes[cell], chord)


def _same_bits(a, b):
    # stricter than np.array_equal, which takes -0.0 == 0.0
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_matches_oracle(coarse, values, fine):
    w, slopes = interpolant_slopes(coarse, values, fine)
    w_ref, slopes_ref = _interp_interpolant_slopes(coarse, values, fine)
    assert np.array_equal(w, w_ref) and _same_bits(w, w_ref)
    assert np.array_equal(slopes, slopes_ref) and _same_bits(slopes, slopes_ref)


def _nodal_values(rng, n):
    return rng.normal(size=n + 1) * 10.0 ** rng.uniform(-3.0, 3.0)


# fine sizes: any n (so N >= n happens), nested N^2, or round(N^r)
fine_sizes = st.one_of(
    st.tuples(st.just("any"), st.integers(2, 4096)),
    st.tuples(st.just("square"), st.none()),
    st.tuples(st.just("power"), st.floats(1.05, 2.5)))


@bounded
@given(specs, specs, fine_sizes, st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_run_length_transfer_matches_interp_bitwise(coarse_spec, fine_spec,
                                                    size, same_family, seed):
    kind, arg = size
    N = min(coarse_spec.n, 256)
    n = arg if kind == "any" else N * N if kind == "square" else round(N ** arg)
    coarse_spec = replace(coarse_spec, n=N)
    # the same family and parameters nest coarse nodes among the fine ones
    fine_spec = replace(coarse_spec if same_family else fine_spec,
                        n=max(2, min(n, 2 ** 16)))
    coarse, fine = _build(coarse_spec), _build(fine_spec)
    if coarse is None or fine is None:
        return
    _assert_matches_oracle(coarse, _nodal_values(np.random.default_rng(seed), N), fine)


def test_coarse_cells_without_fine_nodes_and_multi_node_straddles():
    coarse = build_mesh(MeshSpec("bakhvalov", 1e-4, 64, a=4.0))
    fine = build_mesh(MeshSpec("uniform", 1e-4, 16))
    k = np.searchsorted(fine.nodes, coarse.nodes)
    assert np.any(np.diff(k) == 0)  # coarse cells holding no fine node
    # the first fine interval holds every coarse layer node
    assert np.count_nonzero(coarse.nodes < fine.nodes[1]) > 2
    for seed in range(5):
        values = _nodal_values(np.random.default_rng(seed), 64)
        _assert_matches_oracle(coarse, values, fine)


def _mesh(nodes):
    nodes = np.asarray(nodes, dtype=float)
    steps = np.diff(nodes)
    return Mesh(nodes=nodes, steps=steps, half_steps=0.5 * (steps[:-1] + steps[1:]))


def test_one_ulp_interval_on_a_coarse_node_takes_the_cell_slope():
    # the rounded midpoint of [1/2, 1/2 + ulp] is 1/2, which a midpoint rule
    # places in the cell left of the coarse node 1/2; the interval lies in
    # the right cell, whose slope it takes, not the rounding-noise chord
    coarse = _mesh([0.0, 0.5, 1.0])
    fine = _mesh([0.0, 0.25, 0.5, np.nextafter(0.5, 1.0), 0.75, 1.0])
    values = np.array([0.0, 0.1, 0.7])
    _assert_matches_oracle(coarse, values, fine)
    w, slopes = interpolant_slopes(coarse, values, fine)
    cell_slope = (0.7 - 0.1) / 0.5
    assert (w[3] - w[2]) / fine.steps[2] != cell_slope
    assert slopes[2] == slopes[3] == cell_slope


def test_fine_nodes_on_coarse_nodes_take_the_nodal_value_with_its_sign():
    # s*(x - X) + Y would turn a nodal -0.0 into +0.0; np.interp keeps it
    coarse = _mesh([0.0, 0.5, 1.0])
    fine = _mesh([0.0, 0.25, 0.5, 0.75, 1.0])
    values = np.array([-0.0, -0.0, -0.0])
    _assert_matches_oracle(coarse, values, fine)
    w, _ = interpolant_slopes(coarse, values, fine)
    assert np.all(np.signbit(w[::2]))
