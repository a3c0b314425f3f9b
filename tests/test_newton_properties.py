"""Property tests of the direct solve over the whole parameter space."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from oracles import reduced_start_solve
from spgrid.mesh import FAMILIES, LAYER_SIDES, MeshSpec
from spgrid.newton import NESTED_BASE, solve
from spgrid.problems import make_problem
from test_mesh_properties import _build

cases = st.builds(
    lambda problem_sides, family, k, n, a, q, gamma0: (
        problem_sides[0],
        MeshSpec(family, 10.0 ** k, n, a=a, q=q, gamma0=gamma0,
                 layer_sides=problem_sides[1])),
    problem_sides=st.sampled_from([("ex1", "both"), ("ex2", "both"), ("ex2", "left")]),
    family=st.sampled_from(FAMILIES),
    k=st.floats(-12.0, 0.0),  # eps log-uniform in [1e-12, 1]
    n=st.integers(2, 4096),
    a=st.floats(0.1, 10.0),
    q=st.floats(0.01, 0.49),
    gamma0=st.floats(0.1, 10.0),
)


# A bounded example count keeps the property near one second.  The example
# is a two-sided mesh that doubles cannot hold (see ``_build``): no solve.
@settings(max_examples=80, deadline=None)
@given(cases)
@example(("ex1", MeshSpec("bakhvalov", 1e-12, 4096, a=0.1, q=0.375)))
def test_direct_solve_converges_within_criterion_7_to_finite_dirichlet_values(case):
    problem_id, spec = case
    mesh = _build(spec)
    if mesh is None:
        return
    problem = make_problem(problem_id, spec.eps)
    out = solve(mesh, problem)
    assert out.iterations <= 8
    assert np.all(np.isfinite(out.y))
    assert out.y[0] == problem.bc_left and out.y[-1] == problem.bc_right


# Above NESTED_BASE the solve starts from its own solution on a coarsened
# mesh; the oracle runs Newton from the reduced start on the mesh itself.
# Fifty examples keep the property near one second.
nested_cases = st.builds(
    lambda problem_id, family, sides, k, n, a, q, gamma0: (
        problem_id,
        MeshSpec(family, 10.0 ** k, n, a=a, q=q, gamma0=gamma0, layer_sides=sides)),
    problem_id=st.sampled_from(["ex1", "ex2"]),
    family=st.sampled_from(FAMILIES),
    sides=st.sampled_from(LAYER_SIDES),
    k=st.floats(-12.0, 0.0),
    n=st.integers(NESTED_BASE + 1, 2 ** 16),
    a=st.floats(0.32, 10.0),
    q=st.floats(0.01, 0.49),
    gamma0=st.floats(0.1, 5.0),
)


@settings(max_examples=50, deadline=None)
@given(nested_cases)
def test_nested_start_solve_matches_the_reduced_start_solve(case):
    problem_id, spec = case
    mesh = _build(spec)
    if mesh is None:
        return
    problem = make_problem(problem_id, spec.eps)
    ref = reduced_start_solve(mesh, problem).y
    gap = np.max(np.abs(solve(mesh, problem).y - ref))
    assert gap <= 1e-13 * max(1.0, np.max(np.abs(ref)))
