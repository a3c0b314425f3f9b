"""Property test of the direct solve over the whole parameter space."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from spgrid.mesh import FAMILIES, MeshSpec
from spgrid.newton import solve
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
