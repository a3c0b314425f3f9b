import numpy as np
import pytest

from spgrid.linsolve import assemble
from spgrid.mesh import MeshSpec, build_mesh
from spgrid.newton import (NewtonConfig, NoConvergenceError,
                           NonpositiveJacobianError, SingularDiffusionError,
                           diffusion_jacobian, jacobian_fd_gap, newton_step,
                           reduced_initial, solve_quasilinear_diffusion,
                           solve_semilinear)
from spgrid.problems import (QuasilinearDiffusionProblem, SemilinearProblem,
                             example1, example2, log_transform)


def _linear_problem(eps):
    return SemilinearProblem(
        eps=eps,
        f=lambda x, u: u,
        f_u=lambda x, u: np.ones_like(np.asarray(u, dtype=float)),
        bc_left=0.0, bc_right=0.0)


def test_linear_problem_one_iteration_from_zero():
    mesh = build_mesh(MeshSpec("shishkin", 1e-2, 16))
    out = solve_semilinear(mesh, _linear_problem(1e-2),
                           NewtonConfig(initial="zero"))
    assert out.iterations == 1
    assert np.array_equal(out.y, np.zeros(17))


@pytest.mark.parametrize("family,a", [("bakhvalov", 4.0), ("vulanovic", 1.0),
                                      ("shishkin", 1.0)])
@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_example1_converges_fast_with_reduced_start(family, a, eps):
    p = example1(eps)
    for n in (8, 16, 32, 64):
        mesh = build_mesh(MeshSpec(family, eps, n, a=a))
        out = solve_semilinear(mesh, p)
        assert out.converged
        assert out.iterations <= 8
        assert out.residual_norm <= 1e-9
        assert out.y[0] == p.bc_left and out.y[-1] == p.bc_right


def test_example1_zero_start_converges_but_slowly():
    # the tangent of (u-1)/(2-u) at u=0 crosses zero at u=2, the pole of f,
    # so zero-start iterates creep along the steep branch before contracting
    p = example1(1e-2)
    mesh = build_mesh(MeshSpec("bakhvalov", 1e-2, 16, a=4.0))
    out = solve_semilinear(mesh, p, NewtonConfig(initial="zero", max_iter=50))
    assert out.converged
    assert out.iterations > 8


def test_quadratic_tail_of_updates():
    p = example1(1e-2)
    mesh = build_mesh(MeshSpec("vulanovic", 1e-2, 64, a=1.0))
    out = solve_semilinear(mesh, p)
    tail = [(u1, u2) for u1, u2 in zip(out.update_history, out.update_history[1:])
            if u1 <= 0.1 and u2 > 1e-14]
    assert tail, "no usable tail pairs"
    for u1, u2 in tail:
        assert u2 <= 100.0 * u1 * u1


def test_boundedness_of_converged_solution():
    p = example1(1e-2)
    for family, a in (("bakhvalov", 4.0), ("shishkin", 1.0)):
        mesh = build_mesh(MeshSpec(family, 1e-2, 64, a=a))
        out = solve_semilinear(mesh, p)
        assert np.max(np.abs(out.y)) <= 1.0 + 1e-6


def test_reduced_initial_finds_reaction_root():
    p = example1(1e-2)
    mesh = build_mesh(MeshSpec("uniform", 1e-2, 32))
    y0 = reduced_initial(mesh, p)
    resid = p.f(mesh.interior(), y0[1:-1])
    assert np.max(np.abs(resid)) < 1e-10
    # example 2: reduced root is u = fsrc(x)
    p2 = example2(0.1)
    y0 = reduced_initial(mesh, p2)
    assert np.max(np.abs(p2.r(mesh.interior(), y0[1:-1]))) < 1e-10


def test_no_convergence_error_carries_update():
    p = example1(1e-2)
    mesh = build_mesh(MeshSpec("shishkin", 1e-2, 32))
    with pytest.raises(NoConvergenceError) as info:
        solve_semilinear(mesh, p, NewtonConfig(max_iter=2, initial="zero"))
    assert info.value.final_update > 0


def test_non_finite_update_fails_fast():
    calls = []

    def f(x, u):
        calls.append(len(x))
        return np.where(x > 0.5, np.nan, u)

    p = SemilinearProblem(
        eps=0.1, f=f,
        f_u=lambda x, u: np.ones_like(np.asarray(u, dtype=float)),
        bc_left=0.0, bc_right=0.0)
    mesh = build_mesh(MeshSpec("uniform", 0.1, 16))
    with pytest.raises(NoConvergenceError, match="non-finite") as info:
        solve_semilinear(mesh, p, NewtonConfig(initial="zero"))
    assert len(calls) == 1
    assert np.isnan(info.value.final_update)


def test_nonpositive_jacobian_detected():
    bad = SemilinearProblem(
        eps=0.1,
        f=lambda x, u: -u,
        f_u=lambda x, u: -np.ones_like(np.asarray(u, dtype=float)),
        bc_left=0.0, bc_right=0.0)
    mesh = build_mesh(MeshSpec("uniform", 0.1, 8))
    with pytest.raises(NonpositiveJacobianError):
        solve_semilinear(mesh, bad, NewtonConfig(initial="zero"))


def test_singular_diffusion_detected():
    p = example2(0.1)
    mesh = build_mesh(MeshSpec("uniform", 0.1, 8))
    y = np.full(9, -2.0)  # 1 + midpoint < 0
    y[0], y[-1] = p.bc_left, p.bc_right
    with pytest.raises(SingularDiffusionError):
        newton_step(mesh, p, y)


@pytest.mark.parametrize("eps", [1e-1, 1e-2])
def test_example2_solver_accuracy(eps):
    p = example2(eps)
    mesh = build_mesh(MeshSpec("vulanovic", eps, 64, a=2.0))
    out = solve_quasilinear_diffusion(mesh, p)
    assert out.converged and out.iterations <= 8
    assert out.residual_norm <= 1e-9
    err = np.max(np.abs(out.y - p.exact(mesh.nodes)))
    assert err < 5e-3


def test_constant_diffusion_reduces_to_linear_scheme():
    # d = 1: midpoint-scheme Jacobian must equal the linear assembly rows
    eps = 0.05
    gsrc = lambda x: np.cos(3 * x)
    p = QuasilinearDiffusionProblem(
        eps=eps,
        d=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        d_u=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        r=lambda x, u: u - gsrc(x),
        r_u=lambda x, u: np.ones_like(np.asarray(u, dtype=float)),
        bc_left=0.3, bc_right=-0.2)
    mesh = build_mesh(MeshSpec("shishkin", eps, 24))
    rng = np.random.default_rng(3)
    y = rng.normal(size=25)
    jac = diffusion_jacobian(mesh, p, y)
    ref = assemble(mesh, eps, lambda x: np.ones_like(x), gsrc, 0.3, -0.2)
    assert np.allclose(jac.diag, ref.diag, rtol=1e-15, atol=0)
    assert np.allclose(jac.sub, ref.sub, rtol=1e-15, atol=0)
    assert np.allclose(jac.sup, ref.sup, rtol=1e-15, atol=0)
    # and the converged solution equals the one-shot linear solve
    from spgrid.linsolve import solve_linear

    out = solve_quasilinear_diffusion(mesh, p, NewtonConfig(initial="zero"))
    lin = solve_linear(mesh, eps, lambda x: np.ones_like(x), gsrc, 0.3, -0.2)
    assert np.max(np.abs(out.y - lin)) < 1e-12


def test_picard_mode_reaches_same_solution():
    p = example2(0.05)
    mesh = build_mesh(MeshSpec("bakhvalov", 0.05, 32, a=2.0))
    newton_out = solve_quasilinear_diffusion(mesh, p)
    picard_out = solve_quasilinear_diffusion(
        mesh, p, NewtonConfig(picard=True, max_iter=200, tol=1e-12))
    assert picard_out.iterations > newton_out.iterations
    assert np.max(np.abs(picard_out.y - newton_out.y)) < 1e-10


def test_jacobian_fd_gap_semilinear():
    p = example1(1e-1)
    mesh = build_mesh(MeshSpec("vulanovic", 1e-1, 32, a=1.0))
    rng = np.random.default_rng(11)
    y = rng.uniform(0.0, 1.0, 33)
    y[0] = y[-1] = 0.0
    assert jacobian_fd_gap(mesh, p, y) <= 1e-6


def test_jacobian_fd_gap_diffusion():
    p = example2(1e-1)
    mesh = build_mesh(MeshSpec("bakhvalov", 1e-1, 32, a=2.0))
    rng = np.random.default_rng(13)
    y = rng.uniform(-0.5, 2.0, 33)
    y[0], y[-1] = p.bc_left, p.bc_right
    assert jacobian_fd_gap(mesh, p, y) <= 1e-5


def test_jacobian_fd_gap_constant_diffusion():
    p = QuasilinearDiffusionProblem(
        eps=0.2,
        d=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        d_u=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        r=lambda x, u: u - x,
        r_u=lambda x, u: np.ones_like(np.asarray(u, dtype=float)),
        bc_left=0.0, bc_right=0.5)
    mesh = build_mesh(MeshSpec("uniform", 0.2, 16))
    rng = np.random.default_rng(17)
    y = rng.normal(size=17)
    assert jacobian_fd_gap(mesh, p, y) <= 1e-8


def test_solutions_agree_with_log_transform_route():
    for eps in (1e-1, 1e-2, 1e-4):
        p = example2(eps)
        v = log_transform(p)
        for family, a in (("vulanovic", 2.0), ("bakhvalov", 2.0)):
            mesh = build_mesh(MeshSpec(family, eps, 32, a=a))
            u_mid = solve_quasilinear_diffusion(mesh, p).y
            u_log = np.expm1(solve_semilinear(mesh, v).y)
            err_mid = np.max(np.abs(u_mid - p.exact(mesh.nodes)))
            err_log = np.max(np.abs(u_log - p.exact(mesh.nodes)))
            agree = np.max(np.abs(u_mid - u_log))
            assert agree <= 5.0 * max(err_mid, err_log)


def test_explicit_initial_guess_and_validation():
    p = example1(1e-2)
    mesh = build_mesh(MeshSpec("uniform", 1e-2, 16))
    good = np.full(17, 0.9)
    out = solve_semilinear(mesh, p, NewtonConfig(initial=good))
    assert out.converged
    with pytest.raises(ValueError):
        solve_semilinear(mesh, p, NewtonConfig(initial=np.zeros(5)))
    with pytest.raises(ValueError):
        NewtonConfig(tol=0.0)
    with pytest.raises(ValueError):
        NewtonConfig(initial="nonsense")
