from dataclasses import replace

import numpy as np
import pytest

from spgrid import newton
from spgrid.mesh import MeshSpec, build_mesh
from spgrid.newton import (NoConvergenceError, NonpositiveJacobianError,
                           SingularDiffusionError, _midpoint_diffusion, couplings,
                           diffusion_jacobian, diffusion_residual,
                           newton_step, reduced_initial, residual_for,
                           semilinear_jacobian, solve)
from spgrid.problems import (QuasilinearDiffusionProblem, SemilinearProblem,
                             example1, example2, make_problem)
from oracles import jacobian_fd_gap, log_transform, reduced_start_solve
from test_linsolve import linear_problem, ones
from toolbox import workloads


def _residual_norm(mesh, p, y):
    return float(np.max(np.abs(residual_for(mesh, p, y))))


def _solve_from(mesh, p, y0):
    """Newton to ``newton.TOL`` from the start vector ``y0`` (not the reduced one)."""
    return newton._iterate(mesh, p, np.array(y0, dtype=float), [], None, None,
                           newton.TOL)


def test_linear_problem_one_iteration_from_zero():
    mesh = build_mesh(MeshSpec("shishkin", 1e-2, 16))
    out = _solve_from(mesh, linear_problem(1e-2, ones, np.zeros_like), np.zeros(17))
    assert out.iterations == 1
    assert np.array_equal(out.y, np.zeros(17))


@pytest.mark.parametrize("family,a", [("bakhvalov", 4.0), ("vulanovic", 1.0),
                                      ("shishkin", 1.0)])
@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_example1_converges_fast_with_reduced_start(family, a, eps):
    p = example1(eps)
    for n in (8, 16, 32, 64):
        mesh = build_mesh(MeshSpec(family, eps, n, a=a))
        out = solve(mesh, p)
        assert out.iterations <= 8
        assert _residual_norm(mesh, p, out.y) <= 1e-9
        assert out.y[0] == p.bc_left and out.y[-1] == p.bc_right


def test_example1_zero_start_converges_but_slowly():
    # the tangent of (u-1)/(2-u) at u=0 crosses zero at u=2, the pole of f,
    # so zero-start iterates creep along the steep branch before contracting
    p = example1(1e-2)
    mesh = build_mesh(MeshSpec("bakhvalov", 1e-2, 16, a=4.0))
    out = _solve_from(mesh, p, np.zeros(17))
    assert out.iterations > 8


def test_quadratic_tail_of_updates():
    p = example1(1e-2)
    mesh = build_mesh(MeshSpec("vulanovic", 1e-2, 64, a=1.0))
    out = solve(mesh, p)
    tail = [(u1, u2) for u1, u2 in zip(out.update_history, out.update_history[1:])
            if u1 <= 0.1 and u2 > 1e-14]
    assert tail, "no usable tail pairs"
    for u1, u2 in tail:
        assert u2 <= 100.0 * u1 * u1


def test_boundedness_of_converged_solution():
    p = example1(1e-2)
    for family, a in (("bakhvalov", 4.0), ("shishkin", 1.0)):
        mesh = build_mesh(MeshSpec(family, 1e-2, 64, a=a))
        out = solve(mesh, p)
        assert np.max(np.abs(out.y)) <= 1.0 + 1e-6


def test_reduced_initial_finds_reaction_root():
    p = example1(1e-2)
    mesh = build_mesh(MeshSpec("uniform", 1e-2, 32))
    xi = mesh.interior()
    y0 = reduced_initial(mesh, p)
    resid = p.f(xi, y0[1:-1]) - p.source(xi)
    assert np.max(np.abs(resid)) < 1e-10
    # example 2: reduced root is u = fsrc(x)
    p2 = example2(0.1)
    y0 = reduced_initial(mesh, p2)
    assert np.max(np.abs(p2.r(xi, y0[1:-1]) - p2.source(xi))) < 1e-10


def test_reduced_initial_clamps_infinite_steps_and_skips_nan_steps():
    # f = u^3 has f_u = 0 at the zero start: nodes with a nonzero source
    # take an infinite first step, clamped to 0.5 toward the root; nodes
    # with a zero source take 0/0 and stay exactly at zero
    mesh = build_mesh(MeshSpec("uniform", 1e-2, 8))
    s = np.array([1.0, -1.0, 0.0, 8.0, -8.0, 0.0, 1.0])
    starts = []

    def f(x, u):
        starts.append(u.copy())
        return u ** 3

    p = SemilinearProblem(eps=1e-2, f=f, f_u=lambda x, u: 3.0 * u ** 2,
                          bc_left=0.0, bc_right=0.0, source=lambda x: s)
    y = reduced_initial(mesh, p)
    assert np.array_equal(starts[1], [0.5, -0.5, 0.0, 0.5, -0.5, 0.0, 0.5])
    assert np.array_equal(y[1:-1][s == 0.0], [0.0, 0.0])
    assert np.allclose(y[1:-1], np.cbrt(s), rtol=1e-12, atol=0.0)


def test_no_convergence_error_carries_update(monkeypatch):
    p = example1(1e-2)
    mesh = build_mesh(MeshSpec("shishkin", 1e-2, 32))
    monkeypatch.setattr(newton, "MAX_ITER", 2)
    with pytest.raises(NoConvergenceError) as info:
        _solve_from(mesh, p, np.zeros(33))
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
        _solve_from(mesh, p, np.zeros(17))
    assert len(calls) == 1
    assert np.isnan(info.value.final_update)


def test_nonpositive_jacobian_detected():
    # one positivity check on the reaction derivative serves both schemes
    minus_ones = lambda x, u: -np.ones_like(np.asarray(u, dtype=float))
    semilinear = SemilinearProblem(eps=0.1, f=lambda x, u: -u, f_u=minus_ones,
                                   bc_left=0.0, bc_right=0.0)
    diffusion = QuasilinearDiffusionProblem(
        eps=0.1, d=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        d_u=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        r=lambda x, u: -u, r_u=minus_ones, bc_left=0.0, bc_right=0.0)
    mesh = build_mesh(MeshSpec("uniform", 0.1, 8))
    for bad in (semilinear, diffusion):
        with pytest.raises(NonpositiveJacobianError):
            _solve_from(mesh, bad, np.zeros(9))


def test_singular_diffusion_detected():
    p = example2(0.1)
    mesh = build_mesh(MeshSpec("uniform", 0.1, 8))
    y = np.full(9, -2.0)  # 1 + midpoint < 0
    y[0], y[-1] = p.bc_left, p.bc_right
    with pytest.raises(SingularDiffusionError):
        newton_step(mesh, p, y)


BAD_VALUES = [np.nan, np.inf, -np.inf, 0.0, -1.0]


def _ones_but_one(bad):
    """Ones shaped like the callback argument, with entry 2 replaced by ``bad``."""
    def values(*args):
        v = np.ones_like(np.asarray(args[-1], dtype=float))
        if v.ndim:
            v[2] = bad
        return v
    return values


@pytest.mark.parametrize("bad", BAD_VALUES)
def test_one_bad_reaction_derivative_entry_is_rejected(bad):
    mesh = build_mesh(MeshSpec("uniform", 0.1, 8))
    semilinear = SemilinearProblem(eps=0.1, f=lambda x, u: u, f_u=_ones_but_one(bad),
                                   bc_left=0.0, bc_right=1.0)
    diffusion = QuasilinearDiffusionProblem(
        eps=0.1, d=_ones_but_one(1.0), d_u=lambda u: np.zeros_like(u),
        r=lambda x, u: u, r_u=_ones_but_one(bad), bc_left=0.0, bc_right=1.0)
    for p in (semilinear, diffusion):
        with pytest.raises(NonpositiveJacobianError):
            _solve_from(mesh, p, np.zeros(9))


@pytest.mark.parametrize("bad", BAD_VALUES)
def test_one_bad_midpoint_diffusion_value_is_rejected(bad):
    # before the Jacobian checks r_u, even where r_u is bad as well
    mesh = build_mesh(MeshSpec("uniform", 0.1, 8))
    for r_u in (_ones_but_one(1.0), _ones_but_one(bad)):
        p = QuasilinearDiffusionProblem(
            eps=0.1, d=_ones_but_one(bad), d_u=lambda u: np.zeros_like(u),
            r=lambda x, u: u, r_u=r_u, bc_left=0.0, bc_right=1.0)
        with pytest.raises(SingularDiffusionError):
            _solve_from(mesh, p, np.zeros(9))


@pytest.mark.parametrize("constant", [False, True])
def test_shared_midpoint_diffusion_changes_no_bit(constant):
    # newton_step evaluates (d(m), chain) once for residual and Jacobian;
    # either computes the same arrays without it.  The residual reads d(m)
    # alone and writes into neither; the Jacobian leaves d(m) as it was and
    # writes its left weights over the chain, so each call uses up a pair
    p = example2(1e-2)
    if constant:  # d(m) comes back 0-d
        p = replace(p, d=lambda u: 1.5, d_u=lambda u: 0.0)
    mesh = build_mesh(MeshSpec("vulanovic", 1e-2, 300, a=2.0))
    rng = np.random.default_rng(5)
    y = rng.uniform(0.5, 2.0, 301)
    y[0], y[-1] = p.bc_left, p.bc_right
    midpoint = _midpoint_diffusion(p.d, p.d_u, y)
    kept = [v.copy() for v in midpoint]
    same = lambda a, b: a.shape == b.shape and a.tobytes() == b.tobytes()
    assert same(_midpoint_diffusion(p.d, None, y)[0], kept[0])
    assert same(diffusion_residual(mesh, p, y, midpoint=midpoint),
                diffusion_residual(mesh, p, y))
    assert all(same(v, k) for v, k in zip(midpoint, kept))
    for cpl in (None, couplings(mesh, p.eps)):
        midpoint = _midpoint_diffusion(p.d, p.d_u, y)
        shared = diffusion_jacobian(mesh, p, y, cpl, midpoint=midpoint)
        alone = diffusion_jacobian(mesh, p, y, cpl)
        assert all(same(a, b) for a, b in zip(shared, alone, strict=True))
        assert same(midpoint[0], kept[0])


def test_callbacks_returning_python_floats_solve_as_arrays_do():
    # constant derivatives and diffusion may come back as plain floats
    mesh = build_mesh(MeshSpec("shishkin", 1e-2, 32))
    ones = lambda *args: np.ones_like(np.asarray(args[-1], dtype=float))
    src = lambda x: np.cos(3.0 * x)
    pairs = [
        (SemilinearProblem(eps=1e-2, f=lambda x, u: u, f_u=lambda x, u: 1.0,
                           bc_left=0.5, bc_right=-1.0, source=src),
         SemilinearProblem(eps=1e-2, f=lambda x, u: u, f_u=ones,
                           bc_left=0.5, bc_right=-1.0, source=src)),
        (QuasilinearDiffusionProblem(
            eps=1e-2, d=lambda u: 1.0, d_u=lambda u: 0.0, r=lambda x, u: 2.0 * u,
            r_u=lambda x, u: 2.0, bc_left=0.5, bc_right=-1.0, source=src),
         QuasilinearDiffusionProblem(
            eps=1e-2, d=ones, d_u=lambda u: np.zeros_like(u), r=lambda x, u: 2.0 * u,
            r_u=lambda x, u: 2.0 * ones(u), bc_left=0.5, bc_right=-1.0, source=src)),
    ]
    for scalar, array in pairs:
        y = solve(mesh, scalar).y
        assert np.array_equal(y, solve(mesh, array).y)
        assert np.all(np.isfinite(y))


@pytest.mark.parametrize("eps", [1e-1, 1e-2])
def test_example2_solver_accuracy(eps):
    p = example2(eps)
    mesh = build_mesh(MeshSpec("vulanovic", eps, 64, a=2.0))
    out = solve(mesh, p)
    assert out.iterations <= 8
    assert _residual_norm(mesh, p, out.y) <= 1e-9
    err = np.max(np.abs(out.y - p.exact(mesh.nodes)))
    assert err < 5e-3


def test_constant_diffusion_reduces_to_linear_scheme():
    # d = 1: midpoint-scheme Jacobian must equal the unit-weight rows
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
    ref = semilinear_jacobian(mesh, linear_problem(eps, np.ones(23), 0.0), y)
    for band, want in zip(jac, ref, strict=True):  # sub, diag, sup
        assert np.allclose(band, want, rtol=1e-15, atol=0)
    # and the converged solution equals the one of the linear problem
    out = _solve_from(mesh, p, np.zeros(25))
    lin = solve(mesh, linear_problem(eps, ones, gsrc, 0.3, -0.2)).y
    assert np.max(np.abs(out.y - lin)) < 1e-12


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


def _column_loop_fd_gap(mesh, p, y):
    """Reference for jacobian_fd_gap: one residual pair per column."""
    jacobian = (diffusion_jacobian if isinstance(p, QuasilinearDiffusionProblem)
                else semilinear_jacobian)
    sub, diag, sup = jacobian(mesh, p, y)
    m = mesh.n - 1
    gap = 0.0
    for j in range(m):
        step = 1e-6 * (1.0 + abs(y[j + 1]))
        yp = y.copy()
        yp[j + 1] += step
        ym = y.copy()
        ym[j + 1] -= step
        col = (residual_for(mesh, p, yp) - residual_for(mesh, p, ym)) / (2.0 * step)
        entries = [(j, diag[j])]
        if j > 0:
            entries.append((j - 1, sup[j - 1]))
        if j < m - 1:
            entries.append((j + 1, sub[j + 1]))
        for i, a in entries:
            gap = max(gap, abs(a - col[i]) / max(1.0, abs(a), abs(col[i])))
    return gap


def _perturbed_exact(p, mesh, seed):
    rng = np.random.default_rng(seed)
    y = p.exact(mesh.nodes) + rng.uniform(-0.1, 0.1, mesh.n + 1)
    y[0], y[-1] = p.bc_left, p.bc_right
    return y


FAMILIES = ("uniform", "shishkin", "bakhvalov", "vulanovic")


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("factory", [example1, example2])
@pytest.mark.parametrize("n", [2, 3, 4, 41])
def test_jacobian_fd_gap_colouring_matches_column_loop(family, factory, n):
    p = factory(1e-1)
    mesh = build_mesh(MeshSpec(family, 1e-1, n))
    y = _perturbed_exact(p, mesh, 19)
    assert jacobian_fd_gap(mesh, p, y) == _column_loop_fd_gap(mesh, p, y)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("factory,bound", [(example1, 1e-6), (example2, 1e-5)])
def test_jacobian_fd_gap_at_realistic_size(family, factory, bound):
    p = factory(1e-2)
    mesh = build_mesh(MeshSpec(family, 1e-2, 4096))
    assert jacobian_fd_gap(mesh, p, _perturbed_exact(p, mesh, 23)) <= bound


@pytest.mark.parametrize("family", FAMILIES)
def test_semilinear_scheme_is_diffusion_scheme_with_unit_d(family):
    # ex1 posed as -eps^2 (1 * u')' + f = source takes the same Newton path
    p = example1(1e-2)
    q = QuasilinearDiffusionProblem(
        eps=p.eps, d=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        d_u=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        r=p.f, r_u=p.f_u, bc_left=p.bc_left, bc_right=p.bc_right, exact=p.exact,
        source=p.source)
    mesh = build_mesh(MeshSpec(family, 1e-2, 256))
    y_semi = reduced_initial(mesh, p)
    y_diff = reduced_initial(mesh, q)
    assert np.array_equal(y_semi, y_diff)
    a, b = solve(mesh, p), solve(mesh, q)
    assert a.iterations == b.iterations
    for _ in range(a.iterations):
        y_semi, _ = newton_step(mesh, p, y_semi)
        y_diff, _ = newton_step(mesh, q, y_diff)
        assert np.max(np.abs(y_semi - y_diff)) <= 1e-14 * np.max(np.abs(y_semi))


def test_solutions_agree_with_log_transform_route():
    for eps in (1e-1, 1e-2, 1e-4):
        p = example2(eps)
        v = log_transform(p)
        for family, a in (("vulanovic", 2.0), ("bakhvalov", 2.0)):
            mesh = build_mesh(MeshSpec(family, eps, 32, a=a))
            u_mid = solve(mesh, p).y
            u_log = np.expm1(solve(mesh, v).y)
            err_mid = np.max(np.abs(u_mid - p.exact(mesh.nodes)))
            err_log = np.max(np.abs(u_log - p.exact(mesh.nodes)))
            agree = np.max(np.abs(u_mid - u_log))
            assert agree <= 5.0 * max(err_mid, err_log)


def test_explicit_initial_guess_and_validation():
    p = example1(1e-2)
    mesh = build_mesh(MeshSpec("uniform", 1e-2, 16))
    good = np.full(17, 0.9)
    _solve_from(mesh, p, good)  # an outcome exists only once the stop test held


def _folded(p):
    """``p`` with its source folded back into the reaction, source None."""
    src = p.source
    if isinstance(p, QuasilinearDiffusionProblem):
        r = p.r
        return replace(p, r=lambda x, u: r(x, u) - src(x), source=None)
    f = p.f
    return replace(p, f=lambda x, u: f(x, u) - src(x), source=None)


def test_solve_evaluates_source_once():
    for name in ("ex1", "ex2"):
        p = make_problem(name, 1e-2)
        calls = []

        def source(x, inner=p.source):
            calls.append(len(x))
            return inner(x)

        mesh = build_mesh(MeshSpec("bakhvalov", 1e-2, 256, a=2.0))
        out = solve(mesh, replace(p, source=source))
        assert out.iterations > 1
        assert calls == [mesh.n - 1]


@pytest.mark.parametrize("name", ["ex1", "ex2"])
@pytest.mark.parametrize("family", ["shishkin", "bakhvalov", "vulanovic"])
def test_split_source_matches_folded_reaction(name, family):
    # the split problem and the folded one take bit-for-bit the same path
    split = make_problem(name, 1e-4)
    folded = _folded(split)
    mesh = build_mesh(MeshSpec(family, 1e-4, 1024, a=2.0))
    y_split, y_folded = reduced_initial(mesh, split), reduced_initial(mesh, folded)
    assert np.array_equal(y_split, y_folded)
    a, b = solve(mesh, split), solve(mesh, folded)
    assert a.iterations == b.iterations
    assert a.update_history == b.update_history
    assert np.array_equal(a.y, b.y)
    assert _residual_norm(mesh, split, a.y) == _residual_norm(mesh, folded, b.y)
    for _ in range(a.iterations):
        y_split, _ = newton_step(mesh, split, y_split)
        y_folded, _ = newton_step(mesh, folded, y_folded)
        assert np.array_equal(y_split, y_folded)


def _scaled(p, S):
    """``p`` for the unknown ``U = S u``: ``S f(x, U/S) = S source``."""
    f, f_u, source = p.f, p.f_u, p.source
    return replace(p, f=lambda x, u: S * f(x, u / S),
                   f_u=lambda x, u: f_u(x, u / S),
                   source=lambda x: S * source(x),
                   bc_left=S * p.bc_left, bc_right=S * p.bc_right)


@pytest.mark.parametrize("S", [1e2, 1e4, 1e6])
def test_stopping_rule_holds_at_any_solution_scale(S):
    # an absolute update test stalls at the roundoff floor of S-sized
    # iterates (S = 1e4 and 1e6 ran into MAX_ITER); the relative rule stops
    # there.  No iteration budget yet: the reduced start does not scale.
    p = example1(1e-2)
    mesh = build_mesh(MeshSpec("bakhvalov", 1e-2, 4096, a=4.0))
    base = solve(mesh, p)
    out = solve(mesh, _scaled(p, S))
    gap = np.max(np.abs(out.y / S - base.y))
    assert gap <= 1e-12 * np.max(np.abs(base.y))


@pytest.mark.parametrize("name,iterations", [("ex1", 5), ("ex2", 4)])
@pytest.mark.parametrize("family", ["shishkin", "bakhvalov", "vulanovic"])
@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
def test_error_bound_stops_without_a_confirming_sweep(name, iterations, family, eps):
    # the contraction bound stops Newton one sweep before an update test
    # would; the sweep it saves moves the returned y by at most tau
    p = make_problem(name, eps)
    mesh = build_mesh(MeshSpec(family, eps, 4096, a=workloads.grading(name, family)))
    out = solve(mesh, p)
    assert out.iterations == iterations
    tau = newton.TOL * max(1.0, np.max(np.abs(out.y)))
    _, update = newton_step(mesh, p, out.y)
    assert update <= tau


def _count_residuals(monkeypatch):
    calls = []
    for name in ("semilinear_residual", "diffusion_residual"):
        def counted(*args, real=getattr(newton, name), **kw):
            calls.append(args[0].n)
            return real(*args, **kw)
        monkeypatch.setattr(newton, name, counted)
    return calls


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_residuals_run_once_per_iteration_and_once_per_fine_step(monkeypatch, name):
    from spgrid.twogrid import TwoGridPlan, algorithm1

    calls = _count_residuals(monkeypatch)
    p = make_problem(name, 1e-2)
    mesh = build_mesh(MeshSpec("vulanovic", 1e-2, 256, a=2.0))
    out = solve(mesh, p)
    assert calls == [mesh.n] * out.iterations
    calls.clear()
    result = algorithm1(p, TwoGridPlan(coarse=MeshSpec("vulanovic", 1e-2, 16, a=2.0)))
    assert calls.count(result.fine_meshes[0].n) == 1


def _recorded_starts(monkeypatch):
    """The meshes that ``reduced_initial`` runs on, from now on."""
    meshes = []

    def recorded(mesh, *args, real=newton.reduced_initial):
        meshes.append(mesh)
        return real(mesh, *args)

    monkeypatch.setattr(newton, "reduced_initial", recorded)
    return meshes


def _check_nested_start(monkeypatch, name, spec, base_n):
    # the nested start converges to the reduced start's solution, in at most
    # three sweeps on the fine mesh, and only the base mesh takes the reduced root
    p = make_problem(name, spec.eps)
    mesh = build_mesh(spec)
    ref = reduced_start_solve(mesh, p)
    starts = _recorded_starts(monkeypatch)
    out = solve(mesh, p)
    assert np.max(np.abs(out.y - ref.y)) <= 1e-15 * max(1.0, np.max(np.abs(ref.y)))
    assert out.iterations <= 3 < ref.iterations
    assert [m.n for m in starts] == [base_n]
    assert out.y[0] == p.bc_left and out.y[-1] == p.bc_right


@pytest.mark.parametrize("name", ["ex1", "ex2"])
@pytest.mark.parametrize("family", ["shishkin", "bakhvalov", "vulanovic"])
@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
def test_nested_start_matches_the_reduced_start_on_the_benchmark_grid(
        monkeypatch, name, family, eps):
    spec = MeshSpec(family, eps, 2 ** 14, a=workloads.grading(name, family))
    _check_nested_start(monkeypatch, name, spec, 2 ** 10)


@pytest.mark.parametrize("name,spec,base_n", [
    # 16 divides neither n nor 4097: x_n closes both coarse meshes
    ("ex1", MeshSpec("bakhvalov", 1e-4, 65537, a=4.0), 257),
    ("ex2", MeshSpec("shishkin", 1e-6, 5000, a=2.0), 313),
    ("ex2", MeshSpec("vulanovic", 1e-4, 2 ** 14, a=2.0, layer_sides="left"), 2 ** 10),
    ("ex1", MeshSpec("vulanovic", 1e-2, 65537, a=1.0, layer_sides="left"), 257),
])
def test_nested_start_matches_on_odd_sizes_and_one_sided_meshes(monkeypatch, name,
                                                                spec, base_n):
    _check_nested_start(monkeypatch, name, spec, base_n)


@pytest.mark.parametrize("name", ["ex1", "ex2"])
@pytest.mark.parametrize("family", ["shishkin", "vulanovic"])
def test_solve_at_the_nested_base_keeps_the_reduced_start(monkeypatch, name, family):
    p = make_problem(name, 1e-4)
    mesh = build_mesh(MeshSpec(family, 1e-4, newton.NESTED_BASE,
                               a=workloads.grading(name, family)))
    ref = reduced_start_solve(mesh, p)
    starts = _recorded_starts(monkeypatch)

    def no_transfer(*args):
        raise AssertionError("a transfer at n <= NESTED_BASE")

    monkeypatch.setattr(newton, "coarsen", no_transfer)
    monkeypatch.setattr(newton, "interpolant_slopes", no_transfer)
    out = solve(mesh, p)
    assert len(starts) == 1 and starts[0] is mesh
    assert np.array_equal(out.y, ref.y)
    assert out.update_history == ref.update_history
