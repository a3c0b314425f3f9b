import pickle
import weakref
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest

import spgrid.newton
import spgrid.twogrid
from spgrid.bench import ReportConfig, run_report
from spgrid.mesh import MeshSpec, build_mesh
from spgrid.newton import (NoConvergenceError, NonpositiveJacobianError,
                           solve as newton_solve)
from spgrid.problems import PROBLEMS, example1, example2, make_problem
from spgrid.twogrid import (TwoGridPlan, algorithm1, algorithm2, choose_r,
                            interpolant_slopes)
from toolbox import workloads

# 50-digit reference values for N^r / r = N^2 / ln N (see _choose_r_reference)
CHOOSE_R_REFERENCE = {
    4: (2.39413562824760548, 28),
    5: (2.19192828342087036, 34),
    6: (2.0844445606794905, 42),
    7: (2.01893122597730031, 51),
    8: (1.97528927244827121, 61),
    16: (1.85505758650848175, 171),
    32: (1.81305166261810564, 536),
    64: (1.79842266593839056, 1771),
    2048: (1.81150191698178988, 996507),
}


def test_interpolant_slopes_checks_values():
    coarse = build_mesh(MeshSpec("uniform", 0.1, 4))
    fine = build_mesh(MeshSpec("uniform", 0.1, 16))
    for values in (np.zeros(4), np.zeros(6)):
        with pytest.raises(ValueError, match="values length"):
            interpolant_slopes(coarse, values, fine)


def test_interpolant_slopes_match_coarse_cells():
    coarse = build_mesh(MeshSpec("bakhvalov", 1e-2, 8, a=4.0))
    fine = build_mesh(MeshSpec("bakhvalov", 1e-2, 64, a=4.0))
    rng = np.random.default_rng(2)
    vals = rng.normal(size=9)
    w, slopes = interpolant_slopes(coarse, vals, fine)
    assert np.array_equal(w, np.interp(fine.nodes, coarse.nodes, vals))
    coarse_slopes = np.diff(vals) / coarse.steps
    mids = 0.5 * (fine.nodes[:-1] + fine.nodes[1:])
    cells = np.searchsorted(coarse.nodes, mids) - 1
    # nested nodes: every fine interval sits inside one coarse cell
    assert np.array_equal(slopes, coarse_slopes[cells])


@pytest.mark.parametrize("n_coarse", sorted(CHOOSE_R_REFERENCE))
def test_choose_r_reference_values(n_coarse):
    r, n = choose_r(n_coarse)
    r_ref, n_ref = CHOOSE_R_REFERENCE[n_coarse]
    assert r == pytest.approx(r_ref, abs=1e-9)
    assert n == n_ref
    # the defining balance N^r / r = N^2 / ln N
    assert n_coarse ** r / r == pytest.approx(
        n_coarse ** 2 / np.log(n_coarse), rel=1e-10)


def test_choose_r_small_sizes_have_roots_above_two():
    r, n = choose_r(4)
    assert r > 2.0
    assert n == round(4.0 ** r)
    with pytest.raises(ValueError):
        choose_r(3)


def _choose_r_reference(n_coarse):
    """50-digit root: ``r = -W_{-1}(-(ln N / N)^2) / ln N``."""
    with mpmath.workdps(50):
        ln_n = mpmath.log(n_coarse)
        return float(-mpmath.lambertw(-(ln_n / n_coarse) ** 2, -1).real / ln_n)


def test_choose_r_matches_lambert_w_root():
    for n_coarse in range(4, 4096):
        r, n = choose_r(n_coarse)
        ref = _choose_r_reference(n_coarse)
        assert abs(r / ref - 1) <= 1e-14, n_coarse
        assert n == round(n_coarse ** ref), n_coarse


def test_cascade_level_one_equals_algorithm1():
    p = example1(1e-2)
    spec = MeshSpec("vulanovic", 1e-2, 8, a=1.0)
    res1 = algorithm1(p, TwoGridPlan(coarse=spec, r=2.0))
    res2 = algorithm2(p, TwoGridPlan(coarse=spec, cascade_levels=1))
    assert res1.fine_meshes[0].n == 64 == res2.fine_meshes[0].n
    assert np.array_equal(res1.fine[0].y, res2.fine[0].y)


def test_algorithm2_runs_the_fine_sizes_of_its_plan():
    # r is read, not replaced by r = 2: 4**1.5 = 8, 8**1.5 -> 23, 23**1.5 -> 110
    plan = TwoGridPlan(MeshSpec("uniform", 0.1, 4), r=1.5, cascade_levels=2)
    result = algorithm2(example1(0.1), plan)
    assert [m.n for m in result.fine_meshes] == plan.fine_sizes() == [8, 23]
    plan = TwoGridPlan(MeshSpec("uniform", 0.1, 4), 1.5, 3)  # (coarse, r, levels)
    assert [m.n for m in algorithm2(example1(0.1), plan).fine_meshes] == [8, 23, 110]


@pytest.mark.parametrize("name,family", [("ex1", "bakhvalov"), ("ex2", "vulanovic")])
def test_levels_walks_the_cascade_one_sweep_per_fine_mesh(name, family):
    # the walk reads its fine meshes lazily: each one is built only after the
    # level before was yielded, so a caller's clock can time it in its level
    p = make_problem(name, 1e-4)
    spec = MeshSpec(family, 1e-4, 8, a=2.0)
    events = []

    def finer():
        for n in (64, 4096):
            events.append(("build", n))
            yield build_mesh(replace(spec, n=n))

    walked = []
    for mesh, out in spgrid.newton.levels(p, build_mesh(spec), finer()):
        events.append(("yield", mesh.n))
        walked.append(out)
    assert events == [("yield", 8), ("build", 64), ("yield", 64), ("build", 4096),
                      ("yield", 4096)]
    first, direct = walked[0], newton_solve(build_mesh(spec), p)
    assert np.array_equal(first.y, direct.y)
    assert (first.iterations, first.final_update, first.update_history) == (
        direct.iterations, direct.final_update, direct.update_history)
    assert [out.iterations for out in walked[1:]] == [1, 1]
    assert [out.y.size for out in walked] == [9, 65, 4097]


def test_outcomes_are_plain_data_that_pickle():
    # an outcome holds what the Newton loop computed, not the mesh or the
    # problem: example1's callbacks are local functions, which pickle refuses
    p = example1(1e-2)
    spec = MeshSpec("bakhvalov", 1e-2, 8, a=4.0)
    out = newton_solve(build_mesh(spec), p)
    assert [f.name for f in fields(out)] == ["y", "iterations", "final_update",
                                             "update_history"]
    back = pickle.loads(pickle.dumps(out))
    assert np.array_equal(back.y, out.y)
    assert (back.iterations, back.final_update, back.update_history) == (
        out.iterations, out.final_update, out.update_history)
    result = algorithm1(p, TwoGridPlan(coarse=spec))
    back = pickle.loads(pickle.dumps(result))
    assert np.array_equal(back.fine[0].y, result.fine[0].y)
    assert np.array_equal(back.fine_meshes[0].nodes, result.fine_meshes[0].nodes)


def test_non_finite_cascade_level_fails_at_the_next_jacobian(monkeypatch):
    # the transfer passes non-finite values on; the next level's Jacobian
    # check is what rejects them
    real_step = spgrid.newton.newton_step
    plan = TwoGridPlan(coarse=MeshSpec("shishkin", 1e-2, 4), cascade_levels=2)
    levels = []

    def nan_first_level(mesh, *args, **kw):
        if mesh.n == plan.coarse.n:  # the coarse solve's steps
            return real_step(mesh, *args, **kw)
        levels.append(mesh.n)
        y, update = real_step(mesh, *args, **kw)
        if mesh.n == 16:
            y[mesh.n // 2] = np.nan
        return y, update

    monkeypatch.setattr(spgrid.newton, "newton_step", nan_first_level)
    with pytest.raises(NonpositiveJacobianError, match="reaction derivative"):
        algorithm2(example1(1e-2), plan)
    assert levels == [16, 256]


def _inf_off_coarse_nodes(eps):
    """ex1 with its source inf everywhere but on the uniform N = 4 nodes."""
    p = example1(eps)

    def source(x):
        return np.where(4.0 * x == np.round(4.0 * x), p.source(x), np.inf)

    return replace(p, source=source)


def test_non_finite_fine_update_raises():
    # the coarse solve sees a finite source; the fine step's update is inf
    plan = TwoGridPlan(coarse=MeshSpec("uniform", 1e-2, 4))
    assert plan.fine_sizes() == [16]
    with pytest.raises(NoConvergenceError,
                       match="^non-finite update in iteration 1$") as err:
        algorithm1(_inf_off_coarse_nodes(1e-2), plan)
    assert not np.isfinite(err.value.final_update)


def test_non_finite_fine_update_is_a_failed_report_cell(monkeypatch):
    monkeypatch.setitem(PROBLEMS, "ex1", _inf_off_coarse_nodes)
    cfg = ReportConfig(problem="ex1", families=("uniform",), eps_list=(1e-2,),
                       n_list=(4,), algorithm="tg1")
    report = run_report(cfg)
    assert report.failed_cells() == 1 and len(report.rows) == 1
    assert report.rows[0].failed == ("NoConvergenceError: non-finite update "
                                     "in iteration 1")


@pytest.mark.parametrize("problem,family,a", [("ex1", "bakhvalov", 4.0),
                                              ("ex2", "vulanovic", 2.0)])
def test_fine_step_frees_the_slopes_before_its_jacobian(monkeypatch, problem, family,
                                                        a):
    # only the first residual reads the interpolant's slopes: no frame may
    # hold them through the Jacobian and the solve, the step's memory peak
    refs, dead = [], []

    def slopes(*args):
        w, s = interpolant_slopes(*args)
        refs.append(weakref.ref(s))
        return w, s

    name = "semilinear_jacobian" if problem == "ex1" else "diffusion_jacobian"
    real_jacobian = getattr(spgrid.newton, name)

    def jacobian(*args, **kwargs):
        if refs:  # the fine step's; the coarse solve's come first
            dead.append(refs[-1]() is None)
        return real_jacobian(*args, **kwargs)

    monkeypatch.setattr(spgrid.newton, "interpolant_slopes", slopes)  # where levels calls it
    monkeypatch.setattr(spgrid.newton, name, jacobian)
    plan = TwoGridPlan(coarse=MeshSpec(family, 1e-4, 16, a=a))
    algorithm1(make_problem(problem, 1e-4), plan)
    assert dead == [True]


def test_plan_validation_and_memory_guard():
    spec = MeshSpec("uniform", 0.1, 64)
    with pytest.raises(ValueError):
        TwoGridPlan(coarse=spec, r=1.0)
    with pytest.raises(ValueError, match="^fine grid must be strictly finer"):
        TwoGridPlan(coarse=spec, r=1.0001)  # round(64**1.0001) = 64
    with pytest.raises(ValueError):
        TwoGridPlan(coarse=spec, cascade_levels=-1)
    with pytest.raises(ValueError, match="^fine size 16777216 exceeds"):
        TwoGridPlan(coarse=spec, cascade_levels=2)  # 64^4 > 2^20
    coarse = MeshSpec("uniform", 0.1, 4)
    assert TwoGridPlan(coarse, cascade_levels=3).fine_sizes() == [16, 256, 65536]
    assert TwoGridPlan(coarse, cascade_levels=0).fine_sizes() == []
    assert [f.name for f in fields(TwoGridPlan)] == ["coarse", "r", "cascade_levels"]


def test_two_grid_matches_direct_fine_solve():
    """The abstract's claim: one linearized fine step after the coarse
    nonlinear solve has the global error of the nonlinear scheme solved
    directly on the same fine mesh (n = N^2).

    Checked on Vulanovic meshes (ex1 with a = 1, ex2 with a = 2), where the
    direct fine error follows its worst-case bound: the ratio E_tg/E_direct
    measured 1.92-3.56, and the gap |y_tg - y_direct| shrinks like N^-4
    (mean orders 4.35-4.42 for ex1, 4.04-4.07 for ex2; 3.97 for ex1 on
    Bakhvalov with a = 4).  Two findings are recorded here rather than
    bounded: on Bakhvalov (a = 4) the direct solve superconverges by ~3
    orders and the ratio runs from 3.3e3 up to 1.4e7 (about 16x per doubling
    of N at eps <= 1e-4); on Shishkin meshes it runs from 0.5 to 7.6,
    growing with N, and the gap orders are only 2.0 to 2.9.
    """
    for factory, a in ((example1, 1.0), (example2, 2.0)):
        for eps in (1e-2, 1e-4, 1e-6):
            p = factory(eps)
            gaps = []
            for N in (8, 16, 32, 64):
                plan = TwoGridPlan(coarse=MeshSpec("vulanovic", eps, N, a=a))
                result = algorithm1(p, plan)
                fine_mesh, y_tg = result.fine_meshes[0], result.fine[0].y
                y_direct = newton_solve(fine_mesh, p).y
                exact = p.exact(fine_mesh.nodes)
                e_tg = np.max(np.abs(y_tg - exact))
                e_direct = np.max(np.abs(y_direct - exact))
                assert e_tg <= 4.0 * e_direct, (factory, eps, N)
                gaps.append(np.max(np.abs(y_tg - y_direct)))
            # mean observed order over the three doublings of N
            assert np.log2(gaps[0] / gaps[-1]) / 3 >= 3.5, (factory, eps, gaps)


@pytest.mark.parametrize("family", ["shishkin", "bakhvalov", "vulanovic"])
@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_fine_step_gap_is_quadratic_in_the_interpolant_gap(name, family):
    """The abstract's claim by its mechanism: the fine step is one Newton
    step from the interpolant w, so its gap to the direct fine solution is
    quadratic in w's gap, max|y_tg - y_direct| <= C max|w - y_direct|^2.

    C measured at most 0.290 (ex2 on Vulanovic, eps = 1e-2, also at
    N = 128 and 256); the bound is 1.25 times that.  The ratio form
    E_tg/E_direct is not pinned: on Shishkin meshes w's gap carries
    (N^-1 ln N)^2, so the ratio in the interpolant norm grows with N (ex2:
    1.07, 2.59, 5.12 at N = 16, 32, 64; ex1: 0.93, 0.96, 1.16) while C
    stays at 0.19-0.25 for ex2 there.
    """
    a = workloads.grading(name, family)
    for eps in (1e-2, 1e-4, 1e-6):
        p = make_problem(name, eps)
        for N in (8, 16, 32, 64):
            result = algorithm1(p, TwoGridPlan(MeshSpec(family, eps, N, a=a)))
            fine_mesh = result.fine_meshes[0]
            y_direct = newton_solve(fine_mesh, p).y
            w = interpolant_slopes(result.coarse_mesh, result.coarse.y, fine_mesh)[0]
            gap_tg = np.max(np.abs(result.fine[0].y - y_direct))
            assert gap_tg <= 0.37 * np.max(np.abs(w - y_direct)) ** 2, (eps, N)


@pytest.mark.parametrize("family,a", [("shishkin", 1.0), ("bakhvalov", 4.0),
                                      ("bakhvalov", 1.0), ("vulanovic", 1.0)])
def test_ex1_fine_step_gap_is_within_the_one_step_newton_bound(family, a):
    """``max|y_tg - y_h| <= C max|w - y_h|^2`` with the rigorous constant
    ``C = max f_uu / (2 min f_u)`` (see ``newton.levels``).  For ex1, ``f_u =
    (2 - u)^-2`` and ``f_uu = 2 (2 - u)^-3``, so over the range [lo, hi]
    spanned by w and y_h, ``C = (2 - lo)^2 / (2 - hi)^3``.  Not the nominal
    4 of u in [0, 1]: the discrete vectors overshoot 1 (hi up to 1.0037
    here).  gap / |w - y_h|^2 measured at most 0.334 (Bakhvalov a = 1,
    eps = 1e-8, N = 64), where C = 4.006.
    """
    for eps in (1e-2, 1e-4, 1e-8):
        p = example1(eps)
        for N in (8, 16, 32, 64):
            result = algorithm1(p, TwoGridPlan(MeshSpec(family, eps, N, a=a)))
            fine_mesh = result.fine_meshes[0]
            y_h = newton_solve(fine_mesh, p).y
            w = interpolant_slopes(result.coarse_mesh, result.coarse.y, fine_mesh)[0]
            lo, hi = min(w.min(), y_h.min()), max(w.max(), y_h.max())
            C = (2.0 - lo) ** 2 / (2.0 - hi) ** 3
            gap = np.max(np.abs(result.fine[0].y - y_h))
            assert gap <= C * np.max(np.abs(w - y_h)) ** 2, (eps, N)


@pytest.mark.parametrize("family,a", [("bakhvalov", 4.0), ("vulanovic", 1.0)])
def test_fourth_order_coarse_rate_on_graded_meshes(family, a):
    p = example1(1e-2)
    errs = []
    sizes = [8, 16, 32, 64]
    for N in sizes:
        plan = TwoGridPlan(coarse=MeshSpec(family, 1e-2, N, a=a))
        result = algorithm1(p, plan)
        errs.append(np.max(np.abs(result.fine[0].y
                                  - p.exact(result.fine_meshes[0].nodes))))
    slope = -np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    assert 3.6 <= slope <= 4.4


def test_two_grid_diffusion_problem():
    p = example2(1e-2)
    plan = TwoGridPlan(coarse=MeshSpec("vulanovic", 1e-2, 16, a=2.0))
    result = algorithm1(p, plan)
    fine_mesh = result.fine_meshes[0]
    err = np.max(np.abs(result.fine[0].y - p.exact(fine_mesh.nodes)))
    assert err < 2e-4
    assert result.fine[0].y[0] == p.bc_left
    assert result.fine[0].y[-1] == p.bc_right


@pytest.mark.parametrize("factory", [example1, example2])
def test_source_evaluated_once_per_mesh(factory):
    p = factory(1e-2)
    calls = []

    def source(x):
        calls.append(len(x))
        return p.source(x)

    counted = replace(p, source=source)
    plan = TwoGridPlan(coarse=MeshSpec("vulanovic", 1e-2, 16, a=2.0))
    result = algorithm1(counted, plan)
    assert calls == [15, result.fine_meshes[0].n - 1]
    calls.clear()
    cascade = TwoGridPlan(coarse=MeshSpec("vulanovic", 1e-2, 4, a=2.0),
                          cascade_levels=2)
    result = algorithm2(counted, cascade)
    assert calls == [3, 15, 255]
