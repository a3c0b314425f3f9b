import math
import os
import subprocess
import sys
import threading
from typing import NamedTuple

import numpy as np
import pytest

import spgrid
from spgrid import linsolve, newton
from spgrid.linsolve import REDUCTION_BASE, SCALAR_BASE, ZeroPivotError, thomas_solve
from spgrid.mesh import MeshSpec, build_mesh
from spgrid.newton import NonpositiveJacobianError, couplings, semilinear_jacobian, solve
from spgrid.problems import SemilinearProblem, example2


def linear_problem(eps, b, g, bc_left=0.0, bc_right=0.0):
    """``-eps^2 u'' + b u = g`` as the semilinear problem ``f = b u``.

    ``b`` and ``g`` are callables of x, or arrays of their values at the
    interior nodes of the mesh the problem is solved on.
    """
    bx = b if callable(b) else lambda x: b
    return SemilinearProblem(eps=eps, f=lambda x, u: bx(x) * u,
                             f_u=lambda x, u: bx(x), bc_left=bc_left,
                             bc_right=bc_right,
                             source=g if callable(g) else lambda x: g)


def ones(x):
    return np.ones_like(x)


class System(NamedTuple):
    """The four bands :func:`thomas_solve` takes, in its order."""

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    rhs: np.ndarray | None = None


def rows(mesh, eps, b) -> System:
    """The rows of ``-eps^2 u'' + b u``: the semilinear Jacobian of ``f = b u``,
    whatever the iterate."""
    jac = semilinear_jacobian(mesh, linear_problem(eps, b, 0.0), np.zeros(mesh.n + 1))
    return System(*jac)


def dense_matrix(sys: System) -> np.ndarray:
    A = np.diag(sys.diag)
    A += np.diag(sys.sub[1:], -1)
    A += np.diag(sys.sup[:-1], 1)
    return A


def random_mesh(rng, n):
    from spgrid.mesh import Mesh

    cuts = np.sort(rng.uniform(0.05, 0.95, n - 1))
    nodes = np.concatenate([[0.0], cuts, [1.0]])
    steps = np.diff(nodes)
    return Mesh(nodes=nodes, steps=steps,
                half_steps=0.5 * (steps[:-1] + steps[1:]))


def test_single_unknown_hand_assembly():
    # uniform n=2, eps=1, b=g=1: (8 + 1) y_1 = 1
    mesh = build_mesh(MeshSpec("uniform", 1.0, 2))
    sys = rows(mesh, 1.0, np.ones(1))
    assert sys.diag[0] == pytest.approx(9.0, rel=1e-15)
    y = solve(mesh, linear_problem(1.0, ones, ones)).y
    assert y[1] == pytest.approx(1.0 / 9.0, rel=1e-15)


def test_zero_eps_reduces_to_pointwise_inversion():
    # eps = 2^-1022, the smallest a problem takes, gives the rows of eps = 0:
    # eps * eps underflows, so diag = b with -0.0 off the diagonal
    mesh = build_mesh(MeshSpec("uniform", 1.0, 8))
    g = 1.0 + mesh.interior() ** 2
    y = thomas_solve(*rows(mesh, 2.0 ** -1022, np.ones(7))._replace(rhs=g))
    assert np.allclose(y, g, rtol=0, atol=0)


def test_assembly_matches_dense_oracle_entrywise():
    rng = np.random.default_rng(7)
    mesh = random_mesh(rng, 6)
    bvals = rng.uniform(1.0, 2.0, 5)
    gvals = rng.normal(size=5)
    eps = 0.3
    sys = rows(mesh, eps, bvals)
    h = mesh.steps
    hbar = mesh.half_steps
    A = np.zeros((5, 5))
    rhs = gvals.copy()
    for i in range(5):
        lo = -eps ** 2 / (hbar[i] * h[i])
        up = -eps ** 2 / (hbar[i] * h[i + 1])
        A[i, i] = -(lo + up) + bvals[i]
        if i > 0:
            A[i, i - 1] = lo
        else:
            rhs[0] -= lo * 0.7
        if i < 4:
            A[i, i + 1] = up
        else:
            rhs[4] -= up * (-0.2)
    assert np.allclose(dense_matrix(sys), A, rtol=0, atol=0)
    # the residual carries the Dirichlet data that the oracle folds into rhs
    y = solve(mesh, linear_problem(eps, bvals, gvals, 0.7, -0.2)).y
    assert (y[0], y[-1]) == (0.7, -0.2)
    dense = np.linalg.solve(A, rhs)
    assert np.max(np.abs(y[1:-1] - dense)) <= 1e-12 * max(1.0, np.max(np.abs(dense)))


def test_thomas_identity_system():
    m = 11
    sys = System(sub=np.zeros(m), diag=np.ones(m), sup=np.zeros(m),
                 rhs=np.linspace(-1, 1, m))
    assert np.array_equal(thomas_solve(*sys), sys.rhs)


S, R = SCALAR_BASE, REDUCTION_BASE


def tails(monkeypatch):
    """Yields the base of each tail of :func:`thomas_solve` while it is in
    use: ``REDUCTION_BASE`` and ``dgtsv`` where numpy's LAPACK has it, then
    ``SCALAR_BASE`` and the scalar loop, with the lookup patched off."""
    if linsolve.lapack_dgtsv() is not None:
        yield R
    monkeypatch.setattr(linsolve, "lapack_dgtsv", lambda: None)
    yield S


def diagonally_dominant(m, seed):
    """A random system whose off-diagonals lie in [-1, 0] and whose
    diagonal lies in [2, 3]; its band ends are not zeroed."""
    rng = np.random.default_rng(seed)
    sub = rng.uniform(-1.0, 0.0, m)
    sup = rng.uniform(-1.0, 0.0, m)
    diag = 2.0 + rng.uniform(0.0, 1.0, m)
    return System(sub, diag, sup, rng.normal(size=m))


# around both bases, odd and even level lengths; 2^k - 1 rows (every
# benchmark solve) reduce to an even level after the first, odd one
@pytest.mark.parametrize("m", [1, 2, 5, 40, S - 1, S, S + 1,
                               1023, 1024, 1025, R - 1, R, R + 1])
def test_thomas_matches_dense_oracle(m, monkeypatch):
    rng = np.random.default_rng(m)
    sub = rng.uniform(-1.0, 0.0, m)
    sup = rng.uniform(-1.0, 0.0, m)
    sub[0] = 0.0
    sup[-1] = 0.0
    diag = np.abs(sub) + np.abs(sup) + rng.uniform(0.5, 2.0, m)
    rhs = rng.normal(size=m)
    sys = System(sub=sub, diag=diag, sup=sup, rhs=rhs)
    # above about 1100 rows a dense matrix takes ten megabytes and more
    y_dense = np.linalg.solve(dense_matrix(sys), rhs) if m <= 1100 else None
    for base in tails(monkeypatch):
        y = thomas_solve(*sys)
        if y_dense is None:
            assert residual_norm(sys, y) <= 1e-12 * max(1.0, np.max(np.abs(rhs))), base
        else:
            gap = np.max(np.abs(y - y_dense))
            assert gap <= 1e-12 * max(1.0, np.max(np.abs(y_dense))), base


def test_thomas_zero_pivot_detected(monkeypatch):
    sys = System(sub=np.array([0.0, -1.0]), diag=np.array([1.0, 0.0]),
                 sup=np.array([0.0, 0.0]), rhs=np.ones(2))
    for _ in tails(monkeypatch):
        with pytest.raises(ZeroPivotError, match="row 1$"):
            thomas_solve(*sys)


def test_zero_pivot_inside_reduced_level(monkeypatch):
    # rows 1 and 2 are equal, every diagonal entry is one: the zero pivot
    # appears only after the first level has eliminated row 1
    for base in tails(monkeypatch):
        m = 4 * base + 1
        sub = np.zeros(m)
        sup = np.zeros(m)
        sub[2] = sup[1] = 1.0
        sys = System(sub=sub, diag=np.ones(m), sup=sup, rhs=np.ones(m))
        with pytest.raises(ZeroPivotError, match="row 2"):
            thomas_solve(*sys)


def test_zero_pivot_in_the_dgtsv_tail_names_the_original_row():
    # one level takes 2R rows to R, which dgtsv solves: rows 2999 and 3000
    # are equal, so eliminating odd row 2999 leaves even row 3000 (row 1500
    # of the tail) all zero, and U's diagonal is zero there
    if linsolve.lapack_dgtsv() is None:
        pytest.skip("numpy's LAPACK has no dgtsv")
    m = 2 * R
    sub = np.zeros(m)
    sup = np.zeros(m)
    sub[3000] = sup[2999] = 1.0
    sys = System(sub=sub, diag=np.ones(m), sup=sup, rhs=np.ones(m))
    with pytest.raises(ZeroPivotError, match="row 3000$"):
        thomas_solve(*sys)


def test_tiny_pivot_inside_reduced_level_names_original_row(monkeypatch):
    # row 2 is not a pivot of the first level; eliminating row 1 leaves it
    # 2e-305 - 1e-305, below the 1e-300 floor, as row 1 of the second level
    for base in tails(monkeypatch):
        m = 4 * base + 1
        sub = np.zeros(m)
        sup = np.zeros(m)
        diag = np.ones(m)
        sub[2], sup[1], diag[2] = 1.0, 1e-305, 2e-305
        sys = System(sub=sub, diag=diag, sup=sup, rhs=np.ones(m))
        with pytest.raises(ZeroPivotError, match="row 2$"):
            thomas_solve(*sys)


# 3 rows never reduce; 4 S + 1 and 4 R + 1 reduce twice on one tail or both
@pytest.mark.parametrize("m", [3, 4 * S + 1, 4 * R + 1])
@pytest.mark.parametrize("row", [1, 2])
@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf, -np.inf, 1e-305])
def test_thomas_rejects_zero_and_nonfinite_pivots(m, row, bad, monkeypatch):
    diag = np.ones(m)
    diag[row] = bad
    sys = System(sub=np.zeros(m), diag=diag, sup=np.zeros(m), rhs=np.ones(m))
    for _ in tails(monkeypatch):
        with pytest.raises(ZeroPivotError, match=f"row {row}$"):
            thomas_solve(*sys)


@pytest.mark.parametrize("m", [3, S + 1, R + 1])
def test_thomas_leaves_its_input_unchanged(m, monkeypatch):
    # Newton shares the cached off-diagonals between iterations
    sys = diagonally_dominant(m, m)  # the band ends too: never read, never written
    arrays = (sys.sub, sys.diag, sys.sup, sys.rhs)
    copies = [v.copy() for v in arrays]
    for _ in tails(monkeypatch):
        thomas_solve(*arrays)
        for v, before in zip(arrays, copies):
            assert np.array_equal(v, before)


@pytest.mark.parametrize("m", [3, S, S + 1, S + 2, 1023, R, R + 1, R + 2])
@pytest.mark.parametrize("end", [np.nan, np.inf, -np.inf])
def test_thomas_never_reads_the_band_ends(m, end, monkeypatch):
    # sub[0] and sup[-1] hold the boundary couplings: whatever they are, the
    # solution is the one of zero ends, bit for bit, on every path
    sys = diagonally_dominant(m, m)
    sub, diag, sup, rhs = sys.sub, sys.diag, sys.sup, sys.rhs
    for _ in tails(monkeypatch):
        sub[0] = sup[-1] = 0.0
        want = thomas_solve(sub, diag, sup, rhs)
        sub[0] = sup[-1] = end
        got = thomas_solve(sub, diag, sup, rhs)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("band, bad", [("rhs", np.ones(7)), ("sub", np.zeros(4)),
                                       ("rhs", None), ("rhs", np.ones((5, 1)))],
                         ids=["long-rhs", "short-sub", "no-rhs", "2d-rhs"])
def test_thomas_rejects_bands_not_of_one_length(band, bad, monkeypatch):
    sys = diagonally_dominant(5, 5)._replace(**{band: bad})
    for _ in tails(monkeypatch):
        with pytest.raises(ValueError, match="the four bands are not of one length"):
            thomas_solve(*sys)


@pytest.mark.parametrize("eps", [1e-2, 1e-6])
@pytest.mark.parametrize("name, family, a, sides", [("ex1", "bakhvalov", 4.0, "both"),
                                                    ("ex2", "vulanovic", 2.0, "left")])
def test_solver_stack_on_the_scalar_tail_matches_the_dgtsv_tail(name, family, a,
                                                                sides, eps, monkeypatch):
    # the direct solve at n = 2^14 and tg1 at N = 128, through every layer
    # above thomas_solve, with the scalar loop ending each solve
    if linsolve.lapack_dgtsv() is None:
        pytest.skip("numpy's LAPACK has no dgtsv")
    problem = spgrid.make_problem(name, eps)
    direct = build_mesh(MeshSpec(family, eps, 2 ** 14, a=a, layer_sides=sides))
    plan = spgrid.TwoGridPlan(MeshSpec(family, eps, 128, a=a, layer_sides=sides))

    def solutions():
        return [solve(direct, problem).y, *(out.y for out in
                                            spgrid.algorithm1(problem, plan).fine)]

    want = solutions()
    monkeypatch.setattr(linsolve, "lapack_dgtsv", lambda: None)
    for y, y_dgtsv in zip(solutions(), want, strict=True):
        scale = max(1.0, np.max(np.abs(y_dgtsv)))
        assert np.max(np.abs(y - y_dgtsv)) <= 1e-14 * scale


def test_threads_solving_at_once_get_their_own_answers():
    # dgtsv runs without the GIL, so solves of different sizes overlap (more
    # threads than cores); each must read its own sizes and write its own bands
    systems = [diagonally_dominant(m, m) for m in (700, 1500, 3000, R - 1)]
    want = [{thomas_solve(*system).tobytes()} for system in systems]
    got = [set() for _ in systems]

    def solve_many(k):
        for _ in range(1000):
            got[k].add(thomas_solve(*systems[k]).tobytes())

    threads = [threading.Thread(target=solve_many, args=(k,)) for k in range(len(systems))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between most bytecodes
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


@pytest.mark.parametrize("unit", [True, False])
def test_cached_couplings_are_read_only_and_give_the_same_rows(unit, monkeypatch):
    # every Newton iteration shares the couplings: the unit rows are the cached
    # arrays themselves, so no Jacobian and no solve may write into them
    rng = np.random.default_rng(5)
    mesh = build_mesh(MeshSpec("bakhvalov", 1e-4, 257, a=2.0))
    cpl = couplings(mesh, 1e-4)
    assert len(cpl) == 2  # scale_l and scale_r
    kept = [v.copy() for v in cpl]
    y = rng.uniform(0.5, 2.0, mesh.n + 1)
    if unit:
        p = linear_problem(1e-4, rng.uniform(0.5, 2.0, mesh.n - 1), 0.0)
    else:  # the quasilinear Jacobian weights the couplings about y
        p = example2(1e-4)
    jacobian = newton.semilinear_jacobian if unit else newton.diffusion_jacobian
    fresh = jacobian(mesh, p, y)
    rows = jacobian(mesh, p, y, cpl)
    for got, want in zip(rows, fresh, strict=True):
        assert got.tobytes() == want.tobytes()
    assert not any(np.shares_memory(band, v) for band in fresh for v in cpl)
    if unit:
        assert rows[0] is cpl[0] and rows[2] is cpl[1]
    for _ in tails(monkeypatch):  # no level runs on the dgtsv tail, one on the other
        newton.newton_step(mesh, p, y, cpl=cpl)
        assert not any(v.flags.writeable for v in cpl)
        assert all(np.array_equal(v, k) for v, k in zip(cpl, kept))


def test_direct_solve_does_not_import_scipy():
    code = ("import sys, spgrid as sp\n"
            "mesh = sp.build_mesh(sp.MeshSpec('bakhvalov', 1e-2, 4096, a=4.0))\n"
            "sp.solve(mesh, sp.example1(1e-2))\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
            # a numpy wheel's OpenBLAS has dgtsv: the solve must not fall back
            "import numpy\n"
            "lapack = numpy.show_config(mode='dicts')['Build Dependencies']['lapack']\n"
            "if lapack['name'] == 'scipy-openblas':\n"
            "    assert sp.linsolve.lapack_dgtsv() is not None, 'dgtsv not found'\n")
    src = os.path.dirname(os.path.dirname(spgrid.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": path})


def _no_linear_solve(monkeypatch):
    def fail(*bands):
        raise AssertionError("a linear solve ran")

    monkeypatch.setattr(newton, "thomas_solve", fail)


def test_nonpositive_coefficient_rejected(monkeypatch):
    _no_linear_solve(monkeypatch)
    mesh = build_mesh(MeshSpec("uniform", 0.5, 8))
    with pytest.raises(NonpositiveJacobianError, match="positive and finite"):
        solve(mesh, linear_problem(0.5, lambda x: x - 0.5, ones))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_coefficient_rejected_before_the_solve(monkeypatch, bad):
    _no_linear_solve(monkeypatch)
    mesh = build_mesh(MeshSpec("uniform", 0.1, 8))
    b = np.ones(7)
    b[3] = bad
    # f = b u itself reads inf * 0 at the start, before the Jacobian's check
    with pytest.raises(NonpositiveJacobianError, match="positive and finite"), \
            np.errstate(invalid="ignore"):
        solve(mesh, linear_problem(0.1, b, np.ones(7)))


def test_m_matrix_sign_pattern_on_layer_meshes():
    for spec in (MeshSpec("shishkin", 1e-3, 32),
                 MeshSpec("bakhvalov", 1e-3, 32, a=2.0),
                 MeshSpec("vulanovic", 1e-4, 48, a=1.0)):
        mesh = build_mesh(spec)
        sys = rows(mesh, spec.eps, 1.0 + mesh.interior())
        assert np.all(sys.diag > 0)
        assert np.all(sys.sub <= 0)
        assert np.all(sys.sup <= 0)
        rowsum = sys.diag + sys.sub + sys.sup
        beta = 1.0  # min of b(x) = 1 + x on [0, 1]
        assert np.all(rowsum >= beta - 1e-12)


def test_unique_zero_solution():
    mesh = build_mesh(MeshSpec("shishkin", 1e-2, 32))
    y = solve(mesh, linear_problem(1e-2, ones, np.zeros_like)).y
    assert np.array_equal(y, np.zeros(33))


def test_discrete_maximum_principle_random_instances():
    rng = np.random.default_rng(42)
    mesh = build_mesh(MeshSpec("bakhvalov", 1e-2, 40, a=2.0))
    xi = mesh.interior()
    for _ in range(20):
        c0, c1, c2 = rng.uniform(0.5, 2.0), rng.normal(), rng.normal()
        bvals = c0 + 0.3 * np.sin(c1 + 3 * xi) ** 2
        gvals = c2 * np.cos(5 * xi) + rng.normal()
        eps = 10.0 ** rng.uniform(-4, 0)
        y = solve(mesh, linear_problem(eps, bvals, gvals)).y
        bound = np.max(np.abs(gvals)) / bvals.min()
        assert np.max(np.abs(y)) <= bound + 1e-12


def residual_norm(sys: System, y: np.ndarray) -> float:
    """Oracle: max-norm of ``A y - rhs`` for an interior solution vector."""
    ay = sys.diag * y
    ay[1:] += sys.sub[1:] * y[:-1]
    ay[:-1] += sys.sup[:-1] * y[1:]
    return float(np.max(np.abs(ay - sys.rhs)))


def test_residual_norm_after_solve():
    mesh = build_mesh(MeshSpec("vulanovic", 1e-3, 64, a=2.0))
    xi = mesh.interior()
    sys = rows(mesh, 1e-3, 1.0 + xi * xi)
    rhs = np.exp(xi)  # with the Dirichlet data folded in by hand
    rhs[0] -= sys.sub[0] * 0.3
    rhs[-1] -= sys.sup[-1] * -0.1
    y = solve(mesh, linear_problem(1e-3, lambda x: 1.0 + x * x, np.exp, 0.3, -0.1)).y
    sys = sys._replace(rhs=rhs)
    assert residual_norm(sys, y[1:-1]) <= 1e-10 * max(1.0, np.max(np.abs(sys.rhs)))


def test_constant_coefficient_convergence():
    # -y'' + y = 1, y(0) = y(1) = 0, exact 1 - (e^x + e^(1-x))/(1 + e)
    def exact(x):
        return 1.0 - (np.exp(x) + np.exp(1.0 - x)) / (1.0 + math.e)

    errs = []
    for n in (16, 32, 64, 128):
        mesh = build_mesh(MeshSpec("uniform", 1.0, n))
        y = solve(mesh, linear_problem(1.0, ones, ones)).y
        errs.append(np.max(np.abs(y - exact(mesh.nodes))))
    # second order: each doubling divides the error by ~4
    for e_coarse, e_fine in zip(errs, errs[1:]):
        assert e_coarse / e_fine == pytest.approx(4.0, rel=0.05)
    mesh64 = build_mesh(MeshSpec("uniform", 1.0, 64))
    y64 = solve(mesh64, linear_problem(1.0, ones, ones)).y
    assert np.max(np.abs(y64 - exact(mesh64.nodes))) < 1e-4


def test_layer_problem_convergence_rate_on_shishkin_mesh():
    # -eps^2 y'' + y = g with exact layer solution; expect ~N^-2 ln^2 N
    eps = 1e-3

    def exact(x):
        return np.exp(-x / eps) + np.exp(-(1 - x) / eps)

    errs = []
    ns = [32, 64, 128, 256]
    for n in ns:
        mesh = build_mesh(MeshSpec("shishkin", eps, n, gamma0=1.0))
        bc = float(exact(np.array(0.0)))
        y = solve(mesh, linear_problem(eps, ones, np.zeros_like, bc, bc)).y
        errs.append(np.max(np.abs(y - exact(mesh.nodes))))
    # slope of log error against log(N / ln N) isolates the log factor
    t = np.log(np.array(ns) / np.log(ns))
    slope = -np.polyfit(t, np.log(errs), 1)[0]
    assert slope >= 1.8
