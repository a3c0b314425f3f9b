import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import spgrid
from spgrid import newton
from spgrid.linsolve import (REDUCTION_BASE, TridiagonalSystem, ZeroPivotError,
                             couplings, stencil, thomas_solve)
from spgrid.mesh import MeshSpec, build_mesh
from spgrid.newton import NonpositiveJacobianError, solve
from spgrid.problems import SemilinearProblem


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


def dense_matrix(sys: TridiagonalSystem) -> np.ndarray:
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
    sys = stencil(mesh, 1.0, np.ones(1))
    assert sys.diag[0] == pytest.approx(9.0, rel=1e-15)
    y = solve(mesh, linear_problem(1.0, ones, ones)).y
    assert y[1] == pytest.approx(1.0 / 9.0, rel=1e-15)


def test_zero_eps_reduces_to_pointwise_inversion():
    # at eps = 0 the rows are diag = b with -0.0 off the diagonal
    mesh = build_mesh(MeshSpec("uniform", 1.0, 8))
    g = 1.0 + mesh.interior() ** 2
    rows = stencil(mesh, 0.0, np.ones(7))
    y = thomas_solve(replace(rows, rhs=g))
    assert np.allclose(y, g, rtol=0, atol=0)


def test_assembly_matches_dense_oracle_entrywise():
    rng = np.random.default_rng(7)
    mesh = random_mesh(rng, 6)
    bvals = rng.uniform(1.0, 2.0, 5)
    gvals = rng.normal(size=5)
    eps = 0.3
    sys = stencil(mesh, eps, bvals)
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
    sys = TridiagonalSystem(sub=np.zeros(m), diag=np.ones(m), sup=np.zeros(m),
                            rhs=np.linspace(-1, 1, m))
    assert np.array_equal(thomas_solve(sys), sys.rhs)


B = REDUCTION_BASE


# around the reduction base, odd and even level lengths; 2^k - 1 rows (every
# benchmark solve) reduce to an even level after the first, odd one
@pytest.mark.parametrize("m", [1, 2, 5, 40, B - 1, B, B + 1,
                               1023, 1024, 1025, 4095, 4097])
def test_thomas_matches_dense_oracle(m):
    rng = np.random.default_rng(m)
    sub = rng.uniform(-1.0, 0.0, m)
    sup = rng.uniform(-1.0, 0.0, m)
    sub[0] = 0.0
    sup[-1] = 0.0
    diag = np.abs(sub) + np.abs(sup) + rng.uniform(0.5, 2.0, m)
    rhs = rng.normal(size=m)
    sys = TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs)
    y = thomas_solve(sys)
    y_dense = np.linalg.solve(dense_matrix(sys), rhs)
    assert np.max(np.abs(y - y_dense)) <= 1e-12 * max(1.0, np.max(np.abs(y_dense)))


def test_thomas_zero_pivot_detected():
    sys = TridiagonalSystem(sub=np.array([0.0, -1.0]), diag=np.array([1.0, 0.0]),
                            sup=np.array([0.0, 0.0]), rhs=np.ones(2))
    with pytest.raises(ZeroPivotError):
        thomas_solve(sys)


def test_zero_pivot_inside_reduced_level():
    # rows 1 and 2 are equal, every diagonal entry is one: the zero pivot
    # appears only after the first level has eliminated row 1
    m = 4 * B + 1
    sub = np.zeros(m)
    sup = np.zeros(m)
    sub[2] = sup[1] = 1.0
    sys = TridiagonalSystem(sub=sub, diag=np.ones(m), sup=sup, rhs=np.ones(m))
    with pytest.raises(ZeroPivotError, match="row 2"):
        thomas_solve(sys)


def test_tiny_pivot_inside_reduced_level_names_original_row():
    # row 2 is not a pivot of the first level; eliminating row 1 leaves it
    # 2e-305 - 1e-305, below the 1e-300 floor, as row 1 of the second level
    m = 4 * B + 1
    sub = np.zeros(m)
    sup = np.zeros(m)
    diag = np.ones(m)
    sub[2], sup[1], diag[2] = 1.0, 1e-305, 2e-305
    sys = TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=np.ones(m))
    with pytest.raises(ZeroPivotError, match="row 2$"):
        thomas_solve(sys)


@pytest.mark.parametrize("m", [3, 4 * B + 1])
@pytest.mark.parametrize("row", [1, 2])
@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf, -np.inf, 1e-305])
def test_thomas_rejects_zero_and_nonfinite_pivots(m, row, bad):
    diag = np.ones(m)
    diag[row] = bad
    sys = TridiagonalSystem(sub=np.zeros(m), diag=diag, sup=np.zeros(m),
                            rhs=np.ones(m))
    with pytest.raises(ZeroPivotError):
        thomas_solve(sys)


@pytest.mark.parametrize("m", [3, B + 1, 4097])
def test_thomas_leaves_its_input_unchanged(m):
    # Newton shares the cached off-diagonals between iterations
    rng = np.random.default_rng(m)
    sub = rng.uniform(-1.0, 0.0, m)
    sup = rng.uniform(-1.0, 0.0, m)  # the band ends too: never read, never written
    diag = 2.0 + rng.uniform(0.0, 1.0, m)
    rhs = rng.normal(size=m)
    arrays = (sub, diag, sup, rhs)
    copies = [v.copy() for v in arrays]
    thomas_solve(TridiagonalSystem(*arrays))
    for v, before in zip(arrays, copies):
        assert np.array_equal(v, before)


@pytest.mark.parametrize("m", [3, B, B + 1, B + 2, 1023, 4097, 4098])
@pytest.mark.parametrize("end", [np.nan, np.inf, -np.inf])
def test_thomas_never_reads_the_band_ends(m, end):
    # sub[0] and sup[-1] hold the boundary couplings: whatever they are, the
    # solution is the one of zero ends, bit for bit, on every path
    rng = np.random.default_rng(m)
    sub = rng.uniform(-1.0, 0.0, m)
    sup = rng.uniform(-1.0, 0.0, m)
    diag = 2.0 + rng.uniform(0.0, 1.0, m)
    rhs = rng.normal(size=m)
    sub[0] = sup[-1] = 0.0
    want = thomas_solve(TridiagonalSystem(sub, diag, sup, rhs))
    sub[0] = sup[-1] = end
    got = thomas_solve(TridiagonalSystem(sub, diag, sup, rhs))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("unit", [True, False])
def test_cached_couplings_are_read_only_and_give_the_same_rows(unit):
    rng = np.random.default_rng(5)
    mesh = build_mesh(MeshSpec("bakhvalov", 1e-4, 257, a=2.0))
    cpl = couplings(mesh, 1e-4, unit=unit)
    cached = [v for v in vars(cpl).values() if v is not None]
    assert len(cached) == (3 if unit else 2)  # scale_l, scale_r (and total)
    assert not any(v.flags.writeable for v in cached)
    b = rng.uniform(0.5, 2.0, mesh.n - 1)
    weights = {} if unit else {"right": rng.uniform(0.5, 2.0, mesh.n),
                               "left": rng.uniform(0.5, 2.0, mesh.n)}
    # a weighted call writes over its weights, so each call gets its own copy
    fresh = stencil(mesh, 1e-4, b, **{k: v.copy() for k, v in weights.items()})
    rows = stencil(mesh, 1e-4, b, **weights, cpl=cpl)
    for band in ("sub", "diag", "sup"):
        assert getattr(rows, band).tobytes() == getattr(fresh, band).tobytes()
    assert rows.rhs is None


def test_direct_solve_does_not_import_scipy():
    code = ("import sys, spgrid as sp\n"
            "mesh = sp.build_mesh(sp.MeshSpec('bakhvalov', 1e-2, 4096, a=4.0))\n"
            "sp.solve(mesh, sp.example1(1e-2))\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
    src = os.path.dirname(os.path.dirname(spgrid.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": path})


def _no_linear_solve(monkeypatch):
    def fail(sys):
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
        sys = stencil(mesh, spec.eps, 1.0 + mesh.interior())
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


def residual_norm(sys: TridiagonalSystem, y: np.ndarray) -> float:
    """Oracle: max-norm of ``A y - rhs`` for an interior solution vector."""
    ay = sys.diag * y
    ay[1:] += sys.sub[1:] * y[:-1]
    ay[:-1] += sys.sup[:-1] * y[1:]
    return float(np.max(np.abs(ay - sys.rhs)))


def test_residual_norm_after_solve():
    mesh = build_mesh(MeshSpec("vulanovic", 1e-3, 64, a=2.0))
    xi = mesh.interior()
    rows = stencil(mesh, 1e-3, 1.0 + xi * xi)
    rhs = np.exp(xi)  # with the Dirichlet data folded in by hand
    rhs[0] -= rows.sub[0] * 0.3
    rhs[-1] -= rows.sup[-1] * -0.1
    y = solve(mesh, linear_problem(1e-3, lambda x: 1.0 + x * x, np.exp, 0.3, -0.1)).y
    sys = replace(rows, rhs=rhs)
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
