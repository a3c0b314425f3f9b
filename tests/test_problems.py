import math
from dataclasses import replace

import numpy as np
import pytest
import sympy as sp

from spgrid.mesh import InputError
from spgrid.problems import (QuasilinearDiffusionProblem, SemilinearProblem,
                             example1, example2, make_problem)
from oracles import log_transform


def _ex1_symbolic_residual(eps_val):
    """ODE residual of the closed-form solution against the implemented f.

    The second derivative comes from sympy, the nonlinearity and the
    source from the package; a nonzero residual means the manufactured
    source is wrong.
    """
    x, e = sp.symbols("x epsilon", positive=True)
    u = 1 - (sp.exp(-x / e) + sp.exp(-(1 - x) / e)) / (1 + sp.exp(-1 / e))
    upp = sp.diff(u, x, 2)
    p = example1(eps_val)

    def residual(xv):
        subs = {x: sp.Float(xv, 30), e: sp.Float(eps_val, 30)}
        u_val = float(u.subs(subs))
        upp_val = float(upp.subs(subs))
        xa = np.array(xv)
        return (-eps_val ** 2 * upp_val + float(p.f(xa, np.array(u_val)))
                - float(p.source(xa)))

    return residual


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_example1_manufactured_source(eps):
    residual = _ex1_symbolic_residual(eps)
    for xv in (0.1, 0.3, 0.5, 0.9):
        assert abs(residual(xv)) < 1e-10


def test_example1_boundary_and_derivative():
    p = example1(0.1)
    assert float(p.exact(np.array(0.0))) == pytest.approx(0.0, abs=1e-14)
    assert float(p.exact(np.array(1.0))) == pytest.approx(0.0, abs=1e-14)
    # f_u = 1/(2-u)^2 lies in [1/4, 1] for u in [0, 1)
    u = np.linspace(0.0, 1.0 - 1e-9, 101)
    vals = p.f_u(np.full_like(u, 0.5), u)
    assert vals.min() >= 0.25 - 1e-12
    assert vals.max() <= 1.0 + 1e-12


def _ex2_symbolic_residual(eps_val):
    x, e = sp.symbols("x epsilon", positive=True)
    u = sp.exp(-x / e) + sp.exp(x) - 1
    flux = sp.diff(u, x) / (u + 1)
    lhs = -e ** 2 * sp.diff(flux, x) + u
    p = example2(eps_val)

    def residual(xv):
        subs = {x: sp.Float(xv, 30), e: sp.Float(eps_val, 30)}
        lhs_val = float(lhs.subs(subs))
        return lhs_val - float(p.source(np.array(xv)))

    return residual


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_example2_manufactured_source(eps):
    residual = _ex2_symbolic_residual(eps)
    for xv in (0.05, 0.3, 0.5, 0.95):
        assert abs(residual(xv)) < 1e-9


def test_example2_boundary_values():
    p = example2(0.1)
    assert float(p.exact(np.array(0.0))) == pytest.approx(1.0, abs=1e-14)
    assert p.bc_left == 1.0
    assert p.bc_right == pytest.approx(1.7183272283888077, rel=1e-14)
    u = np.linspace(0.0, 2.0, 50)
    assert np.all(p.d(u) > 0)
    assert np.allclose(p.r_u(u, u), 1.0)


def test_log_transform_maps_example2():
    p = example2(0.1)
    v = log_transform(p)
    assert v.bc_left == pytest.approx(math.log(2.0), rel=1e-15)
    assert v.bc_right == pytest.approx(math.log1p(p.bc_right), rel=1e-15)
    assert v.eps == p.eps
    # f_u = exp(v) > 0 everywhere
    vv = np.linspace(-1.0, 2.0, 31)
    assert np.all(v.f_u(np.full_like(vv, 0.3), vv) > 0)
    # transformed exact solves the transformed equation (sympy oracle)
    x, e = sp.symbols("x epsilon", positive=True)
    w = sp.log(sp.exp(-x / e) + sp.exp(x))
    lhs = -e ** 2 * sp.diff(w, x, 2)
    for xv in (0.05, 0.5, 0.9):
        subs = {x: sp.Float(xv, 30), e: sp.Float(0.1, 30)}
        xa = np.array(xv)
        resid = (float(lhs.subs(subs))
                 + float(v.f(xa, np.array(float(w.subs(subs)))))
                 - float(v.source(xa)))
        assert abs(resid) < 1e-9


def test_log_transform_rejects_other_diffusion():
    p = example2(0.1)
    other = QuasilinearDiffusionProblem(
        eps=0.1, d=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        d_u=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        r=p.r, r_u=p.r_u, bc_left=1.0, bc_right=p.bc_right)
    with pytest.raises(ValueError):
        log_transform(other)


def test_log_transform_rejects_bad_boundary():
    p = example2(0.1)
    ok = QuasilinearDiffusionProblem(
        eps=p.eps, d=p.d, d_u=p.d_u, r=p.r, r_u=p.r_u,
        bc_left=-0.5, bc_right=p.bc_right)
    log_transform(ok)  # boundary data above -1 is fine

    def d_capped(u):  # 1/(1+u) on the transform's range, finite at u = -1
        return 1.0 / np.maximum(1.0 + np.asarray(u, dtype=float), 1e-300)

    at_limit = QuasilinearDiffusionProblem(
        eps=p.eps, d=d_capped, d_u=p.d_u, r=p.r, r_u=p.r_u,
        bc_left=-1.0, bc_right=p.bc_right)
    with pytest.raises(ValueError):
        log_transform(at_limit)


@pytest.mark.parametrize("example,changes,message", [
    (example1, {"eps": 0.0}, r"eps must lie in \[2\*\*-1022, 1\]"),
    (example2, {"eps": 1.5}, r"eps must lie in \[2\*\*-1022, 1\]"),
    (example2, {"d": lambda u: 0.0 * np.asarray(u)},
     "diffusion factor not positive at boundary data"),
    # a subnormal eps: x/eps would overflow in the layer terms
    (example1, {"eps": 4.27e-309}, r"eps must lie in \[2\*\*-1022, 1\]"),
    # NaN fails every comparison, so it must not pass one that is negated
    (example1, {"exact": lambda x: np.full(np.shape(x), np.nan)},
     r"exact\(0\) does not match bc_left"),
    (example2, {"d": lambda u: np.full(np.shape(u), np.nan)},
     "diffusion factor not positive at boundary data, or inf"),
    (example2, {"d": lambda u: np.full(np.shape(u), np.inf)},
     "diffusion factor not positive at boundary data, or inf"),
])
def test_problem_record_checks(example, changes, message):
    with pytest.raises(ValueError, match=message):
        replace(example(0.1), **changes)


def test_exact_boundary_consistency_enforced():
    p = example1(0.1)
    with pytest.raises(ValueError):
        type(p)(eps=0.1, f=p.f, f_u=p.f_u, bc_left=0.5, bc_right=0.0,
                exact=p.exact)


@pytest.mark.parametrize("eps", [0.0, -0.0])
@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_zero_eps_is_refused_before_the_factory_divides(name, eps):
    # exp(-1/eps) would raise ZeroDivisionError first
    with pytest.raises(InputError, match=r"^eps must lie in \[2\*\*-1022, 1\]$"):
        make_problem(name, eps)


def test_registry():
    ex1, ex2 = make_problem("ex1", 0.1), make_problem("ex2", 0.1)
    assert type(ex1) is SemilinearProblem and ex1.eps == 0.1
    assert type(ex2) is QuasilinearDiffusionProblem and ex2.eps == 0.1
    with pytest.raises(ValueError):
        make_problem("ex3", 0.1)
