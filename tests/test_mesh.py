import math

import mpmath
import numpy as np
import pytest

from reference_values import (LAYER_COARSE_SIZES, LAYER_EPS, LAYER_FINE_SIZES,
                              LAYER_GRADING, LAYER_TABLE)
from spgrid.mesh import (MAX_INTERVALS, DegenerateMeshError, MeshSpec,
                         NoRootError, bakhvalov_alpha, build_mesh, coarsen, layer_fraction,
                         shishkin_alpha, vulanovic_alpha)

# high-precision reference values (50-digit bisection / closed forms)
SHISHKIN_CASES = [
    ((0.25, 1.0, 8), 0.25),                     # cap active
    ((1e-2, 1.0, 64), 0.08317766166719343),
    ((LAYER_EPS, 1.0, 8), 0.016245637044373718),
]
VULANOVIC_CASES = [
    ((1e-2, 1.0, 0.4), 0.36307373142315426),
    ((LAYER_EPS, 1.0, 0.4), 0.37901928279896001),
    # a*eps one ulp below q, where q - sqrt(.) cancels: alpha = (q - a*eps)/2
    ((1.0 - 2.0 ** -53, 0.2331608915957545, 0.2331608915957545), 1.3877787807814457e-17),
]
# residual tolerance scales with the root conditioning: q - alpha ~ a*eps
BAKHVALOV_CASES = [
    ((1e-2, 4.0, 0.4), 0.38754741850192919, 1e-13),
    ((LAYER_EPS, 1.0, 0.4), 0.39917231841243529, 1e-13),
    ((1e-4, 2.0, 0.4), 0.39995983603060271, 1e-12),
    ((0.1, 3.9, 0.4), 0.010100313862048896, 1e-15),  # a*eps near q
    # a*eps is the double next below q
    ((0.0625, 0.9999999999999999, 0.0625), 6.938893903907228e-18, 1e-15),
    # q - alpha is 4 ulp of q: the residual is set by that spacing alone
    ((1e-12, 1e-3, 0.4), 0.3999999999999998, 0.06),
]


@pytest.mark.parametrize("args,expected", SHISHKIN_CASES)
def test_shishkin_alpha(args, expected):
    assert shishkin_alpha(*args) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("args,expected", VULANOVIC_CASES)
def test_vulanovic_alpha(args, expected):
    assert vulanovic_alpha(*args) == pytest.approx(expected, rel=1e-14)


def test_vulanovic_alpha_degenerate_boundary():
    with pytest.raises(DegenerateMeshError):
        vulanovic_alpha(0.4, 1.0, 0.4)


@pytest.mark.parametrize("args,expected,rtol", BAKHVALOV_CASES)
def test_bakhvalov_alpha(args, expected, rtol):
    alpha = bakhvalov_alpha(*args)
    assert alpha == pytest.approx(expected, rel=1e-12, abs=0.0)
    eps, a, q = args
    resid = (eps * a * math.log(q / (q - alpha))
             + eps * a * (0.5 - alpha) / (q - alpha) - 0.5)
    assert abs(resid) < rtol


def test_bakhvalov_alpha_tangent_at_origin():
    # a*eps == q puts the contact point at t = 0: no layer part, as for vulanovic
    for eps in (0.1, 0.2):
        with pytest.raises(DegenerateMeshError):
            bakhvalov_alpha(eps, 4.0, 0.4)


@pytest.mark.parametrize("eps,a", [(1e-300, 1e-10), (1e-200, 1e-200)])
def test_bakhvalov_alpha_subnormal_scale_has_no_double_root(eps, a):
    # a*eps is subnormal or 0.0: q - alpha would lie far below the spacing at q
    with pytest.raises(NoRootError, match="no double contact point"):
        bakhvalov_alpha(eps, a, 0.4)


def _bakhvalov_reference(eps, a, q):
    """50-digit root for the double ``a*eps``: ``q - alpha = (1/2 - q)/W(e^C)``."""
    with mpmath.workdps(50):
        ea, q = mpmath.mpf(eps * a), mpmath.mpf(q)
        c = 1 / (2 * ea) - 1 - mpmath.log(q / (0.5 - q))
        return float(q - (0.5 - q) / mpmath.lambertw(mpmath.exp(c)).real)


def test_bakhvalov_alpha_matches_lambert_w_root():
    # half the draws put a*eps within 1e-15..1e-1 relative below q, where
    # alpha is a small fraction of q and must keep its digits all the same
    rng = np.random.default_rng(17)
    for draw in range(1000):
        eps, q = 10.0 ** rng.uniform(-12, 0), rng.uniform(0.01, 0.49)
        a = (q / eps * (1.0 - 10.0 ** rng.uniform(-15, -1)) if draw % 2
             else rng.uniform(0.1, 10))
        if eps * a >= q:
            continue
        alpha, ref = bakhvalov_alpha(eps, a, q), _bakhvalov_reference(eps, a, q)
        assert abs(alpha / ref - 1) <= 1e-15, (eps, a, q)


def test_bakhvalov_alpha_approaches_q():
    prev = 0.0
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-6):
        alpha = bakhvalov_alpha(eps, 1.0, 0.4)
        assert prev < alpha < 0.4
        prev = alpha
    assert alpha > 0.3999


def test_uniform_nodes():
    mesh = build_mesh(MeshSpec("uniform", 0.5, 4))
    assert np.array_equal(mesh.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_shishkin_first_node():
    mesh = build_mesh(MeshSpec("shishkin", LAYER_EPS, 64))
    alpha = shishkin_alpha(LAYER_EPS, 1.0, 64)
    assert mesh.nodes[1] == pytest.approx(4 * alpha / 64, rel=1e-14)
    assert mesh.nodes[1] == pytest.approx(0.0020307046305467146, rel=1e-12)


def test_vulanovic_first_node():
    mesh = build_mesh(MeshSpec("vulanovic", LAYER_EPS, 8))
    assert mesh.nodes[1] == pytest.approx(0.0017755681818181818, rel=1e-14)


def test_degenerate_fallback_is_uniform_with_flag():
    for family, a in (("bakhvalov", 4.0), ("vulanovic", 4.0)):
        mesh = build_mesh(MeshSpec(family, 0.1, 8, a=a))  # a*eps == q
        assert mesh.degenerate
        assert np.allclose(mesh.nodes, np.arange(9) / 8, atol=1e-15)


def test_shishkin_cap_gives_exact_uniform():
    # 2*eps*ln(n) >= 1/4 caps alpha and the map collapses to the identity
    mesh = build_mesh(MeshSpec("shishkin", 0.25, 16))
    assert np.array_equal(mesh.nodes, np.arange(17) / 16)
    assert not mesh.degenerate


ALL_SPECS = [
    MeshSpec("uniform", 1e-2, 10),
    MeshSpec("shishkin", 1e-2, 7),
    MeshSpec("shishkin", 1e-6, 64),
    MeshSpec("bakhvalov", 1e-2, 33, a=2.0),
    MeshSpec("bakhvalov", 1e-6, 128, a=1.0),
    MeshSpec("vulanovic", 1e-2, 8, a=1.0),
    MeshSpec("vulanovic", 1e-8, 100, a=3.0),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.family}-{s.n}")
def test_mesh_invariants(spec):
    mesh = build_mesh(spec)
    x = mesh.nodes
    assert x[0] == 0.0 and x[-1] == 1.0
    assert np.all(np.diff(x) > 0)
    assert abs(mesh.steps.sum() - 1.0) <= 1e-12
    assert np.allclose(mesh.half_steps,
                       0.5 * (mesh.steps[:-1] + mesh.steps[1:]), rtol=0, atol=0)
    # symmetry: x_i + x_{n-i} = 1 for two-sided layer meshes
    assert np.max(np.abs(x + x[::-1] - 1.0)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 17, 64, 1009, 4096, 2 ** 17])
@pytest.mark.parametrize("family", ["shishkin", "bakhvalov", "vulanovic"])
def test_mesh_invariants_across_sizes(family, n):
    mesh = build_mesh(MeshSpec(family, 1e-4, n, a=2.0))
    x = mesh.nodes
    assert x[0] == 0.0 and x[-1] == 1.0
    assert np.all(np.diff(x) > 0)
    assert abs(mesh.steps.sum() - 1.0) <= 1e-12
    assert np.max(np.abs(x + x[::-1] - 1.0)) <= 1e-12


@pytest.mark.parametrize("spec", [
    MeshSpec("shishkin", 1e-3, 40),
    MeshSpec("bakhvalov", 1e-3, 40, a=2.0),
    MeshSpec("vulanovic", 1e-3, 40, a=2.0),
    MeshSpec("bakhvalov", 1e-4, 40, a=2.0),
])
def test_generating_function_continuity_and_midpoint(spec):
    from spgrid.mesh import _half_map

    eps, a, q = spec.eps, spec.a, spec.q
    if spec.family == "shishkin":
        alpha = 0.25  # piece boundary; transition value is alpha itself
        left_val = 4.0 * shishkin_alpha(eps, 1.0, spec.n) * alpha
    elif spec.family == "bakhvalov":
        alpha = bakhvalov_alpha(eps, a, q)
        left_val = eps * a * math.log(q / (q - alpha))
    else:
        alpha = vulanovic_alpha(eps, a, q)
        left_val = eps * a * alpha / (q - alpha)
    # both branches evaluated at the breakpoint itself must agree
    joint = float(_half_map(spec, np.array([alpha]))[0])
    assert abs(joint - left_val) <= 1e-12
    assert abs(float(_half_map(spec, np.array([0.5]))[0]) - 0.5) <= 1e-12


@pytest.mark.parametrize("family,eps,a", [
    ("bakhvalov", 1e-1, 2.0), ("bakhvalov", 1e-3, 2.0),
    ("vulanovic", 1e-2, 1.0), ("vulanovic", 1e-3, 3.0),
])
def test_tangency_of_linear_piece(family, eps, a):
    # the chord slope of the linear piece equals the layer-part derivative
    # at the contact point (tangency defines alpha)
    q = 0.4
    if family == "bakhvalov":
        alpha = bakhvalov_alpha(eps, a, q)
        val = eps * a * math.log(q / (q - alpha))
        analytic = eps * a / (q - alpha)
    else:
        alpha = vulanovic_alpha(eps, a, q)
        val = eps * a * alpha / (q - alpha)
        analytic = eps * a * q / (q - alpha) ** 2
    chord = (0.5 - val) / (0.5 - alpha)
    assert abs(chord - analytic) <= 1e-10 * max(1.0, analytic)


def test_left_only_mesh():
    spec = MeshSpec("bakhvalov", 1e-3, 32, a=2.0, layer_sides="left")
    mesh = build_mesh(spec)
    x = mesh.nodes
    assert np.all(np.diff(x) > 0)
    assert x[0] == 0.0 and x[-1] == 1.0
    # identity on the right half: no points clustered near x = 1
    assert x[-2] == pytest.approx(1.0 - 1.0 / 32, rel=1e-14)
    # layer part still clusters near x = 0
    assert x[1] < 1.0 / 32 / 4


@pytest.mark.parametrize("family", sorted(LAYER_GRADING),
                         ids=lambda f: f"{f}-a{LAYER_GRADING[f]:g}")
def test_layer_fraction_reference_percentages(family):
    for step, sizes in ((1, LAYER_COARSE_SIZES), (2, LAYER_FINE_SIZES)):
        for n, expect in zip(sizes, LAYER_TABLE[(family, step)], strict=True):
            mesh = build_mesh(MeshSpec(family, LAYER_EPS, n, a=LAYER_GRADING[family]))
            assert layer_fraction(mesh, LAYER_EPS) == expect


def test_layer_fraction_uniform_counts_endpoints_only():
    mesh = build_mesh(MeshSpec("uniform", LAYER_EPS, 8))
    assert layer_fraction(mesh, LAYER_EPS) == 25.0


def test_spec_validation():
    with pytest.raises(ValueError):
        MeshSpec("nope", 0.1, 8)
    with pytest.raises(ValueError):
        MeshSpec("uniform", 0.0, 8)
    with pytest.raises(ValueError):
        MeshSpec("uniform", 0.1, 1)
    # the interval budget; only specs are built, no mesh is allocated
    assert MeshSpec("uniform", 0.1, MAX_INTERVALS).n == 2 ** 20
    with pytest.raises(ValueError, match=r"n must lie in \[2, 1048576\]"):
        MeshSpec("uniform", 0.1, MAX_INTERVALS + 1)
    with pytest.raises(ValueError):
        MeshSpec("bakhvalov", 0.1, 8, q=0.6)
    with pytest.raises(ValueError):
        MeshSpec("vulanovic", 0.1, 8, a=-1.0)
    with pytest.raises(ValueError, match="layer_sides"):
        MeshSpec("uniform", 0.1, 8, layer_sides="right")


def test_nodes_are_immutable():
    mesh = build_mesh(MeshSpec("uniform", 0.1, 4))
    with pytest.raises(ValueError):
        mesh.nodes[0] = 0.5


def test_collapsed_right_layer_is_reported_as_such():
    # the first layer step is ~1e-16, under the spacing of doubles below 1
    spec = MeshSpec("bakhvalov", 1e-12, 2712, a=0.109375, q=0.375)
    with pytest.raises(NoRootError, match="double spacing near x = 1"):
        build_mesh(spec)


@pytest.mark.parametrize("spec", [MeshSpec("bakhvalov", 1e-2, 64, a=4.0),
                                  MeshSpec("shishkin", 1e-4, 67),
                                  MeshSpec("vulanovic", 1e-2, 65, layer_sides="left"),
                                  MeshSpec("bakhvalov", 0.5, 40, a=4.0)])  # degenerate
def test_coarsen_keeps_every_kth_node_and_the_last(spec):
    fine = build_mesh(spec)
    coarse = coarsen(fine, 16)
    assert np.array_equal(coarse.nodes, fine.nodes[list(range(0, spec.n, 16)) + [spec.n]])
    assert coarse.n == math.ceil(spec.n / 16)
    assert np.array_equal(coarse.steps, np.diff(coarse.nodes))
    assert np.array_equal(coarse.half_steps, 0.5 * (coarse.steps[:-1] + coarse.steps[1:]))
    assert coarse.degenerate == fine.degenerate
    for arr in (coarse.nodes, coarse.steps, coarse.half_steps):
        assert not arr.flags.writeable
