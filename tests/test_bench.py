import csv
import io
import json
import math
import time
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from reference_values import LAYER_EPS, LAYER_GRADING
from spgrid import bench, newton, problems, twogrid
from spgrid.bench import (INTERPOLANT_CHUNK, ConvergenceRow, DegenerateError,
                          MissingExactError, Report, ReportConfig,
                          convergence_order, fmt_float,
                          interpolant_error, layer_report, nodal_error,
                          run_report)
from spgrid.mesh import MeshSpec, build_mesh, layer_fraction
from spgrid.newton import solve
from spgrid.problems import PROBLEMS, example1


def test_nodal_error_trivial_cases():
    mesh = build_mesh(MeshSpec("uniform", 0.1, 8))
    exact = lambda x: np.sin(x)
    y = exact(mesh.nodes)
    assert nodal_error(mesh, y, exact) == 0.0
    y2 = y.copy()
    y2[3] += 1e-3
    assert nodal_error(mesh, y2, exact) == pytest.approx(1e-3, rel=1e-12)
    with pytest.raises(MissingExactError):
        nodal_error(mesh, y, None)
    with pytest.raises(MissingExactError):
        interpolant_error(mesh, y, None)


def test_interpolant_error_dominates_nodal():
    mesh = build_mesh(MeshSpec("shishkin", 1e-2, 16))
    exact = lambda x: np.exp(-x / 1e-2) + x
    y = exact(mesh.nodes)
    y[5] += 2e-4
    e_nodal = nodal_error(mesh, y, exact)
    e_interp = interpolant_error(mesh, y, exact)
    assert e_interp >= e_nodal
    # linear exact data reproduces exactly
    lin = lambda x: 3.0 * x - 1.0
    assert interpolant_error(mesh, lin(mesh.nodes), lin) <= 1e-14


def test_interpolant_error_is_eps_uniform_on_bakhvalov():
    # a uniform sample set misses the layer intervals once eps << 1/(10 n)
    # and falls to the nodal error; per-interval samples do not
    errors = {}
    for eps in (1e-4, 1e-6):
        cfg = ReportConfig(problem="ex1", families=("bakhvalov",), eps_list=(eps,),
                           n_list=(8, 16, 32, 64), algorithm="direct", a=4.0,
                           metric="interpolant")
        errors[eps] = [row.error for row in run_report(cfg).rows]
    assert errors[1e-4] == pytest.approx(errors[1e-6], rel=1e-3)
    assert errors[1e-6][0] > 0.1  # ten samples per interval give 0.139


@pytest.mark.parametrize("family", ["shishkin", "bakhvalov", "vulanovic"])
@pytest.mark.parametrize("eps", [1e-2, 1e-6])
def test_interpolant_error_against_dense_sampling(family, eps):
    # brute force: 1001 points in every interval through np.interp; the ten
    # parts per interval are among them, and on these meshes they reach 98.7%
    # of the dense maximum or more
    p = example1(eps)
    mesh = build_mesh(MeshSpec(family, eps, 8, a=4.0 if family == "bakhvalov" else 1.0))
    y = solve(mesh, p).y
    x = np.concatenate([np.linspace(mesh.nodes[i], mesh.nodes[i + 1], 1001)
                        for i in range(mesh.n)])
    dense = np.abs(p.exact(x) - np.interp(x, mesh.nodes, y)).max()
    assert 0.98 * dense <= interpolant_error(mesh, y, p.exact) <= dense * (1 + 1e-12)


def _interpolant_error_in_one_block(mesh, y, exact):
    # interpolant_error before it was chunked: one (11, n) block of samples
    t = np.linspace(0.0, 1.0, 11)[:, None]
    x = (1.0 - t) * mesh.nodes[:-1] + t * mesh.nodes[1:]
    return float(np.abs(exact(x) - ((1.0 - t) * y[:-1] + t * y[1:])).max())


@pytest.mark.parametrize("n", [16, INTERPOLANT_CHUNK - 1, INTERPOLANT_CHUNK,
                               INTERPOLANT_CHUNK + 1, 2 * INTERPOLANT_CHUNK + 3])
@pytest.mark.parametrize("problem_id", ["ex1", "ex2"])
def test_interpolant_error_in_chunks_equals_one_block(problem_id, n):
    p = PROBLEMS[problem_id](1e-2)
    mesh = build_mesh(MeshSpec("bakhvalov", 1e-2, n, a=2.0))
    y = p.exact(mesh.nodes) + np.random.default_rng(n).normal(scale=1e-7, size=n + 1)
    assert interpolant_error(mesh, y, p.exact) == _interpolant_error_in_one_block(
        mesh, y, p.exact)
    y[-2] = np.nan  # in the last chunk
    assert math.isnan(interpolant_error(mesh, y, p.exact))


def test_interpolant_error_temporaries_stay_a_few_arrays():
    # one (11, n) block peaks at 44 arrays of n doubles
    n = 2 ** 18
    p = example1(1e-2)
    mesh = build_mesh(MeshSpec("shishkin", 1e-2, n))
    y = p.exact(mesh.nodes)
    tracemalloc.start()
    try:
        interpolant_error(mesh, y, p.exact)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * (n + 1)


def test_direct_step_seconds_include_mesh_build(monkeypatch):
    # the direct solve runs on the two-grid runner, whose step clock covers
    # each step's mesh build
    real = twogrid.build_mesh

    def slow_build(spec):
        time.sleep(0.05)
        return real(spec)

    monkeypatch.setattr(twogrid, "build_mesh", slow_build)
    report = run_report(_small_cfg(algorithm="direct", n_list=(8,)))
    assert report.rows[0].seconds >= 0.05


def test_convergence_order_formula():
    assert convergence_order(3.230e-2, 7.5e-3) == pytest.approx(2.1066, abs=1e-3)
    assert convergence_order(1.0, 0.25) == pytest.approx(2.0, abs=1e-14)
    assert convergence_order(4.470e-4, 8.554e-5) == pytest.approx(2.3855, abs=1e-3)
    with pytest.raises(DegenerateError):
        convergence_order(0.0, 1e-3)


def _small_cfg(**kw):
    base = dict(problem="ex1", families=("vulanovic",), eps_list=(1e-2,),
                n_list=(8, 16), algorithm="tg1", a=1.0)
    base.update(kw)
    return ReportConfig(**base)


def test_run_report_rows_and_orders():
    report = run_report(_small_cfg(n_list=(8, 16, 32)))
    rows = report.rows
    # two steps per (eps, N) cell
    assert len(rows) == 6
    step1 = [r for r in rows if r.step == 1]
    step2 = [r for r in rows if r.step == 2]
    assert [r.N for r in step1] == [8, 16, 32]
    assert [r.n for r in step2] == [64, 256, 1024]
    # orders attach to the coarser row of each doubling pair; finest has none
    assert step1[0].order is not None and step1[1].order is not None
    assert step1[2].order is None
    assert step2[2].order is None
    expected = (math.log(step1[0].error) - math.log(step1[1].error)) / math.log(2)
    assert step1[0].order == pytest.approx(expected, rel=1e-12)


def test_a_problem_the_scheme_reproduces_exactly_has_no_orders(monkeypatch):
    # u = 0 solves -eps^2 u'' + u = 0 and its scheme exactly: every error is
    # 0.0, so no doubling pair has an order and the order cells stay empty
    def zero(eps):
        return problems.SemilinearProblem(
            eps=eps, f=lambda x, u: u, f_u=lambda x, u: np.ones_like(u),
            bc_left=0.0, bc_right=0.0, exact=np.zeros_like)

    monkeypatch.setitem(problems.PROBLEMS, "zero", zero)
    for algorithm, steps in (("direct", 1), ("tg1", 2)):
        report = run_report(_small_cfg(problem="zero", eps_list=(0.01,), algorithm=algorithm))
        assert [(r.N, r.step) for r in report.rows] == [
            (N, step) for N in (8, 16) for step in range(1, steps + 1)]
        assert [(r.error, r.order) for r in report.rows] == [(0.0, None)] * 2 * steps
        assert [row["order"] for row in csv.DictReader(io.StringIO(report.to_csv()))] == [
            ""] * 2 * steps


def test_run_report_deterministic():
    cfg = _small_cfg()
    a = run_report(cfg)
    b = run_report(cfg)
    for ra, rb in zip(a.rows, b.rows):
        assert ra.error == rb.error
        assert ra.order == rb.order


def test_run_report_captures_cell_failures():
    # on N = 2712 the mirrored layer nodes collapse in doubles -> failed cell,
    # not a crash; N = 8 solves
    cfg = ReportConfig(problem="ex1", families=("bakhvalov",), eps_list=(1e-12,),
                       n_list=(8, 2712), a=0.109375, q=0.375)
    report = run_report(cfg)
    failed = [r for r in report.rows if r.failed is not None]
    ok = [r for r in report.rows if r.failed is None]
    assert len(failed) == 1 and failed[0].N == 2712
    assert failed[0].failed.startswith("NoRootError: layer step below")
    assert [r.N for r in ok] == [8]
    assert ok[0].error == pytest.approx(0.0925, abs=5e-5)
    assert ok[0].degenerate is False and failed[0].degenerate is None
    assert report.failed_cells() == 1


def test_report_config_rejects_a_fine_level_over_the_budget(monkeypatch):
    # every plan checks its fine sizes when it is made: no cell runs first
    def no_solve(*bands):
        raise AssertionError("a linear solve ran before the size check")

    monkeypatch.setattr(newton, "thomas_solve", no_solve)
    with pytest.raises(ValueError, match=r"^fine size 4000000 exceeds the 1048576 "
                                         "interval budget$"):
        ReportConfig(problem="ex1", families=("uniform",), eps_list=(0.01,),
                     n_list=(8, 2000), algorithm="tg1")


def test_run_report_raises_programming_errors(monkeypatch):
    # only solver errors become failed rows; a defect surfaces, also one
    # that numpy reports as a ValueError
    def type_error(x, u):
        raise TypeError("broken callback")

    for broken, error, message in (
            (dict(f=type_error, f_u=type_error), TypeError, "broken callback"),
            (dict(f_u=lambda x, u: np.ones(3)), ValueError,
             r"could not be broadcast together with shapes \(7,\) \(3,\)")):
        monkeypatch.setitem(PROBLEMS, "broken",
                            lambda eps, kw=broken: replace(example1(eps), **kw))
        cfg = ReportConfig(problem="broken", families=("uniform",), eps_list=(0.1,),
                           n_list=(8,))
        with pytest.raises(error, match=message):
            run_report(cfg)


def test_csv_format_exact_header_and_floats():
    report = run_report(_small_cfg())
    text = report.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "problem,mesh,a,q,gamma0,eps,N,n,step,error,order,iterations,seconds"
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert parsed[0]["problem"] == "ex1"
    assert parsed[0]["mesh"] == "vulanovic"
    # orders empty on the finest row of each step group
    finest_step1 = [p for p in parsed if p["step"] == "1" and p["N"] == "16"]
    assert finest_step1[0]["order"] == ""
    err = float(finest_step1[0]["error"])
    assert err > 0


def test_float_rendering_rules():
    assert fmt_float(0.000123456789) == "1.23457e-04"
    assert fmt_float(0.1234567) == "0.123457"
    assert fmt_float(1234.5678) == "1234.57"
    assert fmt_float(0) == "0"
    assert fmt_float(-5.4321e-7) == "-5.43210e-07"


def test_json_format_shape():
    report = run_report(_small_cfg())
    payload = json.loads(report.to_json())
    assert set(payload) == {"config", "rows"}
    assert payload["config"]["problem"] == "ex1"
    row = payload["rows"][0]
    for key in ("problem", "mesh", "a", "q", "gamma0", "eps", "N", "n", "step",
                "error", "order", "iterations", "seconds"):
        assert key in row


def test_json_rows_carry_the_final_update_of_each_step():
    # the key is JSON's alone: CSV_HEADER and the markdown columns are pinned
    cfg = _small_cfg(algorithm="tg2", fmt="json")
    want = {}
    for plan in cfg.plans:
        result = twogrid.algorithm2(example1(plan.coarse.eps), plan)
        for step, out in enumerate([result.coarse, *result.fine], start=1):
            want[plan.coarse.n, step] = out.final_update
    rows = json.loads(run_report(cfg).render())["rows"]
    assert {(row["N"], row["step"]): row["final_update"] for row in rows} == want
    assert len(want) == 6  # N = 8 and 16, three steps each


def test_markdown_format():
    report = run_report(_small_cfg())
    text = report.to_markdown()
    assert text.startswith("| problem | mesh |")
    assert "vulanovic" in text


def _hand_made_report(fmt="markdown"):
    cfg = ReportConfig(problem="ex1", families=("bakhvalov",), eps_list=(0.01,),
                       n_list=(8, 16, 32), algorithm="tg1", fmt=fmt)
    base = dict(problem="ex1", mesh="bakhvalov", a=4.0, q=0.4, gamma0=1.0, eps=0.01)
    return Report(cfg, [
        ConvergenceRow(**base, N=8, n=64, step=2, error=1.2345678e-4,
                       order=1.987654321, iterations=1, seconds=0.0123456789),
        ConvergenceRow(**base, N=16, n=256, step=2, error=0.25, order=None,
                       iterations=1, seconds=2.5e-05),
        ConvergenceRow(**base, N=32, n=32, step=1,
                       failed="NoConvergenceError: non-finite update in iteration 1"),
    ])


def test_csv_and_markdown_text_of_complete_orderless_and_failed_rows():
    report = _hand_made_report()
    assert report.to_csv() == (
        "problem,mesh,a,q,gamma0,eps,N,n,step,error,order,iterations,seconds\n"
        "ex1,bakhvalov,4,0.4,1,0.01,8,64,2,1.23457e-04,1.98765,1,0.0123457\n"
        "ex1,bakhvalov,4,0.4,1,0.01,16,256,2,0.25,,1,2.50000e-05\n"
        "ex1,bakhvalov,4,0.4,1,0.01,32,32,1,,,,\n")
    assert report.to_markdown() == (
        "| problem | mesh | a | q | gamma0 | eps | N | n | step | error | order"
        " | iterations | seconds |\n"
        "|---|---|---|---|---|---|---|---|---|---|---|---|---|\n"
        "| ex1 | bakhvalov | 4 | 0.4 | 1 | 0.01 | 8 | 64 | 2 | 1.23457e-04"
        " | 1.98765 | 1 | 0.0123457 |\n"
        "| ex1 | bakhvalov | 4 | 0.4 | 1 | 0.01 | 16 | 256 | 2 | 0.25 |  | 1"
        " | 2.50000e-05 |\n"
        "| ex1 | bakhvalov | 4 | 0.4 | 1 | 0.01 | 32 | 32 | 1 | failed:"
        " NoConvergenceError: non-finite update in iteration 1 |  |  |  |\n")
    for fmt in ("markdown", "csv", "json"):
        hand = _hand_made_report(fmt)
        assert hand.render() == getattr(hand, "to_" + fmt)()


def test_json_text_equals_the_asdict_dump():
    # rows are flat, so the fields are read directly; the text is unchanged
    for report in (_hand_made_report("json"), run_report(_small_cfg())):
        config = asdict(report.config)
        for key in ("families", "eps_list", "n_list"):
            config[key] = list(getattr(report.config, key))
        payload = {"config": config, "rows": [asdict(r) for r in report.rows]}
        assert report.to_json() == json.dumps(payload, indent=2)


def test_report_config_validation():
    with pytest.raises(ValueError):
        _small_cfg(algorithm="nope")
    with pytest.raises(ValueError):
        _small_cfg(n_list=())
    with pytest.raises(ValueError):
        _small_cfg(r=0.5)
    with pytest.raises(ValueError):
        _small_cfg(fmt="yaml")
    with pytest.raises(ValueError):
        _small_cfg(metric="l2")
    # a repeated value would render its cell twice and make the orders ambiguous
    for repeated, message in (
            (dict(families=("shishkin", "shishkin")), "'shishkin' in families"),
            (dict(eps_list=(1e-2, 0.01)), "0.01 in eps_list"),
            (dict(n_list=(8, 16, 8)), "8 in n_list")):
        with pytest.raises(ValueError, match="^repeated value " + message):
            _small_cfg(**repeated)


def test_interpolant_metric_report():
    nodal = run_report(_small_cfg())
    interp = run_report(_small_cfg(metric="interpolant"))
    for rn, ri in zip(nodal.rows, interp.rows):
        assert ri.error >= rn.error


def test_report_config_rejects_a_problem_without_exact_solution(monkeypatch):
    # before any cell runs: no linear solve may happen first
    def no_solve(*bands):
        raise AssertionError("a linear solve ran before the config check")

    monkeypatch.setattr(newton, "thomas_solve", no_solve)
    monkeypatch.setitem(problems.PROBLEMS, "ex1",
                        lambda eps: replace(problems.example1(eps), exact=None))
    with pytest.raises(MissingExactError, match="no exact solution"):
        ReportConfig(problem="ex1", families=("shishkin",), eps_list=(1e-2,),
                     n_list=(8, 16), algorithm="tg1")


def test_layer_report_cells():
    # the reference table is criterion 1's; here every cell is the layer
    # fraction of the mesh with the same non-default q, gamma0 and
    # layer_sides, which reach MeshSpec through layer_report's **mesh
    mesh = dict(q=0.3, gamma0=0.5, layer_sides="left")
    families, coarse, fine = tuple(LAYER_GRADING), (8, 16), (64, 256)
    rows = layer_report(LAYER_EPS, families, coarse, fine, a=LAYER_GRADING, **mesh)
    assert [(r.family, r.step, r.sizes) for r in rows] == [
        (family, step, list(sizes)) for family in families
        for step, sizes in ((1, coarse), (2, fine))]
    for row in rows:
        specs = (MeshSpec(row.family, LAYER_EPS, n, a=LAYER_GRADING[row.family], **mesh)
                 for n in row.sizes)
        assert row.percents == [layer_fraction(build_mesh(spec), LAYER_EPS)
                                for spec in specs]
    defaults = layer_report(LAYER_EPS, families, coarse, fine, a=LAYER_GRADING)
    for family in families:  # each family's cells move with the parameters
        assert ([r.percents for r in rows if r.family == family]
                != [d.percents for d in defaults if d.family == family])


def test_layer_report_scalar_a():
    rows = layer_report(LAYER_EPS, ("bakhvalov",), (8,), (64,), a=1.0)
    # grading with a=1 pulls far more points into the layer than a=4
    assert rows[0].percents == [75.0]


def test_direct_report_single_step():
    cfg = ReportConfig(problem="ex1", families=("shishkin",), eps_list=(1e-2,),
                       n_list=(8, 16), algorithm="direct")
    report = run_report(cfg)
    assert all(r.step == 1 for r in report.rows)
    assert all(r.n == r.N for r in report.rows)
    assert all(r.iterations <= 8 for r in report.rows)


def test_tg2_report_has_three_steps():
    cfg = ReportConfig(problem="ex1", families=("vulanovic",), eps_list=(0.1,),
                       n_list=(4, 8), algorithm="tg2", levels=2, a=3.0)
    report = run_report(cfg)
    by_cell = {}
    for r in report.rows:
        by_cell.setdefault(r.N, []).append(r.step)
    assert by_cell[4] == [1, 2, 3]
    assert by_cell[8] == [1, 2, 3]
    n_of = {(r.N, r.step): r.n for r in report.rows}
    assert n_of[(4, 2)] == 16 and n_of[(4, 3)] == 256
    assert n_of[(8, 2)] == 64 and n_of[(8, 3)] == 4096
