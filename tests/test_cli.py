import csv
import io
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from reference_values import LAYER_EPS, LAYER_GRADING, LAYER_TABLE_PRINTED, printed_layers
from spgrid import bench, cli, newton, problems, twogrid
from spgrid.bench import ReportConfig
from spgrid.cli import EXIT_BROKEN_PIPE, build_parser, main
from spgrid.linsolve import ZeroPivotError
from spgrid.mesh import MeshSpec, build_mesh
from spgrid.problems import example1
from spgrid.twogrid import TwoGridPlan, choose_r

SRC = Path(__file__).resolve().parent.parent / "src"
MESH = dict(a=MeshSpec, q=MeshSpec, gamma0=MeshSpec, layer_sides=MeshSpec)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_direct_json(capsys):
    code, out, err = run_cli(capsys, "solve", "--problem", "ex1",
                             "--mesh", "vulanovic", "--eps", "0.01",
                             "--n", "32", "--a", "1")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"problem", "algorithm", "mesh", "iterations",
                            "final_update", "residual_norm", "seconds",
                            "nodal_error", "nodes", "values", "levels"}
    assert payload["iterations"] <= 8
    [level] = payload["levels"]  # the direct solve is one level
    assert level["n"] == 32 and level["seconds"] > 0
    assert level["iterations"] == payload["iterations"] == len(level["update_history"])
    assert level["final_update"] == payload["final_update"] == level["update_history"][-1]
    assert payload["mesh"]["n"] == 32
    assert len(payload["nodes"]) == 33
    assert payload["nodal_error"] < 1e-1
    assert 0.0 <= payload["residual_norm"] <= 1e-9
    mesh = build_mesh(MeshSpec("vulanovic", 0.01, 32, a=1.0))
    residual = newton.residual_for(mesh, example1(0.01), np.array(payload["values"]))
    assert payload["residual_norm"] == float(np.max(np.abs(residual)))  # bit for bit


def test_solve_nodes_output(capsys):
    code, out, err = run_cli(capsys, "solve", "--problem", "ex1",
                             "--mesh", "uniform", "--eps", "0.1",
                             "--n", "4", "--out", "nodes")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5
    xs = [float(line.split()[0]) for line in lines]
    assert xs == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_solve_tg1(capsys):
    code, out, err = run_cli(capsys, "solve", "--problem", "ex1",
                             "--mesh", "bakhvalov", "--eps", "0.01",
                             "--a", "4", "--algorithm", "tg1", "--coarse", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["mesh"]["n"] == 64
    assert payload["iterations"] == 1  # fine step is one linearized solve


def test_solve_json_reports_every_cascade_level(capsys):
    code, out, err = run_cli(capsys, "solve", "--problem", "ex1", "--mesh", "uniform",
                             "--eps", "0.1", "--algorithm", "tg2", "--coarse", "4",
                             "--levels", "2")
    assert code == 0
    payload = json.loads(out)
    levels = payload["levels"]
    assert [level["n"] for level in levels] == [4, 16, 256]  # coarse first
    assert all(set(level) == {"n", "iterations", "final_update", "update_history",
                              "seconds"} for level in levels)
    assert levels[0]["iterations"] >= 2
    assert [level["iterations"] for level in levels[1:]] == [1, 1]
    assert payload["seconds"] == sum(level["seconds"] for level in levels)
    last = levels[-1]  # the top-level keys describe the last level
    assert (payload["mesh"]["n"], payload["iterations"], payload["final_update"]) == (
        last["n"], last["iterations"], last["final_update"])


def test_solve_tg1_runs_the_fine_size_it_is_given(capsys):
    code, out, err = run_cli(capsys, "solve", "--problem", "ex1", "--mesh", "uniform",
                             "--eps", "0.01", "--algorithm", "tg1", "--coarse", "16",
                             "--n", "1000")
    assert code == 0
    assert json.loads(out)["mesh"]["n"] == 1000


def test_tg2_runs_the_r_it_is_given(capsys):
    # every level is round(n**r) of the one before: 4**1.5 = 8, 8**1.5 -> 23
    common = ("--problem", "ex1", "--mesh", "uniform", "--eps", "0.01",
              "--coarse", "4", "--algorithm", "tg2", "--r", "1.5")
    code, out, _ = run_cli(capsys, "solve", *common)
    assert code == 0
    assert json.loads(out)["mesh"]["n"] == 23
    code, out, _ = run_cli(capsys, "table", *common, "--format", "json")
    assert code == 0
    assert [row["n"] for row in json.loads(out)["rows"]] == [4, 8, 23]


def test_solve_missing_n_is_validation_error(capsys):
    code, out, err = run_cli(capsys, "solve", "--problem", "ex1",
                             "--mesh", "uniform", "--eps", "0.1")
    assert code == 2
    assert "required" in err


@pytest.mark.parametrize("argv", [
    ("solve", "--problem", "ex1", "--mesh", "uniform", "--eps", "0.1",
     "--n", "1000000000000000000"),
    ("layers", "--fine", "1000000000000000000"),
    ("table", "--problem", "ex1", "--mesh", "shishkin", "--eps", "0.1",
     "--coarse", "1" + "0" * 400, "--algorithm", "tg1_ropt", "--format", "csv"),
])
def test_mesh_size_over_the_budget_is_validation_error(capsys, argv):
    # MeshSpec rejects the size before any array is allocated or N**r formed
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: n must lie in [2, 1048576]\n"


def _no_solve(monkeypatch):
    def no_solve(*bands):
        raise AssertionError("a linear solve ran before the size check")

    monkeypatch.setattr(newton, "thomas_solve", no_solve)


@pytest.mark.parametrize("flags,message", [
    (("--algorithm", "tg2", "--coarse", "4", "--levels", "2", "--n", "1000"),
     "error: tg2 reads no --n: only tg1 takes a fine size\n"),
    (("--algorithm", "tg1_ropt", "--coarse", "16", "--n", "1000"),
     "error: tg1_ropt reads no --n: only tg1 takes a fine size\n"),
    (("--algorithm", "direct", "--n", "64", "--coarse", "8"),
     "error: one size is required for the direct algorithm: --n or --coarse, not both\n"),
    (("--algorithm", "tg1", "--n", "64"),
     "error: --coarse is required for two-grid algorithms\n"),
    # 2000**2 is formed and named; the budget is checked before any solve
    (("--algorithm", "tg1", "--coarse", "2000"),
     "error: fine size 4000000 exceeds the 1048576 interval budget\n"),
    (("--algorithm", "tg1", "--coarse", "8", "--r", "1000"),
     "error: fine size 8**1000 exceeds the 1048576 interval budget\n"),
    (("--algorithm", "tg1", "--coarse", "16", "--n", "16"),
     "error: fine grid must be strictly finer than coarse\n"),
    (("--algorithm", "tg2", "--coarse", "4", "--r", "nan"),
     "error: r must be finite and exceed 1\n"),
    # the uniform mesh ignores q, but the JSON echoes it, and JSON has no NaN
    (("--n", "8", "--q", "nan"), "error: q must be finite\n"),
])
def test_solve_size_the_algorithm_cannot_run_is_validation_error(capsys, monkeypatch,
                                                                 flags, message):
    _no_solve(monkeypatch)
    code, out, err = run_cli(capsys, "solve", "--problem", "ex1", "--mesh", "uniform",
                             "--eps", "0.1", *flags)
    assert code == 2
    assert out == ""
    assert err == message


def _one_newton_step(monkeypatch):
    monkeypatch.setattr(newton, "MAX_ITER", 1)


def _zero_pivot(monkeypatch):
    def zero_pivot(*bands):
        raise ZeroPivotError("zero or non-finite pivot in row 3")

    monkeypatch.setattr(newton, "thomas_solve", zero_pivot)


def _nonpositive_jacobian(monkeypatch):
    def nonpositive(*args, **kw):
        raise newton.NonpositiveJacobianError("reaction derivative must be positive")

    monkeypatch.setattr(newton, "semilinear_jacobian", nonpositive)


UNIFORM_8 = ("--mesh", "uniform", "--eps", "0.1", "--n", "8")


@pytest.mark.parametrize("flags,patch,message", [
    # the first layer step is ~1e-16, under the spacing of doubles below 1
    (("--mesh", "bakhvalov", "--eps", "1e-12", "--a", "0.109375", "--q", "0.375",
      "--n", "2712"), None,
     "error: layer step below the double spacing near x = 1: mirrored nodes collapsed\n"),
    (UNIFORM_8, _one_newton_step, "error: no convergence in 1 iterations (last update "),
    (UNIFORM_8, _zero_pivot, "error: zero or non-finite pivot in row 3\n"),
    (UNIFORM_8, _nonpositive_jacobian,
     "error: reaction derivative must be positive\n"),
    # the contact point rounds to q, which left q - alpha zero
    (("--eps", "0.01", "--n", "64", "--mesh", "vulanovic", "--a", "1e-100"), None,
     "error: no double contact point in (0, 0.4) for a*eps = 1e-102\n"),
    # a subnormal a*eps, where exp overflowed in the Newton loop
    (("--mesh", "bakhvalov", "--eps", "1e-8", "--a", "4.27e-301", "--q",
      "0.3428865302350336", "--n", "64"), None,
     "error: no double contact point in (0, 0.342887) for a*eps = 4.27e-309\n"),
], ids=["collapsed-mesh", "no-convergence", "zero-pivot", "nonpositive-jacobian",
        "vulanovic-contact-point-at-q", "bakhvalov-subnormal-layer-scale"])
def test_solve_solver_failure_exits_3(capsys, monkeypatch, flags, patch, message):
    if patch is not None:
        patch(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:  # each would reach stderr
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "solve", "--problem", "ex1", *flags)
    assert code == 3
    assert out == ""
    assert err.startswith(message) and err.count("\n") == 1
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("problem", ["ex1", "ex2"])
def test_subnormal_eps_prints_the_error_line_alone(problem):
    # a subnormal eps is bad input: x/eps would overflow in the layer terms
    for mesh in (("bakhvalov", "--a", "1"), ("uniform",)):
        proc = subprocess.run(
            [sys.executable, "-m", "spgrid.cli", "solve", "--problem", problem,
             "--mesh", *mesh, "--eps", "4.27e-309", "--n", "64"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))})
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: eps must lie in [2**-1022, 1]\n"


@pytest.mark.parametrize("eps", ["0", "-0.0"])
@pytest.mark.parametrize("problem", ["ex1", "ex2"])
@pytest.mark.parametrize("command", [("solve", "--n", "8"), ("table", "--coarse", "8")],
                         ids=lambda command: command[0])
def test_zero_eps_is_validation_error(capsys, monkeypatch, command, problem, eps):
    # the factories divide by eps: the rule must run first
    _no_solve(monkeypatch)
    code, out, err = run_cli(capsys, command[0], "--problem", problem, "--eps", eps,
                             *command[1:])
    assert (code, out, err) == (2, "", "error: eps must lie in [2**-1022, 1]\n")


@pytest.mark.parametrize("problem", ["ex1", "ex2"])
def test_smallest_normal_eps_solves_on_the_uniform_mesh(capsys, problem):
    # x/eps stays finite on [0, 1]: no callback warns (a RuntimeWarning fails here)
    code, out, err = run_cli(capsys, "solve", "--problem", problem, "--mesh",
                             "uniform", "--eps", repr(2.0 ** -1022), "--n", "64")
    assert code == 0 and err == ""
    assert json.loads(out)["iterations"] >= 1


@pytest.mark.parametrize("algorithm", bench.ALGORITHMS)
def test_solve_and_table_run_the_sizes_of_the_one_size_function(capsys, algorithm):
    N = 4
    spec = MeshSpec("uniform", 0.1, N)
    plan = {"direct": TwoGridPlan(spec, cascade_levels=0), "tg1": TwoGridPlan(spec),
            "tg1_ropt": TwoGridPlan(spec, choose_r(N)[0]),
            "tg2": TwoGridPlan(spec, cascade_levels=2)}[algorithm]
    sizes = [N] + plan.fine_sizes()
    common = ("--problem", "ex1", "--mesh", "uniform", "--eps", "0.1",
              "--algorithm", algorithm)
    size = ("--n",) if algorithm == "direct" else ("--coarse",)
    code, out, _ = run_cli(capsys, "solve", *common, *size, str(N))
    assert code == 0
    assert json.loads(out)["mesh"]["n"] == sizes[-1]
    code, out, _ = run_cli(capsys, "table", *common, "--coarse", str(N),
                           "--format", "json")
    assert code == 0
    assert [row["n"] for row in json.loads(out)["rows"]] == sizes


def test_bench_times_the_direct_solve_on_the_fine_size_of_tg1(monkeypatch):
    N, built = 8, []
    real = twogrid.build_mesh
    monkeypatch.setattr(twogrid, "build_mesh",
                        lambda spec: built.append(spec.n) or real(spec))
    [row] = bench.timing_rows("ex1", [N], repeats=1, family="uniform", eps=0.1)
    n = N * N  # tg1 at r = 2
    assert row.n == n
    assert built == [n, N, n]  # the direct solve, then tg1's coarse and fine meshes


@pytest.mark.parametrize("argv", [
    ("solve", "--problem", "ex1", "--mesh", "uniform", "--eps", "0.1", "--n", "8"),
    ("table", "--problem", "ex1", "--mesh", "uniform", "--eps", "0.1", "--coarse", "8"),
    ("bench", "--problem", "ex1", "--mesh", "uniform", "--eps", "0.1", "--coarse", "8",
     "--repeats", "1"),
], ids=["solve", "table", "bench"])
def test_a_value_error_from_a_run_is_a_defect_not_bad_input(monkeypatch, argv):
    # the input is valid, so exit 2 would misreport a broken callback
    broken = lambda eps: replace(example1(eps), f_u=lambda x, u: np.ones(3))
    monkeypatch.setitem(problems.PROBLEMS, "ex1", broken)
    with pytest.raises(ValueError, match="could not be broadcast"):
        main(list(argv))


@pytest.mark.parametrize("argv", [
    ("solve", "--problem", "ex1", "--mesh", "uniform", "--eps", "0.1", "--n", "8"),
    ("table", "--problem", "ex1", "--mesh", "uniform", "--eps", "0.1", "--coarse", "8"),
    ("bench", "--problem", "ex1", "--mesh", "uniform", "--eps", "0.1", "--coarse", "8",
     "--repeats", "1"),
], ids=["solve", "table", "bench"])
def test_a_plain_value_error_while_planning_is_a_defect_too(monkeypatch, argv):
    # only an InputError is bad input, whenever it is raised
    def broken(problem_id, eps):
        raise ValueError("a defect in the problem factory")

    for module in (cli, bench):
        monkeypatch.setattr(module, "make_problem", broken)
    _no_solve(monkeypatch)
    with pytest.raises(ValueError, match="a defect in the problem factory"):
        main(list(argv))


def test_layers_mesh_that_doubles_cannot_hold_exits_3(capsys):
    # the layers report builds its meshes while it plans: a solver failure
    # there still exits 3, not 2 and not a traceback
    code, out, err = run_cli(capsys, "layers", "--eps", "1e-12", "--a-bakhvalov",
                             "0.109375", "--q", "0.375", "--coarse", "8",
                             "--fine", "2712")
    assert code == 3
    assert out == ""
    assert err.startswith("error: layer step below the double spacing")


def test_table_of_a_problem_without_exact_solution_is_validation_error(
        capsys, monkeypatch):
    _no_solve(monkeypatch)
    monkeypatch.setitem(problems.PROBLEMS, "ex1",
                        lambda eps: replace(example1(eps), exact=None))
    code, out, err = run_cli(capsys, "table", "--problem", "ex1", "--mesh", "uniform",
                             "--eps", "0.1", "--coarse", "8")
    assert code == 2
    assert out == ""
    assert err == "error: problem 'ex1' has no exact solution\n"


def test_bad_flag_exits_2(capsys):
    code, out, err = run_cli(capsys, "solve", "--problem", "ex9",
                             "--eps", "0.1", "--n", "8")
    assert code == 2


def test_nonconvergence_exit_code(capsys):
    # N = 8 solves; on N = 2712 the mirrored layer nodes collapse in doubles
    code, out, err = run_cli(capsys, "table", "--problem", "ex1",
                             "--mesh", "bakhvalov", "--eps", "1e-12",
                             "--a", "0.109375", "--q", "0.375",
                             "--coarse", "8,2712")
    assert code == 3
    assert "failed: NoRootError: layer step below the double spacing" in out
    assert err.startswith("error: bakhvalov eps=1e-12 N=2712: NoRootError: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("eps,degenerate", [("0.1", True), ("0.01", False)])
def test_table_marks_cells_whose_mesh_fell_back_to_uniform(capsys, eps, degenerate):
    # a*eps = 0.4 reaches q = 0.4 at eps = 0.1: both graded meshes are uniform
    code, out, err = run_cli(capsys, "table", "--problem", "ex1",
                             "--mesh", "bakhvalov,vulanovic", "--a", "4", "--eps", eps,
                             "--coarse", "8,16", "--algorithm", "tg1", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 8 and all(row["degenerate"] is degenerate for row in rows)
    want = [f"warning: {family} eps={eps} N={N}: the mesh fell back to uniform"
            for family in ("bakhvalov", "vulanovic") for N in (8, 16)]
    assert err.splitlines() == (want if degenerate else [])


def test_table_csv(capsys):
    code, out, err = run_cli(capsys, "table", "--problem", "ex1",
                             "--mesh", "vulanovic", "--eps", "0.01,0.0001",
                             "--coarse", "8,16", "--algorithm", "tg1",
                             "--format", "csv", "--a", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 8  # 2 eps x 2 N x 2 steps
    assert {r["eps"] for r in rows} == {"0.01", "1.00000e-04"}
    errors = [float(r["error"]) for r in rows]
    assert all(e > 0 for e in errors)


def test_table_unknown_mesh_family_is_validation_error(capsys):
    code, out, err = run_cli(capsys, "table", "--problem", "ex1", "--eps", "0.1",
                             "--coarse", "8", "--mesh", "shishkin,nope",
                             "--format", "csv")
    assert code == 2
    assert out == ""
    assert "unknown mesh family 'nope'" in err


@pytest.mark.parametrize("command, argv, lists", [
    ("solve", ("--problem", "ex1", "--eps", "0.01", "--n", "64"), False),
    ("bench", ("--problem", "ex1", "--eps", "0.01", "--coarse", "8"), False),
    ("table", ("--problem", "ex1", "--eps", "0.1", "--coarse", "8", "--format", "csv"),
     True)])
def test_mesh_help_names_a_comma_list_only_where_one_is_split(capsys, command, argv,
                                                              lists):
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    assert ("mesh family or comma list:" in " ".join(out.split())) == lists
    code, out, err = run_cli(capsys, command, *argv, "--mesh", "shishkin,bakhvalov")
    if lists:
        assert code == 0
        assert {row["mesh"] for row in csv.DictReader(io.StringIO(out))} == {
            "shishkin", "bakhvalov"}
    else:
        assert (code, out) == (2, "")
        assert "unknown mesh family 'shishkin,bakhvalov'" in err


@pytest.mark.parametrize("flags,message", [
    (("--a", "-1"), "a must be positive"),
    (("--q", "0.7"), "q must lie in (0, 0.5)"),
    (("--gamma0", "-1"), "gamma0 must be positive"),
    (("--algorithm", "tg2", "--levels", "0"), "cascade_levels must be at least 1"),
    (("--a", "nan"), "a must be positive"),
    (("--mesh", "shishkin", "--gamma0", "nan"), "gamma0 must be positive"),
    (("--algorithm", "tg1", "--r", "nan"), "r must be finite and exceed 1"),
    (("--algorithm", "tg1", "--r", "inf"), "r must be finite and exceed 1"),
    # round(8**1.0001) = 8: a "fine" level of the coarse size
    (("--algorithm", "tg1", "--r", "1.0001"), "fine grid must be strictly finer"),
    # a repeated value would print its cell twice and make the orders ambiguous
    (("--mesh", "shishkin,shishkin"), "repeated value 'shishkin' in families"),
    (("--eps", "0.01,1e-2"), "repeated value 0.01 in eps_list"),
    (("--coarse", "8,8"), "repeated value 8 in n_list"),
    (("--a", "inf"), "a must be positive"),
    (("--mesh", "shishkin", "--gamma0", "inf"), "gamma0 must be positive"),
    (("--algorithm", "tg2", "--levels", "3"),
     "fine size 16777216 exceeds the 1048576 interval budget"),
    (("--algorithm", "tg2", "--r", "nan"), "r must be finite and exceed 1"),
    # JSON has no Infinity or NaN: the families that ignore a and q refuse them too
    (("--mesh", "shishkin", "--a", "inf"), "a must be finite"),
    (("--mesh", "shishkin", "--q", "nan"), "q must be finite"),
    (("--mesh", "uniform", "--a", "nan"), "a must be finite"),
    (("--mesh", "uniform", "--q", "inf"), "q must be finite"),
])
def test_table_invalid_mesh_or_plan_parameter_is_validation_error(
        capsys, monkeypatch, flags, message):
    # the mesh spec and the two-grid plan own these checks; their errors are
    # bad input (exit 2) before any cell runs, not failed cells (exit 3)
    _no_solve(monkeypatch)
    code, out, err = run_cli(capsys, "table", "--problem", "ex1", "--eps", "0.01",
                             "--coarse", "8,16", "--mesh", "bakhvalov",
                             "--format", "csv", *flags)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("fmt", ["csv", "json", "markdown"])
def test_table_fine_size_over_the_budget_is_a_failed_cell(capsys, monkeypatch,
                                                          fmt):
    # 8**1000 overflows a float: the budget check must not form it.  The
    # over-budget cell fails when the table is planned, so in every format the
    # whole table is bad input (exit 2): no cell runs and stdout stays empty.
    _no_solve(monkeypatch)
    code, out, err = run_cli(capsys, "table", "--problem", "ex1", "--eps", "0.01",
                             "--coarse", "8", "--mesh", "bakhvalov",
                             "--algorithm", "tg1", "--r", "1000", "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == ("error: fine size 8**1000 exceeds the 1048576 interval "
                   "budget\n")


@pytest.mark.parametrize("out,read", [("nodes", "readline"), ("json", "read10")])
def test_closed_stdout_exits_quietly(out, read):
    # the reader stops after one line (or ten bytes) and closes the pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "spgrid.cli", "solve", "--problem", "ex1",
         "--mesh", "shishkin", "--eps", "1e-2", "--n", "65536", "--out", out],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))})
    first = proc.stdout.readline() if read == "readline" else proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert first and err == b""


def test_table_markdown_default(capsys):
    code, out, err = run_cli(capsys, "table", "--problem", "ex2",
                             "--mesh", "vulanovic", "--eps", "0.01",
                             "--coarse", "8", "--algorithm", "direct",
                             "--a", "2")
    assert code == 0
    assert out.startswith("| problem |")


def test_layers_default_reproduces_reference_table(capsys):
    code, out, err = run_cli(capsys, "layers")
    assert code == 0
    assert printed_layers(out) == LAYER_TABLE_PRINTED


@pytest.mark.parametrize("flag,value,config", [
    ("--a", "2", dict(a={**LAYER_GRADING, "shishkin": 2.0, "vulanovic": 2.0})),
    ("--a-bakhvalov", "2", dict(a={**LAYER_GRADING, "bakhvalov": 2.0})),
    ("--q", "0.3", dict(q=0.3)),
    ("--gamma0", "0.5", dict(gamma0=0.5)),
])
def test_layers_passes_each_mesh_flag_to_layer_report(capsys, flag, value, config):
    sizes = ("--coarse", "8,16", "--fine", "64")
    _, default, _ = run_cli(capsys, "layers", *sizes)
    code, out, err = run_cli(capsys, "layers", *sizes, flag, value)
    assert code == 0 and out != default
    rows = bench.layer_report(LAYER_EPS, tuple(LAYER_GRADING), [8, 16], [64],
                              **{"a": LAYER_GRADING, **config})
    assert out == bench.render_layer_rows(rows)


@pytest.mark.parametrize("argv", [
    ("bench", "--problem", "ex1", "--eps", "1e-2", "--coarse", "8", "--r", "3"),
    ("table", "--problem", "ex1", "--eps", "1e-2", "--coarse", "8", "--lev", "3",
     "--form", "csv"),
], ids=["bench-r-for-repeats", "table-lev-form"])
def test_flag_prefixes_are_rejected(capsys, argv):
    # in solve and table --r is the fine-size exponent: no prefix may stand
    # for --repeats in bench, nor for any other flag
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv,usage,leftover", [
    (("bench", "--problem", "ex1", "--eps", "1e-2", "--coarse", "8", "--r", "3"),
     "spgrid bench [-h] --problem", "--r 3"),
    (("solve", "--problem", "ex1", "--eps", "1e-2", "--n", "8", "--bogus"),
     "spgrid solve [-h] --problem", "--bogus"),
    # a flag before the subcommand is the top-level parser's leftover
    (("--bogus", "solve", "--problem", "ex1", "--eps", "0.1", "--n", "8"),
     "spgrid [-h] {solve,table,layers,bench} ...\n", "--bogus"),
], ids=["bench-r", "solve-bogus", "top-level-bogus"])
def test_unknown_flag_shows_the_subcommand_usage(capsys, argv, usage, leftover):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"usage: {usage}")
    prog = usage.split(" [")[0]
    assert err.endswith(f"\n{prog}: error: unrecognized arguments: {leftover}\n")


@pytest.mark.parametrize("argv,message", [
    (("table", "--problem", "ex1", "--eps", "x", "--coarse", "8"),
     "spgrid table: error: argument --eps: invalid float value: 'x'\n"),
    (("layers", "--coarse", "8,a"),
     "spgrid layers: error: argument --coarse: invalid int value: '8,a'\n"),
], ids=["table-eps", "layers-coarse"])
def test_a_bad_list_element_is_named_by_its_type(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.endswith("\n" + message)


@pytest.mark.parametrize("argv,homes", [
    (("solve", "--problem", "ex1", "--eps", "0.1"),
     dict(MESH, r=TwoGridPlan, levels=ReportConfig, algorithm=ReportConfig)),
    (("table", "--problem", "ex1", "--eps", "0.1", "--coarse", "8"),
     dict(MESH, r=TwoGridPlan, levels=ReportConfig, algorithm=ReportConfig,
          fmt=ReportConfig, metric=ReportConfig)),
    (("layers",), dict(a=MeshSpec, q=MeshSpec, gamma0=MeshSpec)),
    (("bench", "--problem", "ex1", "--eps", "0.1", "--coarse", "8"), MESH),
], ids=["solve", "table", "layers", "bench"])
def test_cli_defaults_are_the_library_defaults(argv, homes):
    args = vars(build_parser().parse_args(argv))
    assert {key: args[key] for key in homes} == {
        key: getattr(home, key) for key, home in homes.items()}


def test_solve_echoes_the_mesh_that_ran(capsys, monkeypatch):
    # the echo reads the plan's coarse spec, not the flags: a plan whose spec
    # differs from them shows which
    plans = []

    def make_plan(*args, **kwargs):
        plan = bench.make_plan(*args, **kwargs)
        plans.append(replace(plan, coarse=replace(plan.coarse, q=0.25, gamma0=3.0)))
        return plans[-1]

    monkeypatch.setattr(cli, "make_plan", make_plan)
    code, out, _ = run_cli(capsys, "solve", "--problem", "ex2", "--mesh", "vulanovic",
                           "--eps", "1e-3", "--a", "2", "--algorithm", "tg1",
                           "--coarse", "8", "--layer-sides", "left")
    assert code == 0
    [plan] = plans
    spec = plan.coarse
    assert json.loads(out)["mesh"] == {
        "family": spec.family, "n": plan.fine_sizes()[-1], "eps": spec.eps, "a": spec.a,
        "q": spec.q, "gamma0": spec.gamma0, "degenerate": False}


def test_bench_command(capsys):
    code, out, err = run_cli(capsys, "bench", "--problem", "ex1",
                             "--mesh", "vulanovic", "--eps", "0.01",
                             "--coarse", "8", "--repeats", "1", "--a", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "N,n,direct_seconds,twogrid_seconds,ratio"
    assert len(lines) == 2
    assert int(lines[1].split(",")[1]) == 64


def test_bench_zero_repeats_is_validation_error(capsys):
    code, out, err = run_cli(capsys, "bench", "--problem", "ex1",
                             "--mesh", "vulanovic", "--eps", "0.01",
                             "--coarse", "8", "--repeats", "0", "--a", "1")
    assert code == 2
    assert out == ""
    assert "repeats must be at least 1" in err


def test_bench_checks_every_fine_size_before_timing(capsys, monkeypatch):
    # N = 1100 needs 1210000 fine intervals: no solve may run first, not even
    # the direct solve of that size nor any run of N = 8
    _no_solve(monkeypatch)
    code, out, err = run_cli(capsys, "bench", "--problem", "ex1",
                             "--mesh", "bakhvalov", "--eps", "1e-2", "--a", "4",
                             "--coarse", "8,1100", "--repeats", "1")
    assert code == 2
    assert out == ""
    assert "fine size 1210000 exceeds the 1048576 interval budget" in err


@pytest.mark.parametrize("argv,message", [
    (("layers", "--coarse", ","), "families, coarse and fine must be nonempty"),
    (("layers", "--fine", ","), "families, coarse and fine must be nonempty"),
    (("bench", "--problem", "ex1", "--eps", "0.1", "--coarse", ","),
     "coarse_sizes must be nonempty"),
], ids=["layers-coarse", "layers-fine", "bench"])
def test_empty_size_list_is_validation_error(capsys, argv, message):
    # an empty list would print empty rows or a bare header and exit 0
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_bench_honors_layer_sides(capsys, monkeypatch):
    specs = []

    def recording(real):
        def build_mesh(spec):
            specs.append(spec)
            return real(spec)
        return build_mesh

    for module in (bench, twogrid):
        monkeypatch.setattr(module, "build_mesh", recording(module.build_mesh))
    code, out, err = run_cli(capsys, "bench", "--problem", "ex2",
                             "--mesh", "vulanovic", "--eps", "0.01", "--a", "2",
                             "--coarse", "8", "--repeats", "1",
                             "--layer-sides", "left")
    assert code == 0
    assert sorted(spec.n for spec in specs) == [8, 64, 64]
    assert {spec.layer_sides for spec in specs} == {"left"}


def test_parser_is_built_once_and_reused(capsys):
    table = ("table", "--problem", "ex1", "--mesh", "vulanovic", "--eps", "0.01",
             "--coarse", "8", "--format", "csv", "--a", "1")
    solve = ("solve", "--problem", "ex2", "--mesh", "bakhvalov", "--eps", "0.01",
             "--n", "16", "--a", "2")
    build_parser.cache_clear()
    alone_table = run_cli(capsys, *table)
    build_parser.cache_clear()
    alone_solve = run_cli(capsys, *solve)
    build_parser.cache_clear()
    parser = build_parser()
    both = [run_cli(capsys, *table), run_cli(capsys, *solve)]
    assert build_parser() is parser
    for (code, out, err), (code_alone, out_alone, _) in zip(
            both, (alone_table, alone_solve)):
        assert code == code_alone == 0
        if out.startswith("{"):  # the solve JSON carries its wall time, per level too
            out, out_alone = json.loads(out), json.loads(out_alone)
            for payload in (out, out_alone):
                for record in (payload, *payload["levels"]):
                    record.pop("seconds")
        else:  # the table CSV carries a seconds column
            out = [r[:-1] for r in csv.reader(io.StringIO(out))]
            out_alone = [r[:-1] for r in csv.reader(io.StringIO(out_alone))]
        assert out == out_alone
    code, _, err = run_cli(capsys, "solve", "--problem", "ex1", "--n", "nope")
    assert code == 2 and "invalid int value" in err
    assert build_parser() is parser


@pytest.mark.parametrize("command", [
    ("table", "--eps", "0.01", "--coarse", "8", "--algorithm", "tg1"),
    ("solve", "--eps", "0.01", "--coarse", "8", "--algorithm", "tg1"),
    ("bench", "--eps", "0.01", "--coarse", "8", "--repeats", "1"),
], ids=lambda command: command[0])
def test_traced_command_counts_its_two_grid_stages(capsys, command):
    # every command runs its plan through a public algorithm, whose span the
    # tracer counts: tg1 on N = 8 solves for 63 fine unknowns
    import spgrid
    from toolbox import tracing

    tracer = tracing.Tracer()
    tracer.install(spgrid)
    try:
        code, _, err = run_cli(capsys, command[0], "--problem", "ex1", "--mesh",
                               "bakhvalov", "--a", "4", *command[1:])
    finally:
        tracer.uninstall()
    assert code == 0, err
    assert tracer.counts["twogrid.fine_unknowns"] == 63
    assert tracer.counts["twogrid.coarse_stage.s"] > 0
    assert tracer.counts["twogrid.fine_stage.s"] > 0
