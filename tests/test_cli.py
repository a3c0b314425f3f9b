import csv
import io
import json

import pytest

from spgrid import bench, newton, twogrid
from spgrid.cli import main


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
                            "nodal_error", "nodes", "values"}
    assert payload["iterations"] <= 8
    assert payload["mesh"]["n"] == 32
    assert len(payload["nodes"]) == 33
    assert payload["nodal_error"] < 1e-1
    assert 0.0 <= payload["residual_norm"] <= 1e-9


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


def test_bad_flag_exits_2(capsys):
    code, out, err = run_cli(capsys, "solve", "--problem", "ex9",
                             "--eps", "0.1", "--n", "8")
    assert code == 2


def test_nonconvergence_exit_code(capsys):
    # eps=1 on two intervals: fine; force failure via tg2 memory guard instead
    code, out, err = run_cli(capsys, "table", "--problem", "ex1",
                             "--mesh", "uniform", "--eps", "0.1",
                             "--coarse", "64", "--algorithm", "tg2",
                             "--levels", "2")
    assert code == 3
    assert "failed" in out


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
])
def test_table_invalid_mesh_or_plan_parameter_is_validation_error(capsys, flags,
                                                                  message):
    # the mesh spec and the two-grid plan own these checks; their errors are
    # bad input (exit 2), not failed cells (exit 3)
    code, out, err = run_cli(capsys, "table", "--problem", "ex1", "--eps", "0.01",
                             "--coarse", "8,16", "--mesh", "bakhvalov",
                             "--format", "csv", *flags)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("fmt", ["csv", "json", "markdown"])
def test_table_fine_size_over_the_budget_is_a_failed_cell(capsys, fmt):
    # 8**1000 overflows a float: the budget check must not form it.  Every
    # format names the failed cell on stderr; the CSV has no column for it.
    code, out, err = run_cli(capsys, "table", "--problem", "ex1", "--eps", "0.01",
                             "--coarse", "8", "--mesh", "bakhvalov",
                             "--algorithm", "tg1", "--r", "1000", "--format", fmt)
    assert code == 3
    assert len(err.splitlines()) == 1
    assert err.startswith("error: bakhvalov eps=0.01 N=8: ValueError: fine size")
    assert "interval budget" in err
    if fmt == "json":
        rows = json.loads(out)["rows"]
        assert len(rows) == 1
        assert rows[0]["failed"].startswith("ValueError: fine size")
        assert "interval budget" in rows[0]["failed"]
    elif fmt == "csv":
        header, row = csv.reader(io.StringIO(out))
        assert ",".join(header) == bench.CSV_HEADER
        assert row[header.index("error"):] == ["", "", "", ""]


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
    assert "shishkin" in out and "bakhvalov" in out
    assert "40.63" in out  # vulanovic cells
    assert "17.72" in out  # bakhvalov fine-grid cells with a=4


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
    def no_solve(sys):
        raise AssertionError("a linear solve ran before the size check")

    monkeypatch.setattr(newton, "thomas_solve", no_solve)
    code, out, err = run_cli(capsys, "bench", "--problem", "ex1",
                             "--mesh", "bakhvalov", "--eps", "1e-2", "--a", "4",
                             "--coarse", "8,1100", "--repeats", "1")
    assert code == 2
    assert out == ""
    assert "fine size 1210000 exceeds the 1048576 interval budget" in err


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
    from spgrid.cli import build_parser

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
        if out.startswith("{"):  # the solve JSON carries its wall time
            out, out_alone = json.loads(out), json.loads(out_alone)
            out.pop("seconds"), out_alone.pop("seconds")
        else:  # the table CSV carries a seconds column
            out = [r[:-1] for r in csv.reader(io.StringIO(out))]
            out_alone = [r[:-1] for r in csv.reader(io.StringIO(out_alone))]
        assert out == out_alone
    code, _, err = run_cli(capsys, "solve", "--problem", "ex1", "--n", "nope")
    assert code == 2 and "invalid int value" in err
    assert build_parser() is parser
