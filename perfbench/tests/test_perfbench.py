"""Tests of the benchmark itself: op lists, the answer check and the tracer.

    python3 -m pytest perfbench/tests -q

Each test runs a handful of the cheapest operations, so the file takes
seconds.
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SP = wl.import_spgrid()
REFERENCE = wl.load_reference()


def _cheapest(workload, count=3):
    return wl.cells(workload)[:count]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_op_list_runs_and_passes_the_check(workload):
    result = run.Pass()
    for op in _cheapest(workload):
        result.run_op(SP, op, REFERENCE)
    assert result.failures == []
    assert result.unknowns > 0 and len(result.seconds) == 3


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_ops_and_every_block_is_every_cell_once(workload):
    first = wl.blocks(workload, 11)
    again = wl.blocks(workload, 11)
    other = wl.blocks(workload, 12)
    a = [next(first) for _ in range(3)]
    assert a == [next(again) for _ in range(3)]
    assert a[0] != next(other)
    cells = wl.cells(workload)
    for block in a:
        assert sorted(block, key=repr) == sorted(cells, key=repr)


def test_every_cell_has_a_reference_and_fits_the_interval_budget():
    for workload in wl.WORKLOADS:
        wl.check_plan_sizes(SP, wl.cells(workload))
        for op in wl.cells(workload):
            assert wl.expected_keys(op) <= REFERENCE.keys()


def test_check_rejects_a_perturbed_solution():
    op = _cheapest("direct", 1)[0]
    problem, meshes, outcomes = wl.run(SP, op)
    wl.check(op, wl.answer_rows(SP, op, (problem, meshes, outcomes)), REFERENCE)
    outcomes[0].y[1:-1] *= 1.0 + 1e-6
    with pytest.raises(wl.AnswerError):
        wl.check(op, wl.answer_rows(SP, op, (problem, meshes, outcomes)), REFERENCE)


@pytest.mark.parametrize("fmt", wl.TABLE_FORMATS)
def test_check_rejects_a_perturbed_table(fmt):
    op = next(o for o in wl.cells("table") if o.fmt == fmt)
    code, text = wl.run(SP, op)
    rows = wl.answer_rows(SP, op, (code, text))
    wl.check(op, rows, REFERENCE)
    eps, N, n, step, error = rows[0]
    with pytest.raises(wl.AnswerError):
        wl.check(op, [(eps, N, n, step, error * 1.001)] + rows[1:], REFERENCE)
    with pytest.raises(wl.AnswerError):
        wl.check(op, rows[1:], REFERENCE)
    with pytest.raises(wl.AnswerError):
        wl.answer_rows(SP, op, (3, text))


def test_check_rejects_a_changed_csv_header():
    op = next(o for o in wl.cells("table") if o.fmt == "csv")
    code, text = wl.run(SP, op)
    with pytest.raises(wl.AnswerError):
        wl.answer_rows(SP, op, (code, text.replace("error", "err", 1)))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload, tmp_path):
    stream = itertools.repeat(_cheapest(workload, 2))
    plain, traced, tracer = run.paired_pass(SP, stream, REFERENCE, 0.0,
                                            tmp_path / "spans.json", min_ops=2)
    metrics = run.per_layer(tracer, traced, plain)
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert [m["unit"] for m in BENCHMARK["per_layer"]] == [v["unit"] for v in metrics.values()]
    assert plain.ops == traced.ops and len(traced.ops) == 2
    assert plain.failures == traced.failures == []
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert len(spans["spans"]) == len(tracer.spans) > 0
    assert {op for _, _, _, _, op in tracer.spans} == {0, 1}


def test_tracer_catches_calls_through_every_imported_name():
    op = _cheapest("direct", 1)[0]
    tracer = Tracer()
    tracer.install(SP)
    try:
        _, _, outcomes = wl.run(SP, op)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    iterations = outcomes[0].iterations
    # newton holds thomas_solve under its own name: one solve per iteration
    assert totals["linsolve.thomas_solve"]["calls"] == iterations
    assert totals["newton.newton_step"]["calls"] == iterations
    assert tracer.counts["newton.iterations"] == iterations
    assert totals["problems.callback"]["calls"] > 0
    for name, rec in totals.items():
        assert rec["self_s"] <= rec["s"] + 1e-12, name


def test_uninstall_restores_every_binding():
    before = {m: dict(vars(getattr(SP, m))) for m in ("mesh", "linsolve", "newton",
                                                      "twogrid", "bench", "cli")}
    factories = dict(SP.problems.PROBLEMS)
    render = SP.bench.Report.render
    tracer = Tracer()
    tracer.install(SP)
    assert SP.newton.thomas_solve is not before["newton"]["thomas_solve"]
    tracer.uninstall()
    for m, names in before.items():
        for attr, value in names.items():
            assert getattr(getattr(SP, m), attr) is value, f"{m}.{attr}"
    assert SP.problems.PROBLEMS == factories
    assert SP.bench.Report.render is render


def test_end_to_end_metrics_match_benchmark_json():
    stream = itertools.repeat(_cheapest("table", 10))
    result = run.timed_pass(SP, stream, REFERENCE, seconds=0.0, min_ops=20)
    assert len(result.ops) == 20 and result.failures == [] and result.calibration
    metrics = run.end_to_end(result, [0.25, 0.5, 0.75])
    declared = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    assert set(metrics) == set(declared)
    for name, value in metrics.items():
        assert value["unit"] == declared[name]["unit"]
        assert value["value"] > 0


def test_each_op_is_scaled_by_the_kernel_samples_near_it():
    timed = run.Pass()
    timed.starts, timed.seconds = [0.0, 10.0], [1.0, 1.0]
    timed.calibration = [(0.5, run.CAL_REF_S), (10.5, 2.0 * run.CAL_REF_S)]
    assert list(run.scaled_seconds(timed)) == [1.0, 0.5]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "direct",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
