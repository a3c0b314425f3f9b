"""tools/bench_layers.py: the BENCH record at its smallest size, one side or
two, the solution gaps, and the paired A/B sweep of ``--parent`` on narrowed
workloads: this checkout loaded twice, as ``spgrid_parent`` and
``spgrid_change``, every op run on both sides back to back and checked, and
the report's ratio and solution-gap lines."""

import json
import random
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import bench_layers as tool
from toolbox import load_spgrid

ROOT = Path(__file__).resolve().parent.parent
SIDE = re.compile(r"^(parent|change) \w+: \d+ ops, p50 \d+\.\d{3} ms, p90 \d+\.\d{3} ms$")
RATIO = re.compile(r"^ratio \w+: median \d+\.\d{3} \(quartiles \d+\.\d{3}, \d+\.\d{3}\)$")
GAP = "largest solution gap / max(1, |y|_inf): converged {}, one-step fine {}"


def _run(tmp_path, *argv) -> dict:
    argv = ["--label", "t", "--out", str(tmp_path), "--sizes", "4096", "--repeat", "1", *argv]
    assert tool.main(argv) == 0
    return json.loads((tmp_path / "BENCH_t.json").read_text())


def test_writer_records_every_layer_run_and_provenance_field(tmp_path, capsys):
    record = _run(tmp_path)
    assert record["label"] == "t" and record["repeat"] == 1
    assert list(record["provenance"]) == ["change"]
    assert set(record["provenance"]["change"]) == {"cores", "python", "numpy", "glibc",
                                                   "dgtsv", "git_sha", "git_dirty"}
    assert record["calibration_s"] and all(c > 0 for c in record["calibration_s"])
    assert record["calibration_ref_s"] > 0
    cases = record["cases"]
    assert [(c["problem"], c["family"], c["layer_sides"], c["n"]) for c in cases] == [
        ("ex1", "bakhvalov", "both", 4096), ("ex2", "vulanovic", "left", 4096)]
    for case in cases:
        assert "ratio" not in case
        side = case["change"]
        assert set(side["layers_s"]) == set(tool.LAYERS)
        assert set(side["end_to_end_s"]) == set(tool.RUNS)
        for name, best in {**side["layers_s"], **side["end_to_end_s"]}.items():
            assert best == min(side["samples_s"][name]) > 0, name
        # one call each of mesh, start and interpolation; a call per sweep of the rest
        assert len(side["samples_s"]["start"]) == 1
        assert len(side["samples_s"]["solve"]) == side["iterations"] >= 1
    assert list(record["workloads"]) == ["direct", "twogrid", "table"]
    for name, workload in record["workloads"].items():
        assert workload["ops"] == len(workload["change"]["samples_s"]) == len(tool.wl.cells(name))
        assert 0 < workload["change"]["p50_s"] <= workload["change"]["p90_s"]
        assert "ratio_p50" not in workload and "gap_converged" not in workload
    assert capsys.readouterr().out.count("\n") == 2 + 3 + 1  # cases, workloads, path


@pytest.mark.parametrize("case", tool.CASES, ids=lambda case: case["problem"])
def test_layers_of_a_nested_solve_are_its_own_steps_alone(case):
    # at 16^4 the solve starts from a solve on a coarser mesh, whose steps
    # run residual, jacobian and thomas_solve too, one span level deeper
    sp = load_spgrid(ROOT / "src", "spgrid_change")
    problem, spec = tool._inputs(sp, case, 16 ** 4)
    assert spec.n > sp.newton.NESTED_BASE
    layers = tool.traced_layers(sp, problem, spec)
    iterations = sp.newton.solve(sp.mesh.build_mesh(spec), problem).iterations
    assert {k: len(v) for k, v in layers.items()} == {
        "mesh": 1, "start": 1, "residual": iterations, "jacobian": iterations,
        "solve": iterations, "interpolation": 1}


def test_paired_run_of_this_checkout_has_both_sides_and_no_solution_gap(tmp_path, monkeypatch):
    cells = tool.wl.cells  # each workload's first cell: the sweep tests below take more
    monkeypatch.setattr(tool.wl, "cells", lambda workload: cells(workload)[:1])
    record = _run(tmp_path, "--parent", str(ROOT))
    parent, change = sys.modules["spgrid_parent"], sys.modules["spgrid_change"]
    assert parent.newton is not change.newton  # two packages, side by side
    assert parent.cli.__name__ == "spgrid_parent.cli"
    assert record["provenance"]["parent"] == record["provenance"]["change"]
    for case in record["cases"]:
        assert case["parent"]["iterations"] == case["change"]["iterations"]
        assert set(case["ratio"]) == set(tool.LAYERS + tool.RUNS)
    workloads = record["workloads"]
    for workload in workloads.values():
        assert len(workload["parent"]["samples_s"]) == len(workload["change"]["samples_s"])
        assert 0 < workload["ratio_p25"] <= workload["ratio_p50"] <= workload["ratio_p75"]
    # the same code on both sides; a direct op has no fine level, a table op no solution
    gaps = {name: (w["gap_converged"], w["gap_one_step"]) for name, w in workloads.items()}
    assert gaps == {"direct": (0.0, None), "twogrid": (0.0, 0.0), "table": (None, None)}


@pytest.mark.parametrize("argv", [["--sizes", "100"], ["--sizes", "abc"], ["--sizes", "1"],
                                  ["--parent", "{tmp}/nowhere"], ["--out", "{tmp}/missing"],
                                  ["--label", "missing/t"]],
                         ids=" ".join)
def test_bad_arguments_stop_the_tool_before_it_measures(tmp_path, monkeypatch, argv):
    calls = []
    monkeypatch.setattr(tool.perfbench_run, "calibrate", lambda: calls.append(1) or 1.0)
    argv = ["--label", "t", "--out", str(tmp_path), *(a.format(tmp=tmp_path) for a in argv)]
    with pytest.raises(SystemExit) as stop:
        tool.main(argv)
    assert stop.value.code == 2
    assert calls == [] and list(tmp_path.rglob("BENCH_*.json")) == []


def test_level_gaps_are_relative_to_the_parents_scale():
    parent = [np.array([0.0, 0.5, 0.0]), np.array([4.0, -8.0])]
    change = [np.array([0.0, 0.5 + 2.0 ** -20, 0.0]),
              np.array([4.0, -8.0 - 2.0 ** -20])]
    assert tool.level_gaps(parent, change) == [2.0 ** -20, 2.0 ** -23]
    with pytest.raises(ValueError):  # a level missing on one side
        tool.level_gaps(parent, change[:1])


def test_every_layer_case_gets_one_untimed_call_per_side(monkeypatch):
    sides = _sides()
    calls = Counter()

    def counted(run):
        def fake(sp, problem, spec):
            calls[run.__name__, sp.__name__] += 1
            return {name: [float(calls[run.__name__, sp.__name__])]
                    for name in run(sp, problem, spec)}
        return fake

    for run in (tool.traced_layers, tool.end_to_end):
        monkeypatch.setattr(tool, run.__name__, counted(run))
    monkeypatch.setattr(tool.perfbench_run, "calibrate", lambda: 1.0)
    repeat = 3
    case = tool.measure_case(sides, tool.CASES[0], 4096, repeat, random.Random(0), [])
    assert calls == {(run, sp): repeat + 1 for run in ("traced_layers", "end_to_end")
                     for sp in ("spgrid_parent", "spgrid_change")}
    for side in sides:  # the first call of each run is in no sample
        for name, samples in case[side]["samples_s"].items():
            assert samples == [2.0, 3.0, 4.0], name


def _sides() -> dict:
    return {side: load_spgrid(ROOT / "src", f"spgrid_{side}")
            for side in ("parent", "change")}


def _sweep(sides, workload, rounds) -> dict:
    """One paired sweep of ``workload``, reported."""
    out = tool.sweep(sides, workload, rounds, random.Random(1), [])
    tool.report({"provenance": sides, "cases": [], "workloads": {workload: out}})
    return out


def test_both_trees_run_every_cell_paired_and_checked(monkeypatch, capsys):
    sides = _sides()
    parent, change = sides["parent"], sides["change"]
    assert parent.newton is not change.newton
    assert parent.cli.__name__ == "spgrid_parent.cli"
    assert Path(change.__file__).parent == ROOT / "src" / "spgrid"
    narrow = tool.wl.cells("direct")[:2]
    monkeypatch.setattr(tool.wl, "cells", lambda workload: narrow)
    runs, run = [], tool.wl.run
    monkeypatch.setattr(tool.wl, "run", lambda sp, op: runs.append((sp, op)) or run(sp, op))
    out = _sweep(sides, "direct", 2)
    assert out["ops"] == 4
    assert all(len(out[side]["samples_s"]) == 4 for side in sides)
    # one untimed call per side, then every op on both sides back to back
    assert {sp for sp, _ in runs[:2]} == {parent, change}
    pairs = list(zip(runs[2::2], runs[3::2], strict=True))
    assert len(pairs) == 4 and all(a[1] == b[1] and {a[0], b[0]} == {parent, change}
                                   for a, b in pairs)
    assert sorted(map(str, (a[1] for a, _ in pairs))) == sorted(map(str, 2 * narrow))
    lines = capsys.readouterr().out.splitlines()
    assert all(SIDE.match(line) for line in lines[:2]), lines
    assert RATIO.match(lines[2]), lines
    # one tree on both sides; a direct solve has no one-step level
    assert lines[3:] == [GAP.format("0.0e+00", "none")]
    # a wrong reference answer stops the comparison
    reference = tool.wl.load_reference()
    key = narrow[1].row_key(narrow[1].eps[0], narrow[1].size, 1)
    reference[key] = [reference[key][0], 2.0 * reference[key][1]]
    monkeypatch.setattr(tool.wl, "load_reference", lambda: reference)
    with pytest.raises(tool.wl.AnswerError, match=re.escape(key)):
        tool.sweep(sides, "direct", 1, random.Random(1), [])


@pytest.mark.parametrize("workload,gap", [("twogrid", GAP.format("0.0e+00", "0.0e+00")),
                                          ("table", None)])
def test_solution_gap_line_per_workload(monkeypatch, capsys, workload, gap):
    narrow = tool.wl.cells(workload)[:1]
    monkeypatch.setattr(tool.wl, "cells", lambda workload: narrow)
    _sweep(_sides(), workload, 1)
    lines = capsys.readouterr().out.splitlines()
    assert RATIO.match(lines[2]), lines
    assert lines[3:] == ([] if gap is None else [gap])  # a table holds no solution
