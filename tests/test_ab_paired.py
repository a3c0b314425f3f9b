"""The paired A/B sweep of ``tools/bench_layers.py --parent`` on narrowed
workloads: this checkout loaded twice, as ``spgrid_parent`` and
``spgrid_change``, every op run on both sides back to back and checked, and
the report's ratio and solution-gap lines."""

import random
import re
from pathlib import Path

import pytest

import bench_layers as tool

ROOT = Path(__file__).resolve().parent.parent
SIDE = re.compile(r"^(parent|change) \w+: \d+ ops, p50 \d+\.\d{3} ms, p90 \d+\.\d{3} ms$")
RATIO = re.compile(r"^ratio \w+: median \d+\.\d{3} \(quartiles \d+\.\d{3}, \d+\.\d{3}\)$")
GAP = "largest solution gap / max(1, |y|_inf): converged {}, one-step fine {}"


def _sides() -> dict:
    return {side: tool.load_spgrid(ROOT / "src", f"spgrid_{side}")
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
