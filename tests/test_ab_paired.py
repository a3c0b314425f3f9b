"""Smoke tests of tools/ab_paired.py on narrowed workloads."""

import contextlib
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_paired.py"
SIDE = re.compile(r"^(parent|change)  p50 \d+\.\d{3} ms  p90 \d+\.\d{3} ms$")
RATIO = re.compile(r"^per-op ratio change/parent: median \d+\.\d{3} "
                   r"\(quartiles \d+\.\d{3}, \d+\.\d{3}\)$")
GAP = "largest solution gap / max(1, |y|_inf): converged {}, one-step fine {}"


def _tool():
    spec = importlib.util.spec_from_file_location("ab_paired", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def _narrowed(monkeypatch, tool, workload, count):
    """The workload's first ``count`` cells; both trees unloaded afterwards."""
    narrow = tool.wl.cells(workload)[:count]
    monkeypatch.setattr(tool.wl, "cells", lambda workload: narrow)
    try:
        yield narrow
    finally:
        for name in [n for n in sys.modules
                     if n.split(".")[0] in ("spgrid_parent", "spgrid_change")]:
            del sys.modules[name]


def test_both_trees_run_every_cell_paired_and_checked(monkeypatch, capsys):
    tool = _tool()
    with _narrowed(monkeypatch, tool, "direct", 2) as narrow:
        argv = ["--parent", str(ROOT), "--workload", "direct", "--rounds", "2"]
        assert tool.main(argv) == 0
        parent, change = sys.modules["spgrid_parent"], sys.modules["spgrid_change"]
        assert parent.newton is not change.newton
        assert parent.cli.__name__ == "spgrid_parent.cli"
        assert Path(change.__file__).parent == ROOT / "src" / "spgrid"
        # a wrong reference answer stops the comparison
        reference = tool.wl.load_reference()
        key = narrow[1].row_key(narrow[1].eps[0], narrow[1].size, 1)
        reference[key] = [reference[key][0], 2.0 * reference[key][1]]
        monkeypatch.setattr(tool.wl, "load_reference", lambda: reference)
        with pytest.raises(tool.wl.AnswerError, match=re.escape(key)):
            tool.compare(parent, change, "direct", 1, 1)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "workload direct: 4 paired ops, seed 1"
    assert all(SIDE.match(line) for line in lines[1:3]), lines
    assert RATIO.match(lines[3]), lines
    # one tree on both sides; a direct solve has no one-step level
    assert lines[4:] == [GAP.format("0.0e+00", "none")]


@pytest.mark.parametrize("workload,gap", [("twogrid", GAP.format("0.0e+00", "0.0e+00")),
                                          ("table", None)])
def test_solution_gap_line_per_workload(monkeypatch, capsys, workload, gap):
    tool = _tool()
    with _narrowed(monkeypatch, tool, workload, 1):
        argv = ["--parent", str(ROOT), "--workload", workload, "--rounds", "1"]
        assert tool.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert RATIO.match(lines[3]), lines
    assert lines[4:] == ([] if gap is None else [gap])  # a table holds no solution


def test_level_gaps_are_relative_to_the_parents_scale():
    tool = _tool()
    parent = [np.array([0.0, 0.5, 0.0]), np.array([4.0, -8.0])]
    change = [np.array([0.0, 0.5 + 2.0 ** -20, 0.0]),
              np.array([4.0, -8.0 - 2.0 ** -20])]
    assert tool.level_gaps(parent, change) == [2.0 ** -20, 2.0 ** -23]
    with pytest.raises(ValueError):  # a level missing on one side
        tool.level_gaps(parent, change[:1])
