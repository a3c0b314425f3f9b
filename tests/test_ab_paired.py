"""Smoke test of tools/ab_paired.py on two narrowed direct cells."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_paired.py"
SIDE = re.compile(r"^(parent|change)  p50 \d+\.\d{3} ms  p90 \d+\.\d{3} ms$")
RATIO = re.compile(r"^per-op ratio change/parent: median \d+\.\d{3} "
                   r"\(quartiles \d+\.\d{3}, \d+\.\d{3}\)$")


def _tool():
    spec = importlib.util.spec_from_file_location("ab_paired", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_both_trees_run_every_cell_paired_and_checked(monkeypatch, capsys):
    tool = _tool()
    narrow = tool.wl.cells("direct")[:2]
    monkeypatch.setattr(tool.wl, "cells", lambda workload: narrow)
    try:
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
    finally:
        for name in [n for n in sys.modules
                     if n.split(".")[0] in ("spgrid_parent", "spgrid_change")]:
            del sys.modules[name]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "workload direct: 4 paired ops, seed 1"
    assert all(SIDE.match(line) for line in lines[1:3]), lines
    assert RATIO.match(lines[3]), lines
