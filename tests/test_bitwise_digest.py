"""Smoke test of tools/bitwise_digest.py on its smallest cases."""

import re
import sys
from collections import Counter

import numpy as np
import pytest

import bitwise_digest as tool
import spgrid
from spgrid.linsolve import ZeroPivotError

LINE = re.compile(r"^ex1 bakhvalov 0\.01 algorithm2 8 levels=2"
                  r"( (mesh|newton|interp|out)=[0-9a-f]{16}){4}$")


def test_one_case_prints_one_line_per_case_and_is_reproducible(monkeypatch, capsys):
    case = ("ex1", "bakhvalov", 0.01, "algorithm2", 8, 2)
    monkeypatch.setattr(tool, "cases", lambda: iter([case]))
    assert tool.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and LINE.match(lines[0]), lines
    before = sys.getprofile()
    assert tool.digest_case(spgrid, case) == lines[0]
    # the hook is gone again, and an empty kind is the empty digest
    assert sys.getprofile() is before
    solve_line = tool.digest_case(spgrid, ("ex1", "uniform", 0.01, "solve", 64, 0))
    assert "interp=e3b0c44298fc1c14" in solve_line


def test_tg1_ropt_case_refines_to_the_size_of_choose_r(monkeypatch):
    sizes = []
    real_add_mesh = tool._Recorder.add_mesh

    def add_mesh(self, mesh):
        sizes.append(mesh.n)
        real_add_mesh(self, mesh)

    monkeypatch.setattr(tool._Recorder, "add_mesh", add_mesh)
    line = tool.digest_case(spgrid, ("ex1", "bakhvalov", 0.01, "tg1_ropt", 8, 1))
    assert line.startswith("ex1 bakhvalov 0.01 tg1_ropt 8 mesh=")
    assert sizes == [8, 61]
    assert sum(case[3] == "tg1_ropt" for case in tool.cases()) == 36


def test_newton_digest_covers_every_cascade_level(monkeypatch):
    # count the newton_step wrapper's calls per mesh size by the input
    # records it feeds the recorder: (iterate, slopes or None)
    steps = Counter()
    real_add = tool._Recorder.add

    def add(self, kind, *items):
        if kind == "newton" and (items[1] is None or isinstance(items[1], np.ndarray)):
            steps[len(items[0]) - 1] += 1
        real_add(self, kind, *items)

    monkeypatch.setattr(tool._Recorder, "add", add)
    tool.digest_case(spgrid, ("ex1", "bakhvalov", 0.01, "algorithm2", 8, 2))
    assert sorted(steps) == [8, 64, 4096]
    assert steps[8] >= 2 and steps[64] == 1 and steps[4096] == 1


def test_a_case_that_raises_restores_the_profile_function_in_force(monkeypatch):
    def zero_pivot(*bands):
        raise ZeroPivotError("zero pivot")

    def outer(frame, event, arg):  # a profiler that was running before
        pass

    monkeypatch.setattr(spgrid.newton, "thomas_solve", zero_pivot)
    before = sys.getprofile()
    sys.setprofile(outer)
    try:
        line = tool.digest_case(spgrid, ("ex1", "uniform", 0.01, "solve", 64, 0))
        assert sys.getprofile() is outer
    finally:
        sys.setprofile(before)
    assert line.startswith("ex1 uniform 0.01 solve 64 error=ZeroPivotError:")


def test_a_tree_without_make_plan_is_a_usage_error(monkeypatch, capsys):
    ran = []
    monkeypatch.delattr(spgrid.bench, "make_plan")  # main loads this checkout's spgrid
    monkeypatch.setattr(tool, "digest_case", lambda sp, case: ran.append(case))
    with pytest.raises(SystemExit) as stop:
        tool.main([])
    assert stop.value.code == 2 and ran == []
    assert "no spgrid.bench.make_plan" in capsys.readouterr().err
