import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spgrid


def test_every_exported_name_resolves_once():
    assert len(spgrid.__all__) == len(set(spgrid.__all__))
    missing = [name for name in spgrid.__all__ if not hasattr(spgrid, name)]
    assert missing == []


def test_linsolve_imports_no_spgrid_module():
    # the solve sits below the scheme: newton assembles the rows it solves
    tree = ast.parse(Path(spgrid.__file__).with_name("linsolve.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):  # level > 0: a relative import
            assert node.level == 0 and node.module.split(".")[0] != "spgrid"
        elif isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "spgrid" for alias in node.names)


def test_one_transfer_function_in_one_home():
    # the two-grid fine steps and the direct solve's nested start share it
    assert (spgrid.twogrid.interpolant_slopes is spgrid.mesh.interpolant_slopes
            is spgrid.newton.interpolant_slopes is spgrid.interpolant_slopes)


SPEC = spgrid.MeshSpec("uniform", 0.1, 8)


@pytest.mark.parametrize("check", [
    lambda: spgrid.MeshSpec("nope", 0.1, 8),
    lambda: replace(spgrid.example1(0.1), eps=2.0),
    lambda: replace(spgrid.example2(0.1), bc_left=0.5),
    lambda: spgrid.make_problem("ex9", 0.1),
    lambda: spgrid.TwoGridPlan(SPEC, r=1.0),
    lambda: spgrid.TwoGridPlan(SPEC, r=1000.0),  # the fine size is over the budget
    lambda: spgrid.choose_r(3),
    lambda: spgrid.make_plan("direct", 8, 64),
    lambda: spgrid.ReportConfig(problem="ex1", families=("uniform",), eps_list=(0.1,),
                                n_list=(8, 8)),
    lambda: spgrid.ReportConfig(problem="ex1", families=("uniform",), eps_list=(0.1,),
                                n_list=(8,), metric="nope"),
    lambda: spgrid.layer_report(0.1, (), [8], [64]),
    lambda: spgrid.timing_rows("ex1", [8], repeats=0, family="uniform", eps=0.1),
], ids=["MeshSpec", "SemilinearProblem", "QuasilinearDiffusionProblem", "make_problem",
        "TwoGridPlan", "fine_sizes", "choose_r", "make_plan", "ReportConfig-repeat",
        "ReportConfig-metric", "layer_report", "timing_rows"])
def test_every_parameter_check_raises_input_error(check):
    # the one type the CLI exits 2 on; it is still a ValueError for callers
    with pytest.raises(spgrid.InputError):
        check()


def test_defect_checks_raise_a_plain_value_error():
    # a wrong-sized array is a caller's defect, not bad input
    mesh = spgrid.build_mesh(SPEC)
    for check in (lambda: spgrid.thomas_solve(np.ones(3), np.ones(4), np.ones(3),
                                              np.ones(3)),
                  lambda: spgrid.interpolant_slopes(mesh, np.ones(3), mesh)):
        with pytest.raises(ValueError) as caught:
            check()
        assert not isinstance(caught.value, spgrid.InputError)
    assert issubclass(spgrid.MissingExactError, spgrid.InputError)
