import ast
from pathlib import Path

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
