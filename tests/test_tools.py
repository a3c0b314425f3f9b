"""Every tool starts as a script: ``--help`` in a fresh interpreter.

The other tool tests import the scripts by name, with tools/ on
``sys.path``; only a script run checks the import of their shared module
the way a user's command line makes it.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import spgrid
from toolbox import load_spgrid, profiled

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.mark.parametrize("tool", ["bench_layers", "bitwise_digest", "stage_peaks"])
def test_tool_runs_as_a_script(tool):
    done = subprocess.run([sys.executable, str(TOOLS / f"{tool}.py"), "--help"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


def test_loader_refuses_a_tree_without_spgrid_or_a_name_taken_elsewhere(tmp_path):
    with pytest.raises(FileNotFoundError, match="no spgrid sources"):
        load_spgrid(tmp_path, "spgrid_elsewhere")
    (tmp_path / "spgrid").mkdir()
    (tmp_path / "spgrid" / "__init__.py").write_text("")
    with pytest.raises(ValueError, match="already loaded"):
        load_spgrid(tmp_path, "spgrid")  # the tests' spgrid is this checkout's
    assert load_spgrid(TOOLS.parent / "src", "spgrid") is spgrid


@pytest.mark.parametrize("broken", ["__init__.py", "cli.py"])
def test_a_load_that_fails_leaves_no_module_behind(tmp_path, broken):
    package = tmp_path / "spgrid"
    package.mkdir()
    (package / "__init__.py").write_text("from . import mesh\n")
    (package / "mesh.py").write_text("")
    (package / "cli.py").write_text("")
    (package / broken).write_text('from . import mesh\nraise RuntimeError("broken on purpose")\n')
    for _ in range(2):  # a second load runs the tree again and fails alike
        with pytest.raises(RuntimeError, match="broken on purpose"):
            load_spgrid(tmp_path, "spgrid_broken")
        assert not [key for key in sys.modules if key.startswith("spgrid_broken")]


def test_profiled_puts_back_the_profile_function_in_force():
    seen = []

    def outer(frame, event, arg):
        pass

    def hook(frame, event, arg):
        seen.append(event)

    before = sys.getprofile()
    sys.setprofile(outer)
    try:
        with pytest.raises(RuntimeError):
            with profiled(hook):
                assert sys.getprofile() is hook
                raise RuntimeError
        assert sys.getprofile() is outer
        assert "c_call" in seen  # sys.getprofile itself, inside the block
    finally:
        sys.setprofile(before)
