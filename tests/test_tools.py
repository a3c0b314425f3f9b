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
from toolbox import load_spgrid

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
