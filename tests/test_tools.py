"""Every tool starts as a script: ``--help`` and a bad argument in a fresh
interpreter, and the tools share one copy of each module.

The other tool tests import the scripts by name, with tools/ on
``sys.path``; only a script run checks the import of their shared module
the way a user's command line makes it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spgrid
from toolbox import load_spgrid, profiled

TOOLS = Path(__file__).resolve().parent.parent / "tools"
# one bad argument per tool; tools/ holds no spgrid sources
BAD = {"bench_layers": ["--label", "t", "--sizes", "abc"],
       "bitwise_digest": ["--src", str(TOOLS)],
       "stage_peaks": ["--family", "nope"]}

# Fresh, so that no module the test process imported by another route counts.
ONE_COPY = """
import json, sys
import bench_layers, bitwise_digest, stage_peaks
import spgrid

sys.modules["run"].calibrate()
bitwise_digest.log_transform(spgrid.make_problem("ex2", 1e-2))
print(json.dumps({
    "aliases": [k for k in sys.modules if k.startswith("perfbench_") or k == "spgrid_oracles"],
    "workloads": bench_layers.wl is sys.modules["workloads"],
    "tracing": bench_layers.tracing is sys.modules["tracing"],
    "tracer": bench_layers.tracing.Tracer is sys.modules["run"].Tracer,
}))
"""


@pytest.mark.parametrize("tool", list(BAD))
def test_tool_runs_as_a_script(tool):
    for argv, code, stream in ((["--help"], 0, "stdout"), (BAD[tool], 2, "stderr")):
        done = subprocess.run([sys.executable, str(TOOLS / f"{tool}.py"), *argv],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == code, done.stderr
        assert getattr(done, stream).startswith("usage:")


def test_tools_share_one_copy_of_perfbench_and_the_oracles():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(TOOLS), str(TOOLS.parent / "src")]))
    done = subprocess.run([sys.executable, "-c", ONE_COPY], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert json.loads(done.stdout) == {"aliases": [], "workloads": True, "tracing": True,
                                       "tracer": True}


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
