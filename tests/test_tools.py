"""Every tool starts as a script: ``--help`` in a fresh interpreter.

The other tool tests load the scripts through importlib with tools/ on
``sys.path``; only a script run checks the import of their shared module
the way a user's command line makes it.
"""

import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.mark.parametrize("tool", ["ab_paired", "bench_layers", "bitwise_digest", "stage_peaks"])
def test_tool_runs_as_a_script(tool):
    done = subprocess.run([sys.executable, str(TOOLS / f"{tool}.py"), "--help"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")
