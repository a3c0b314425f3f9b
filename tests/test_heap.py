"""Importing spgrid on glibc keeps the solver's n-sized temporaries mapped.

The check runs in a fresh interpreter: in the test process, earlier tests
have already moved glibc's sliding mmap and trim thresholds, so its page
fault count would read near zero with or without the package's pin.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

try:
    GLIBC = bool(os.confstr("CS_GNU_LIBC_VERSION"))
except (ValueError, OSError, AttributeError):
    GLIBC = False

# After one warm-up call, the mean minor page faults per call over 3 calls.
PROBE = """
import resource
import spgrid as sp

def faults_per_call(call):
    call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        call()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3

ex1, ex2 = sp.make_problem("ex1", 1e-4), sp.make_problem("ex2", 1e-4)
mesh = sp.build_mesh(sp.MeshSpec("bakhvalov", 1e-4, 2 ** 16, a=4.0))
tg1 = sp.TwoGridPlan(sp.MeshSpec("bakhvalov", 1e-4, 256, a=4.0))
tg2 = sp.TwoGridPlan(sp.MeshSpec("vulanovic", 1e-4, 16, a=2.0),
                     cascade_levels=2)
print(faults_per_call(lambda: sp.solve(mesh, ex1)),
      faults_per_call(lambda: sp.algorithm1(ex1, tg1)),
      faults_per_call(lambda: sp.algorithm2(ex2, tg2)))
"""


@pytest.mark.skipif(not GLIBC, reason="the heap pin applies to glibc only")
def test_repeated_solves_do_not_fault_their_temporaries_in_again():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    solve, tg1, tg2 = (float(v) for v in out.split())
    assert solve < 100 and tg1 < 100 and tg2 < 100, (solve, tg1, tg2)
