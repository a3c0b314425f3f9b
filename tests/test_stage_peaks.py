"""tools/stage_peaks.py: the two-grid fine step's peak working set."""

import sys

import pytest

import spgrid
import stage_peaks as tool
from spgrid.linsolve import ZeroPivotError


# In arrays of n float64 at n = 2^14 (eps = 1e-4).  The fine step's working
# set is the mesh, the interpolant, the residual and the Jacobian's bands;
# the interpolant's slopes live until the first residual is formed, and ex2
# adds the midpoint diffusion and chain, shared by residual and Jacobian, with
# the Jacobian's weights built over the chain and the upper band over the
# right weights.  Both the run's stage and the Newton step peak in the
# tridiagonal solve, at 12.3 (ex1) and 13.1 (ex2), the profile hook's own
# frames included.  The ceilings sit above them: keeping the slopes through
# the step, evaluating the midpoint values alongside the chain or the weights
# beside their bands lifts the peak past them.
CEILING = {"ex1": 12.5, "ex2": 13.5}
CASES = [("ex1", "bakhvalov"), ("ex2", "vulanovic")]


def _check_fine_step(peaks, ceiling):
    for stage in ("twogrid.algorithm", "newton.newton_step"):
        fine = peaks["algorithm1"][stage]
        assert fine[2] <= ceiling, (stage, fine)
    for run in tool.RUNS:
        for calls, entry, peak in peaks[run].values():
            assert calls >= 1 and 0.0 <= entry <= peak


@pytest.mark.parametrize("problem,family,ceiling",
                         [(problem, family, CEILING[problem]) for problem, family in CASES])
def test_fine_step_peak_stays_at_its_level(problem, family, ceiling):
    before = sys.getprofile()
    peaks = tool.stage_peaks(spgrid, problem, family, 1e-4, 128)
    assert sys.getprofile() is before  # the hook is gone again
    assert set(peaks) == set(tool.RUNS)
    _check_fine_step(peaks, ceiling)


def test_a_run_that_raises_restores_the_profile_function_in_force(monkeypatch):
    def zero_pivot(*bands):
        raise ZeroPivotError("zero pivot")

    def outer(frame, event, arg):  # a profiler that was running before
        pass

    monkeypatch.setattr(spgrid.newton, "thomas_solve", zero_pivot)
    before = sys.getprofile()
    sys.setprofile(outer)
    try:
        with pytest.raises(ZeroPivotError):
            tool.stage_peaks(spgrid, "ex1", "bakhvalov", 1e-4, 16)
        assert sys.getprofile() is outer
    finally:
        sys.setprofile(before)


# An odd fine size (N = 181, n = 32761) starts cyclic reduction on an even
# level; eliminating its last row copies no band, so the fine step peaks at
# 12.06 (ex1) and 13.05 (ex2) arrays, under the same ceilings as at 2^14.
@pytest.mark.parametrize("problem,family", CASES)
def test_odd_fine_size_peaks_at_the_same_level(problem, family):
    peaks = tool.stage_peaks(spgrid, problem, family, 1e-4, 181)
    _check_fine_step(peaks, CEILING[problem])


# The direct ex1 solve on the same mesh peaks at 10.1 arrays, in its
# tridiagonal solve: the semilinear Jacobians take the cached couplings as
# their off-diagonals, so a second n-sized copy of each band, or a cached
# sum of the two, lifts it past 10.5.
def test_direct_solve_peak_holds_one_copy_of_the_bands():
    peaks = tool.stage_peaks(spgrid, "ex1", "bakhvalov", 1e-4, 128)
    direct = peaks["solve"]["newton.solve"]
    assert direct[2] <= 10.5, direct


# The direct ex2 solve peaks at 12.06 arrays, in its tridiagonal solve too:
# its weighted Jacobian's three bands are its own, beside the cached couplings.
def test_quasilinear_direct_solve_peak_stays_at_its_level():
    peaks = tool.stage_peaks(spgrid, "ex2", "vulanovic", 1e-4, 128)
    direct = peaks["solve"]["newton.solve"]
    assert direct[2] <= 12.5, direct


def test_main_prints_one_line_per_stage(capsys):
    assert tool.main(["--problem", "ex1", "--family", "shishkin", "--coarse", "16"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ex1 shishkin eps=0.0001 N=16 n=256")
    assert "algorithm1:" in lines and "solve:" in lines
    rows = [line.split() for line in lines if line.startswith("  ")]
    assert all(len(row) == 4 for row in rows)  # a header and a line per stage, no more
    stages = [row[0] for row in rows]
    for name in ("twogrid.algorithm", "newton.newton_step", "newton.jacobian",
                 "linsolve.thomas_solve", "twogrid.interpolant_slopes"):
        assert name in stages
