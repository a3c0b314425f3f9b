"""tools/stage_peaks.py: the two-grid fine step's peak working set."""

import pytest

import spgrid.cli  # the tracer rebinds there too
import stage_peaks as tool


# In arrays of n float64 at n = 2^14 (eps = 1e-4).  The fine step's working
# set is the mesh, the interpolant, the residual and the Jacobian's bands;
# the interpolant's slopes live until the first residual is formed, and ex2
# adds the midpoint diffusion and chain, shared by residual and Jacobian, with
# the Jacobian's weights built over the chain and the upper band over the
# right weights.  The wrapped ceilings sit just above the peaks reached (13.2
# in the tridiagonal solve of either problem, where the stage wrappers still
# hold the slopes).  The unwrapped ceilings sit above 12.1 (ex1) and 13.1
# (ex2): keeping the slopes through the step, evaluating the midpoint values
# alongside the chain or the weights beside their bands lifts the peak past them.
UNWRAPPED_CEILING = {"ex1": 12.5, "ex2": 13.5}


@pytest.mark.parametrize("problem,family,ceiling", [("ex1", "bakhvalov", 13.5),
                                                    ("ex2", "vulanovic", 13.5)])
def test_fine_step_peak_stays_at_its_level(problem, family, ceiling):
    bindings = {m: dict(vars(getattr(spgrid, m))) for m in tool.MODULES}
    peaks = tool.stage_peaks(spgrid, problem, family, 1e-4, 128)
    for m, before in bindings.items():  # every rebinding is undone
        after = vars(getattr(spgrid, m))
        assert all(after[name] is value for name, value in before.items())
    fine = peaks["algorithm1"]["newton.newton_step"]
    assert fine[2] <= ceiling, fine
    assert peaks["unwrapped"]["algorithm1"] <= UNWRAPPED_CEILING[problem], peaks
    for run in tool.RUNS:
        for calls, entry, peak in peaks[run].values():
            assert calls >= 1 and 0.0 <= entry <= peak


# An odd fine size (N = 181, n = 32761) starts cyclic reduction on an even
# level; eliminating its last row copies no band, so the fine step peaks at
# 12.05 (ex1) and 13.04 (ex2) arrays, under the same ceilings as at 2^14.
@pytest.mark.parametrize("problem,family", [("ex1", "bakhvalov"), ("ex2", "vulanovic")])
def test_odd_fine_size_peaks_at_the_same_level(problem, family):
    peaks = tool.stage_peaks(spgrid, problem, family, 1e-4, 181)
    assert peaks["unwrapped"]["algorithm1"] <= UNWRAPPED_CEILING[problem], peaks


# The direct ex1 solve on the same mesh peaks at 10.0 arrays, in its
# tridiagonal solve: the semilinear Jacobians take the cached couplings as
# their off-diagonals, so a second n-sized copy of each band, or a cached
# sum of the two, lifts it past 10.5.
def test_direct_solve_peak_holds_one_copy_of_the_bands():
    peaks = tool.stage_peaks(spgrid, "ex1", "bakhvalov", 1e-4, 128)
    direct = peaks["solve"]["newton.solve"]
    assert direct[2] <= 10.5, direct


# The direct ex2 solve peaks at 12.05 arrays, in its tridiagonal solve too:
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
    stages = [line.split()[0] for line in lines if line.startswith("  ")]
    for name in ("twogrid.algorithm", "newton.newton_step", "newton.jacobian",
                 "linsolve.thomas_solve", "twogrid.interpolant_slopes"):
        assert name in stages
