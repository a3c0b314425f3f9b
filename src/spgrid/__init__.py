"""Layer-adapted finite differences and two-grid solvers for singularly
perturbed reaction-diffusion two-point boundary value problems.  Importing
it on glibc pins the process's heap thresholds (``_pin_heap_thresholds``)."""

import ctypes
import os


def _pin_heap_thresholds() -> None:
    # glibc mmaps blocks over 128 KiB and trims a free heap top over 128 KiB,
    # so n-sized temporaries fault in anew on every solve.  Pin both at the
    # 64-bit ceilings of glibc's sliding rule, which any mallopt stops: arrays
    # up to 32 MiB (here <= 8 MiB) reuse heap pages; <= 64 MiB free top kept.
    try:  # a no-op on other C libraries
        if os.confstr("CS_GNU_LIBC_VERSION"):
            libc = ctypes.CDLL(None)
            libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
            libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    except (ValueError, OSError, AttributeError):
        pass


_pin_heap_thresholds()

from .mesh import (DegenerateMeshError, InputError, Mesh, MeshSpec, NoRootError,
                   bakhvalov_alpha, build_mesh, layer_fraction, shishkin_alpha,
                   vulanovic_alpha)
from .problems import (QuasilinearDiffusionProblem, SemilinearProblem,
                       example1, example2, make_problem)
from .linsolve import ZeroPivotError, thomas_solve
from .newton import (NoConvergenceError, NonpositiveJacobianError,
                     SingularDiffusionError, SolveOutcome, interior_source,
                     newton_step, reduced_initial, residual_for, solve)
from .twogrid import (TwoGridPlan, TwoGridResult, algorithm1, algorithm2,
                      choose_r, interpolant_slopes)
from .bench import (ConvergenceRow, DegenerateError, MissingExactError, Report,
                    ReportConfig, convergence_order, interpolant_error,
                    layer_report, make_plan, nodal_error, run_report,
                    timing_rows)

__version__ = "0.1.0"

__all__ = [
    "InputError", "Mesh", "MeshSpec", "DegenerateMeshError", "NoRootError",
    "layer_fraction",
    "shishkin_alpha", "vulanovic_alpha", "bakhvalov_alpha", "build_mesh",
    "SemilinearProblem", "QuasilinearDiffusionProblem", "example1", "example2",
    "make_problem",
    "ZeroPivotError", "thomas_solve",
    "SolveOutcome", "NoConvergenceError",
    "NonpositiveJacobianError", "SingularDiffusionError", "solve",
    "newton_step", "reduced_initial", "residual_for", "interior_source",
    "TwoGridPlan", "TwoGridResult", "interpolant_slopes", "algorithm1",
    "algorithm2", "choose_r",
    "ReportConfig", "Report", "ConvergenceRow", "MissingExactError",
    "DegenerateError", "nodal_error", "interpolant_error", "convergence_order",
    "make_plan", "run_report", "layer_report", "timing_rows",
]
