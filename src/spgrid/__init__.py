"""Layer-adapted finite differences and two-grid solvers for singularly
perturbed reaction-diffusion two-point boundary value problems."""

from .mesh import (DegenerateMeshError, Mesh, MeshSpec, NoRootError,
                   bakhvalov_alpha, build_mesh, format_nodes, layer_fraction,
                   shishkin_alpha, vulanovic_alpha, write_nodes)
from .problems import (QuasilinearDiffusionProblem, SemilinearProblem,
                       check_stability, example1, example2, log_transform,
                       make_problem)
from .linsolve import (NonpositiveCoefficientError, TridiagonalSystem,
                       ZeroPivotError, assemble, residual_norm, solve_linear,
                       thomas_solve)
from .newton import (NewtonConfig, NoConvergenceError, NonpositiveJacobianError,
                     SingularDiffusionError, SolveOutcome, jacobian_fd_gap,
                     newton_step, reduced_initial, residual_for, solve)
from .twogrid import (OutOfDomainError, TwoGridPlan, TwoGridResult, algorithm1,
                      algorithm2, choose_r, interpolant_slopes, interpolate)
from .bench import (ConvergenceRow, DegenerateError, MissingExactError, Report,
                    ReportConfig, convergence_order, interpolant_error,
                    layer_report, nodal_error, run_algorithm, run_report,
                    timing_comparison)

__version__ = "0.1.0"

__all__ = [
    "Mesh", "MeshSpec", "DegenerateMeshError", "NoRootError",
    "shishkin_alpha", "vulanovic_alpha", "bakhvalov_alpha", "build_mesh",
    "layer_fraction", "format_nodes", "write_nodes",
    "SemilinearProblem", "QuasilinearDiffusionProblem", "example1", "example2",
    "log_transform", "make_problem", "check_stability",
    "TridiagonalSystem", "NonpositiveCoefficientError", "ZeroPivotError",
    "assemble", "thomas_solve", "solve_linear", "residual_norm",
    "NewtonConfig", "SolveOutcome", "NoConvergenceError",
    "NonpositiveJacobianError", "SingularDiffusionError", "solve",
    "newton_step", "reduced_initial", "residual_for", "jacobian_fd_gap",
    "TwoGridPlan", "TwoGridResult", "OutOfDomainError", "interpolate",
    "interpolant_slopes", "algorithm1", "algorithm2", "choose_r",
    "ReportConfig", "Report", "ConvergenceRow", "MissingExactError",
    "DegenerateError", "nodal_error", "interpolant_error", "convergence_order",
    "run_algorithm", "run_report", "layer_report", "timing_comparison",
]
