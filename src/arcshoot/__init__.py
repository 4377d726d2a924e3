"""Indirect shooting for control-affine problems with bang, constrained and singular arcs."""

from .arc_structure import ArcKind, ArcStructure, arcs_of, detect_structure
from .direct_init import DirectSolveConfig, direct_solve
from .problem_def import (ProblemDef, bracket_f1_f0, check_first_order, gamma_control,
                          gamma_gradient, second_brackets)
from .problems import get_problem, problem_names
from .second_order import assemble_omega, check_positivity, linearized_matrices
from .shooting import (
    ConvergenceReport,
    ShootingVector,
    fd_jacobian,
    gauss_newton,
    load_omega,
    save_omega,
    shooting_function,
    validate_solution,
)
from .tp_dynamics import (
    TPTrajectory,
    arc_controls,
    arc_hamiltonian,
    constraint_multiplier_density,
    propagate_arc,
)

__all__ = [
    "ArcKind",
    "ArcStructure",
    "ConvergenceReport",
    "DirectSolveConfig",
    "ProblemDef",
    "ShootingVector",
    "TPTrajectory",
    "arc_controls",
    "arc_hamiltonian",
    "arcs_of",
    "assemble_omega",
    "bracket_f1_f0",
    "check_first_order",
    "check_positivity",
    "constraint_multiplier_density",
    "detect_structure",
    "direct_solve",
    "fd_jacobian",
    "gamma_control",
    "gamma_gradient",
    "gauss_newton",
    "get_problem",
    "linearized_matrices",
    "load_omega",
    "problem_names",
    "propagate_arc",
    "save_omega",
    "second_brackets",
    "shooting_function",
    "validate_solution",
]

__version__ = "0.1.0"
