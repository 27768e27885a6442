"""Chemotaxis-consumption simulation, structural audits and bounded control.

A finite-volume solver for the bilinearly controlled chemotaxis-consumption
system with a smooth density truncation, plus the machinery to audit its
structural guarantees (mass conservation, nonnegativity, cellwise domination
by a linear comparison solution, energy dissipation) and to minimize a
tracking objective over controls of bounded space-time norm by L-BFGS
descent on retracted coefficients.
"""

from .cost import (
    AdmissibilityReport,
    CostBreakdown,
    CostParams,
    DesiredState,
    check_admissible,
    evaluate_J,
    project_ball,
)
from .energy import (
    AuditInfeasibleError,
    EnergyReport,
    FittedConstants,
    IntervalDissipation,
    build_energy_report,
    dissipation_terms,
    energy_inequality_audit,
    fit_constants,
)
from .grid import (
    Field,
    Grid,
    GridMismatchError,
    field_from_csv,
    field_to_csv,
    h1_seminorm,
    integrate,
    spacetime_lp_norm,
)
from .model import (
    ModelParams,
    g_energy,
    power_difference_bound_holds,
    truncate,
    truncate_derivative,
    z_transform,
)
from .opt import (
    InfeasibleBaselineError,
    OptimizationTrace,
    OptimizerConfig,
    OrderingTable,
    adjoint_gradient,
    finite_difference_gradient,
    optimize,
    ordering_experiment,
    reduced_objective,
)
from .presets import control_preset, desired_preset, field_preset
from .sim import (
    ComparisonTrajectory,
    Control,
    PositivityError,
    State,
    StepSizeError,
    StiffnessError,
    Trajectory,
    TrajectoryFormatError,
    simulate,
    solve_comparison,
    step,
    trajectory_from_dir,
    trajectory_to_dir,
    weak_residual,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
