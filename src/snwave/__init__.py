"""Stackelberg-Nash boundary control of the 1D wave equation on an
expanding domain: moving meshes, implicit wave marching, adjoint-driven
control updates and the experiment harness around them."""

from .geometry import (
    BoundarySegments,
    MovingDomainSpec,
    SpaceTimeMeshStats,
    TimeGrid,
    alpha,
    analytic_perimeter,
    build_time_grid,
    compute_Tc,
    trapezoid_stats,
)
from .fem import (
    boundary_flux_left,
    control_l2_norm,
    interpolate,
)
from .solvers import (
    Trajectory,
    duality_residual,
    solve_backward,
    solve_forward,
    trajectory_l2_distance,
    trajectory_l2_norm,
)
from .game import (
    DivergenceError,
    IterationRecord,
    NashCheckResult,
    SNConfig,
    SNResult,
    evaluate_J,
    evaluate_J2,
    fixed_point_solve,
    nash_gradient_check,
    nash_residual,
)

__version__ = "0.1.0"
