"""Time-marching wave solvers on the moving level meshes.

Both solvers run one march kernel, the three-level implicit scheme with
the stiffness matrix applied to the unknown frame.  Marching forward the
unknown is u^{m+1}; marching backward it is p^{m-1}, and the backward
march is the forward march on the reversed level order.  Each step
interpolates the two known frames onto the unknown's own nodes and solves
one symmetric tridiagonal system after Dirichlet elimination.

Every level mesh is the same uniform mesh rescaled, so the interior
system of level m is the Toeplitz matrix tridiag(off_m, diag_m, off_m)
with diag_m = 2/h_m + 2 h_m/(3 dt^2) and off_m = -1/h_m + h_m/(6 dt^2).
One orthonormal sine basis S[i, j] = sqrt(2/N) sin(i j pi/N) diagonalizes
all of them, with eigenvalues diag_m + off_m * 2 cos(j pi/N), so a step
solve is two products with S and a division.

A solve builds its level plan once: the spacings ``h`` ``(M+1,)``, the
nodes ``(M+1, N+1)`` and the sine basis, read-only, shared by every
march of the solve.  ``solve_forward``
and ``solve_backward`` take it as the keyword ``plan`` and build their
own when given none; ``game.fixed_point_solve``,
``game.nash_gradient_check`` and ``duality_residual`` build one and pass
it to every march.  Nothing is cached across solves.

A trajectory is one ``(M+1, N+1)`` array whose row m holds the nodal
values of level m at ``plan.nodes[m]``, beside the plan.  A march fills
one preallocated array; the backward march runs on reversed views of
the plan's arrays and of its own.  Initial, terminal and source data are arrays of the
same layout: ``(N+1,)`` for one frame, ``(M+1, N+1)`` for a source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import MovingDomainSpec, TimeGrid, level_nodes
from .fem import ControlSamples, _mass_matvec, boundary_flux_left, interpolate

__all__ = [
    "Trajectory",
    "ForwardProblem",
    "BackwardProblem",
    "solve_forward",
    "solve_backward",
    "duality_residual",
    "assemble_left_boundary",
    "trajectory_l2_distance",
    "trajectory_l2_norm",
]


@dataclass(frozen=True)
class Trajectory:
    """Nodal values of every time level: row m of ``frames`` lives on ``plan.nodes[m]``.

    ``frames`` has shape ``(M+1, N+1)``; ``plan`` is the solve's level
    plan, shared, not copied.
    """

    grid: TimeGrid
    plan: "_LevelPlan" = field(repr=False)
    frames: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = self.plan.nodes.shape
        if shape[0] != self.grid.M + 1 or self.frames.shape != shape:
            raise ValueError(
                f"trajectory of shape {self.frames.shape} on a plan of shape {shape}, "
                f"expected {(self.grid.M + 1, shape[1])}"
            )


@dataclass(frozen=True)
class ForwardProblem:
    """Initial-value problem marched from t = 0.

    ``left_boundary`` prescribes the Dirichlet value at x = 0 for every
    level; the moving endpoint is always 0.  ``ic0`` and ``ic1`` are the
    initial displacement and velocity, ``(N+1,)`` arrays (zero when
    None).  ``source`` is an optional ``(M+1, N+1)`` forcing paired
    against test functions (used by the backward/forward equivalence
    oracle; the production systems are homogeneous).
    """

    left_boundary: np.ndarray = field(repr=False)
    ic0: Optional[np.ndarray] = field(default=None, repr=False)
    ic1: Optional[np.ndarray] = field(default=None, repr=False)
    source: Optional[np.ndarray] = field(default=None, repr=False)


@dataclass(frozen=True)
class BackwardProblem:
    """Terminal-value problem marched from t = T down to 0.

    Boundary values are homogeneous at both ends.  ``source`` is an
    ``(M+1, N+1)`` array; ``terminal0`` and ``terminal1`` are the state
    and its time derivative at t = T, ``(N+1,)`` arrays (zero when
    None).  The last two frames are seeded as terminal0 and
    terminal0 - dt*terminal1, mirroring the forward starting rule.
    """

    source: np.ndarray = field(repr=False)
    terminal0: Optional[np.ndarray] = field(default=None, repr=False)
    terminal1: Optional[np.ndarray] = field(default=None, repr=False)


def _check_shape(name: str, a, shape: tuple):
    if a is not None and np.shape(a) != shape:
        raise ValueError(f"{name} has shape {np.shape(a)}, expected {shape}")


def assemble_left_boundary(controls, grid: TimeGrid) -> np.ndarray:
    """Sum control samples into per-level Dirichlet data at x = 0.

    The final level, which carries no sample of its own, takes the value
    of the last interval so the boundary trace is left-continuous at T.
    """
    left = np.zeros(grid.M + 1)
    for c in controls:
        c.check_aligned(grid)
        left += np.where(c.level_mask(grid), c.values, 0.0)
    left[grid.M] = left[grid.M - 1]
    return left


def _sine_basis(N: int):
    """Orthonormal sine basis of the N-1 interior nodes and 2 cos(j pi/N).

    S[i, j] = sqrt(2/N) sin(i j pi/N) for i, j = 1..N-1 is symmetric and
    its own inverse; S tridiag(b, a, b) S = diag(a + b * 2 cos(j pi/N)).
    The angle i*j is reduced mod 2N while still an exact integer, which
    keeps the sines accurate at large N.
    """
    j = np.arange(1.0, N)
    S = np.multiply.outer(j, j)
    np.fmod(S, 2.0 * N, out=S)
    S *= math.pi / N
    np.sin(S, out=S)
    S *= math.sqrt(2.0 / N)
    return S, 2.0 * np.cos(j * (math.pi / N))


def _toeplitz_solve(S, cos2, diag, off, rhs):
    """Solve tridiag(off, diag, off) x = rhs in the sine basis."""
    return S @ ((S @ rhs) / (diag + off * cos2))


@dataclass(frozen=True)
class _LevelPlan:
    """What a solve's marches share, all read-only: level m's spacing
    ``h[m]`` and nodes ``nodes[m]``, and ``S, cos2 = _sine_basis(N)``."""

    h: np.ndarray = field(repr=False)
    nodes: np.ndarray = field(repr=False)
    S: np.ndarray = field(repr=False)
    cos2: np.ndarray = field(repr=False)


def _level_plan(spec: MovingDomainSpec, grid: TimeGrid, N: int) -> _LevelPlan:
    plan = _LevelPlan(*level_nodes(spec, grid.levels, N), *_sine_basis(N))
    for a in (plan.h, plan.nodes, plan.S, plan.cos2):
        a.flags.writeable = False
    return plan


def _plan_for(plan: Optional[_LevelPlan], spec, grid: TimeGrid, N: int) -> _LevelPlan:
    """``plan``, checked against the grid and N, or a new plan if None."""
    if plan is None:
        return _level_plan(spec, grid, N)
    if plan.nodes.shape != (grid.M + 1, N + 1):
        raise ValueError(
            f"level plan has nodes of shape {plan.nodes.shape}, "
            f"expected {(grid.M + 1, N + 1)}"
        )
    return plan


def _march(h, nodes, S, cos2, dt, x0, v0, left, source, out):
    """Run the three-level implicit scheme over the levels ``h``, ``nodes`` in march order.

    Row 0 of ``out`` is the displacement ``x0`` and row 1 the first-order
    start x0 + dt*v0 interpolated onto the second level; for i >= 1 the
    row i+1 solves

        M (v - 2 f~^i + f~^{i-1})/dt^2 + K v = M s^{i+1}

    on level i+1 with Dirichlet values ``left[i+1]`` at x = 0 and 0 at the
    moving end, where the tilde marks interpolation onto that level's
    nodes.  All data are in march order; ``source`` may be None.
    ``S, cos2`` is the sine basis of the levels' N.  ``out`` is filled in
    place, one row per level.
    """
    out[0] = x0
    out[1] = interpolate(x0 + dt * v0, nodes[1], nodes[0])
    out[:2, 0] = left[:2]
    out[:2, -1] = 0.0
    dt2 = dt * dt
    scale = (h / (6.0 * dt2)).tolist()  # level m's mass rows / dt^2: scale[m] (1, 4, 1)
    off = (-1.0 / h + h / (6.0 * dt2)).tolist()  # its system: tridiag(off, diag, off)
    diag = (2.0 / h + 2.0 * h / (3.0 * dt2)).tolist()
    for i in range(1, len(h) - 1):
        x = nodes[i + 1]
        w = 2.0 * interpolate(out[i], x, nodes[i])
        w -= interpolate(out[i - 1], x, nodes[i - 1])
        if source is not None:
            w += dt2 * source[i + 1]
        rhs = 4.0 * w[1:-1]
        rhs += w[:-2]
        rhs += w[2:]
        rhs *= scale[i + 1]
        rhs[0] -= off[i + 1] * left[i + 1]
        out[i + 1, 0] = left[i + 1]
        out[i + 1, -1] = 0.0
        out[i + 1, 1:-1] = _toeplitz_solve(S, cos2, diag[i + 1], off[i + 1], rhs)


def solve_forward(problem: ForwardProblem, spec: MovingDomainSpec,
                  grid: TimeGrid, N: int, *, plan: Optional[_LevelPlan] = None) -> Trajectory:
    """March the three-level implicit scheme from the initial data.

    Frame 0 is the initial displacement, frame 1 the first-order start
    ic0 + dt*ic1, both carrying the prescribed boundary values; for
    m >= 1 the frame m+1 solves

        M (v - 2 u~^m + u~^{m-1})/dt^2 + K v = M s^{m+1}

    on the level-(m+1) nodes, where the tilde marks interpolation of the
    earlier frames onto them.  ``plan`` is the solve's level plan;
    without one the march builds its own.
    """
    if len(problem.left_boundary) != grid.M + 1:
        raise ValueError(
            f"left boundary has {len(problem.left_boundary)} values for "
            f"{grid.M + 1} levels"
        )
    shape = (grid.M + 1, N + 1)
    _check_shape("ic0", problem.ic0, shape[1:])
    _check_shape("ic1", problem.ic1, shape[1:])
    _check_shape("source", problem.source, shape)
    plan = _plan_for(plan, spec, grid, N)
    ic0 = problem.ic0 if problem.ic0 is not None else np.zeros(N + 1)
    ic1 = problem.ic1 if problem.ic1 is not None else np.zeros(N + 1)
    frames = np.empty(shape)
    _march(plan.h, plan.nodes, plan.S, plan.cos2, grid.dt, ic0, ic1,
           problem.left_boundary, problem.source, frames)
    return Trajectory(grid=grid, plan=plan, frames=frames)


def solve_backward(problem: BackwardProblem, spec: MovingDomainSpec,
                   grid: TimeGrid, N: int, *, plan: Optional[_LevelPlan] = None) -> Trajectory:
    """March the adjoint-type scheme from t = T down to t = 0.

    Frames M and M-1 are seeded from the terminal data; for m from M-1
    down to 1 the frame m-1 solves

        M (p~^{m+1} - 2 p~^m + v)/dt^2 + K v = M s^{m-1}

    on the level-(m-1) nodes with homogeneous Dirichlet values.  This is
    the forward march on the reversed levels with -terminal1 as the
    start velocity.  ``plan`` is as for ``solve_forward``.
    """
    shape = (grid.M + 1, N + 1)
    _check_shape("source", problem.source, shape)
    _check_shape("terminal0", problem.terminal0, shape[1:])
    _check_shape("terminal1", problem.terminal1, shape[1:])
    plan = _plan_for(plan, spec, grid, N)
    term0 = problem.terminal0 if problem.terminal0 is not None else np.zeros(N + 1)
    term1 = problem.terminal1 if problem.terminal1 is not None else np.zeros(N + 1)
    frames = np.empty(shape)
    _march(plan.h[::-1], plan.nodes[::-1], plan.S, plan.cos2, grid.dt, term0, -term1,
           np.zeros(grid.M + 1), problem.source[::-1], frames[::-1])
    return Trajectory(grid=grid, plan=plan, frames=frames)


def _outward_flux(traj: Trajectory, idx: np.ndarray) -> np.ndarray:
    """d/d nu = -d/dx at x = 0 on the trajectory's levels ``idx``, one flux call."""
    return -boundary_flux_left(traj.frames[idx], traj.plan.h[idx])


def _mass_ip(a: np.ndarray, b: np.ndarray, h: float) -> float:
    return float(a @ _mass_matvec(b, h))


def trajectory_l2_distance(a: Trajectory, b: Trajectory) -> float:
    """Space-time L2 distance, rectangle rule in time, mass pairing in space."""
    if a.grid.M != b.grid.M:
        raise ValueError("trajectories live on different time grids")
    acc = 0.0
    for m, h in zip(range(a.grid.M), a.plan.h.tolist()):
        d = a.frames[m] - b.frames[m]
        acc += a.grid.dt * _mass_ip(d, d, h)
    return float(np.sqrt(acc))


def trajectory_l2_norm(a: Trajectory) -> float:
    acc = 0.0
    for m, h in zip(range(a.grid.M), a.plan.h.tolist()):
        acc += a.grid.dt * _mass_ip(a.frames[m], a.frames[m], h)
    return float(np.sqrt(acc))


def duality_residual(forward_bdata: ControlSamples, source: np.ndarray,
                     spec: MovingDomainSpec, grid: TimeGrid, N: int) -> float:
    """Consistency gap between the state/adjoint pairing and the boundary term.

    Drives u-hat forward with the given boundary data and zero initial
    data, drives p backward with the ``(M+1, N+1)`` source, and compares
    the volume pairing sum_m dt <source^m, u-hat^m> against the boundary
    pairing sum_m dt (d p/d nu)(0, t^m) w^m, where d/d nu = -d/dx is the
    outward conormal derivative at the controlled end.  The two agree up
    to the O(dt + h^2) mismatch of the marching pair; the return value is
    their absolute sum over the larger magnitude.
    """
    forward_bdata.check_aligned(grid)
    left = assemble_left_boundary([forward_bdata], grid)
    plan = _level_plan(spec, grid, N)
    u_hat = solve_forward(ForwardProblem(left_boundary=left), spec, grid, N, plan=plan)
    p = solve_backward(BackwardProblem(source=source), spec, grid, N, plan=plan)

    volume = 0.0
    for m, h in zip(range(grid.M), plan.h.tolist()):
        volume += grid.dt * _mass_ip(source[m], u_hat.frames[m], h)
    idx = np.nonzero(forward_bdata.level_mask(grid))[0]
    boundary = grid.dt * float(np.sum(_outward_flux(p, idx) * forward_bdata.values[idx]))
    scale = max(abs(volume), abs(boundary))
    if scale == 0.0:
        return 0.0
    return abs(volume + boundary) / scale
