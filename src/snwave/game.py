"""Hierarchical two-control fixed point: state, adjoints and control updates.

One sweep solves the four fields in sequence: the state u driven by the
current controls, its adjoint p (source u - u2, zero terminal data), the
auxiliary forward field psi, and its adjoint phi (source psi).  Both
control updates read the outward conormal derivative d/d nu = -d/dx of
the matching adjoint at the controlled end x = 0:

    follower   w2 = (1/sigma) * d p / d nu     on its segment,
    leader     w1 =             d phi / d nu   on its segment,

and psi's boundary data on the follower segment is (1/sigma) d phi/d nu
of the previous sweep's phi.  The outward-normal orientation is what
makes each update the descent direction for the discrete cost it
minimizes; a finite-difference probe of the follower cost is provided as
an independent check (``nash_gradient_check``).

With zero phi terminal data and a zero initial leader, psi, phi and w1
stay exactly zero at every sweep and the iteration reduces to the
u <-> p loop in the follower control.  ``fixed_point_solve`` skips both
the psi and the phi march of a sweep whenever psi's boundary data and
phi's terminal data are all exactly zero, and uses one shared all-zero
trajectory for both, a read-only broadcast of 0.0 that holds no frame
memory; the scheme maps zero data to exactly zero frames,
so the result is the same.  The skip never applies to a run with
nonzero phi terminal data.

``fixed_point_solve`` and ``nash_gradient_check`` each build one level
plan (see ``solvers``) and pass it to every march they run, and
evaluate the target u2 once, as one ``(M+1, N+1)`` array on the plan's
nodes; the adjoint source is the state's frames minus it.  Each
control update reads the flux of all its segment's levels in one
``boundary_flux_left`` call on the adjoint's rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .geometry import BoundarySegments, MovingDomainSpec, TimeGrid
from .fem import ControlSamples, _mass_matvec, control_l2_norm
from .solvers import (
    BackwardProblem,
    ForwardProblem,
    Trajectory,
    _check_shape,
    _level_plan,
    _outward_flux,
    assemble_left_boundary,
    solve_backward,
    solve_forward,
    trajectory_l2_distance,
)

__all__ = [
    "SNConfig",
    "IterationRecord",
    "SNResult",
    "NashCheckResult",
    "DivergenceError",
    "follower_update",
    "leader_update",
    "stopping_quantity",
    "fixed_point_solve",
    "evaluate_J",
    "evaluate_J2",
    "nash_residual",
    "nash_gradient_check",
]

# Denominators below this are treated as exactly zero in the relative
# stopping criterion.
_ZERO_NORM = 1e-14

TargetLike = Union[float, Callable[[np.ndarray, float], np.ndarray]]


class DivergenceError(RuntimeError):
    """Raised when a sweep produces non-finite values; carries diagnostics."""

    def __init__(self, message: str, payload: dict):
        super().__init__(message)
        self.payload = payload


@dataclass
class SNConfig:
    """Parameters of the fixed-point driver."""

    sigma: float
    epsilon: float = 1e-5
    max_iter: int = 100
    u2: TargetLike = 10.0
    segments: Optional[BoundarySegments] = None
    phi_terminal: Optional[tuple] = None  # (value, velocity) at t = T, (N+1,) arrays or None
    initial_controls: Optional[tuple] = None

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class IterationRecord:
    """One sweep of the log.

    ``du_l2`` is the space-time distance between this sweep's state and
    the previous one (0 at the first sweep); ``dw_l2`` sums the control
    changes produced by this sweep; ``stop_qty`` is the relative change
    of the control pair.
    """

    n: int
    stop_qty: float
    du_l2: float
    dw_l2: float
    J: float
    J2: float


@dataclass
class SNResult:
    """Outcome of a fixed-point run.

    ``u`` and ``p`` are recomputed from the final controls so the stored
    state/adjoint pair is consistent with ``w1``/``w2``; ``psi`` and
    ``phi`` are the last sweep's fields.
    """

    converged: bool
    iterations: int
    w1: ControlSamples
    w2: ControlSamples
    u: Trajectory
    p: Trajectory
    psi: Trajectory
    phi: Trajectory
    log: list = field(default_factory=list)
    iterates: Optional[list] = None  # per-sweep (w1, w2, psi, phi) when requested


def follower_update(p: Trajectory, sigma: float, segments: BoundarySegments,
                    grid: TimeGrid) -> ControlSamples:
    """Best response of the follower: (1/sigma) times p's outward flux at x=0."""
    idx = np.nonzero(segments.follower_mask(grid))[0]
    values = np.zeros(grid.M + 1)
    values[idx] = _outward_flux(p, idx) / sigma
    return ControlSamples(segment=segments.sigma2, values=values)


def leader_update(phi: Trajectory, segments: BoundarySegments,
                  grid: TimeGrid) -> ControlSamples:
    """Leader update: phi's outward flux at x=0 on the leader segment."""
    idx = np.nonzero(segments.leader_mask(grid))[0]
    values = np.zeros(grid.M + 1)
    values[idx] = _outward_flux(phi, idx)
    return ControlSamples(segment=segments.sigma1, values=values)


def _pair_norm(w1: ControlSamples, w2: ControlSamples, grid: TimeGrid) -> float:
    return math.hypot(control_l2_norm(w1, grid), control_l2_norm(w2, grid))


def _diff(a: ControlSamples, b: ControlSamples) -> ControlSamples:
    return ControlSamples(segment=a.segment, values=a.values - b.values)


def stopping_quantity(new: tuple, old: tuple, grid: TimeGrid) -> float:
    """Relative change of the control pair, ||new - old|| / ||new||.

    When the denominator vanishes the quantity is 0 if the numerator
    also vanishes (a genuine fixed point at zero) and +inf otherwise.
    """
    w1n, w2n = new
    w1o, w2o = old
    num = _pair_norm(_diff(w1n, w1o), _diff(w2n, w2o), grid)
    den = _pair_norm(w1n, w2n, grid)
    if den < _ZERO_NORM:
        return 0.0 if num < _ZERO_NORM else math.inf
    return num / den


def _target(u2: TargetLike, nodes: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """The target u2 on every level: row m holds its values at ``nodes[m]``.

    A callable returning a scalar is broadcast to the level like a
    constant target; any other shape but one value per node is an error.
    """
    if not callable(u2):
        return np.full(nodes.shape, float(u2))
    out = np.empty(nodes.shape)
    for m, (x, t) in enumerate(zip(nodes, grid.levels)):
        vals = np.asarray(u2(x, float(t)), dtype=float)
        if vals.ndim != 0 and vals.shape != x.shape:
            raise ValueError(f"target u2 returned shape {vals.shape} at t={t}, "
                             f"expected a scalar or {x.shape}")
        out[m] = vals
    return out


def evaluate_J2(u: Trajectory, w2: ControlSamples, u2: TargetLike, sigma: float,
                grid: TimeGrid, *, target: Optional[np.ndarray] = None) -> float:
    """Follower cost: tracking misfit over the space-time domain plus
    sigma/2 times the squared control norm.

    ``target`` is u2 already evaluated on u's levels, as a solve keeps
    it; without it u2 is evaluated here.
    """
    w2.check_aligned(grid)
    if target is None:
        target = _target(u2, u.plan.nodes, grid)
    track = 0.0
    for m, h in zip(range(grid.M), u.plan.h.tolist()):
        d = u.frames[m] - target[m]
        track += grid.dt * float(d @ _mass_matvec(d, h))
    return 0.5 * track + 0.5 * sigma * control_l2_norm(w2, grid) ** 2


def evaluate_J(w1: ControlSamples, grid: TimeGrid) -> float:
    """Leader cost: half the squared control norm on its segment."""
    return 0.5 * control_l2_norm(w1, grid) ** 2


def _solve_state(w1, w2, spec, grid, N, plan):
    left = assemble_left_boundary([w1, w2], grid)
    return solve_forward(ForwardProblem(left_boundary=left), spec, grid, N, plan=plan)


def _solve_adjoint(u, target, spec, grid, N, plan):
    return solve_backward(BackwardProblem(source=u.frames - target), spec, grid, N, plan=plan)


def fixed_point_solve(config: SNConfig, spec: MovingDomainSpec, grid: TimeGrid,
                      N: int, keep_iterates: bool = False) -> SNResult:
    """Iterate state, adjoints and control updates until the relative
    control change drops below epsilon or the iteration cap is reached.

    Hitting the cap returns a result with ``converged=False``; only
    non-finite values raise (``DivergenceError`` with a diagnostics
    payload) in the state, the controls or a sweep's logged ``stop_qty``,
    ``du_l2``, ``dw_l2`` or ``J2``.  With ``keep_iterates`` the result also
    records every sweep's updated controls and auxiliary fields.
    """
    segments = config.segments or BoundarySegments.disjoint_halves(grid.T)
    plan = _level_plan(spec, grid, N)
    target = _target(config.u2, plan.nodes, grid)

    phi_terminal = (None, None)
    if config.phi_terminal is not None:
        phi_terminal = tuple(None if f is None else np.asarray(f, dtype=float)
                             for f in config.phi_terminal)
        for i, f in enumerate(phi_terminal):
            _check_shape(f"phi_terminal[{i}]", f, (N + 1,))
    zero_chain = None
    if all(f is None or not f.any() for f in phi_terminal):
        zero_chain = Trajectory(grid, plan, np.broadcast_to(0.0, plan.nodes.shape))

    if config.initial_controls is not None:
        w1, w2 = config.initial_controls
        w1.check_aligned(grid)
        w2.check_aligned(grid)
    else:
        w1 = ControlSamples.zeros(segments.sigma1, grid)
        w2 = ControlSamples.zeros(segments.sigma2, grid)

    phi_prev: Optional[Trajectory] = None
    u_prev: Optional[Trajectory] = None
    psi = phi = None
    log: list = []
    iterates: Optional[list] = [] if keep_iterates else None
    converged = False
    iterations = config.max_iter

    def diverged(n: int, what: str, field: str, **details) -> DivergenceError:
        payload = {"iteration": n, "field": field, "sigma": config.sigma,
                   "T": grid.T, "M": grid.M, "N": N, **details}
        return DivergenceError(f"non-finite {what} values at sweep {n}", payload)

    follower_idx = np.nonzero(segments.follower_mask(grid))[0]
    # overflow is reported by the non-finite checks below, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(config.max_iter):
            u = _solve_state(w1, w2, spec, grid, N, plan)
            if not np.isfinite(u.frames[grid.M]).all():
                raise diverged(n, "state", "state")
            p = _solve_adjoint(u, target, spec, grid, N, plan)

            psi_bc = np.zeros(grid.M + 1)
            if phi_prev is not None:
                psi_bc[follower_idx] = _outward_flux(phi_prev, follower_idx) / config.sigma
                psi_bc[grid.M] = psi_bc[grid.M - 1]
            if zero_chain is not None and not psi_bc.any():
                psi = phi = zero_chain
            else:
                psi = solve_forward(ForwardProblem(left_boundary=psi_bc), spec, grid, N,
                                    plan=plan)
                phi = solve_backward(
                    BackwardProblem(source=psi.frames, terminal0=phi_terminal[0],
                                    terminal1=phi_terminal[1]),
                    spec, grid, N, plan=plan,
                )

            w1_new = leader_update(phi, segments, grid)
            w2_new = follower_update(p, config.sigma, segments, grid)
            if not (np.isfinite(w1_new.values).all() and np.isfinite(w2_new.values).all()):
                raise diverged(n, "control", "controls",
                               w1_finite=bool(np.isfinite(w1_new.values).all()),
                               w2_finite=bool(np.isfinite(w2_new.values).all()))

            stop = stopping_quantity((w1_new, w2_new), (w1, w2), grid)
            du = 0.0 if u_prev is None else trajectory_l2_distance(u, u_prev)
            dw = (control_l2_norm(_diff(w1_new, w1), grid)
                  + control_l2_norm(_diff(w2_new, w2), grid))
            J2 = evaluate_J2(u, w2, config.u2, config.sigma, grid, target=target)
            if not all(map(math.isfinite, (stop, du, dw, J2))):
                raise diverged(n, "log", "log", stop_qty=stop, du_l2=du, dw_l2=dw, J2=J2)
            log.append(IterationRecord(n=n, stop_qty=stop, du_l2=du, dw_l2=dw,
                                       J=evaluate_J(w1, grid), J2=J2))

            w1, w2 = w1_new, w2_new
            phi_prev, u_prev = phi, u
            if keep_iterates:
                iterates.append((w1, w2, psi, phi))
            if stop <= config.epsilon:
                converged = True
                iterations = n + 1
                break

        u_final = _solve_state(w1, w2, spec, grid, N, plan)
        p_final = _solve_adjoint(u_final, target, spec, grid, N, plan)
    return SNResult(converged=converged, iterations=iterations, w1=w1, w2=w2,
                    u=u_final, p=p_final, psi=psi, phi=phi, log=log,
                    iterates=iterates)


def nash_residual(w2: ControlSamples, p: Trajectory, sigma: float,
                  segments: BoundarySegments, grid: TimeGrid) -> float:
    """Relative defect of the follower characterization at a candidate point.

    Measures || sigma*w2 - dp/dnu ||_{L2(segment)} / (sigma ||w2||); zero
    exactly at the follower's best response to the state that produced p.
    """
    idx = np.nonzero(segments.follower_mask(grid))[0]
    r = sigma * w2.values[idx] - _outward_flux(p, idx)
    defect = grid.dt * float(np.sum(r * r))
    denom = sigma * control_l2_norm(w2, grid)
    if denom == 0.0:
        return math.sqrt(defect)
    return math.sqrt(defect) / denom


@dataclass(frozen=True)
class NashCheckResult:
    """Finite-difference probe of the follower cost around a candidate point.

    ``fd`` holds centered-difference directional derivatives of the
    follower cost, ``analytic`` the adjoint-flux pairing for the same
    directions.  ``max_rel_discrepancy`` is the largest |fd - analytic|
    over max(|fd|, |analytic|, sigma*||w2||*||direction||), and
    ``max_scaled_analytic`` the largest |analytic| under the same scale;
    both are small at a true equilibrium.
    """

    max_rel_discrepancy: float
    max_scaled_analytic: float
    fd: np.ndarray
    analytic: np.ndarray
    scale: float


def nash_gradient_check(w1: ControlSamples, w2: ControlSamples, config: SNConfig,
                        spec: MovingDomainSpec, grid: TimeGrid, N: int,
                        n_directions: int = 5, seed: int = 0) -> NashCheckResult:
    """Compare brute-force directional derivatives of the follower cost
    against the adjoint-flux pairing.

    Directions are smooth seeded sine profiles supported on the follower
    segment, normalized to unit control norm.  The centered difference
    uses delta = 1e-4 * max(1, ||w2||); the analytic pairing for a
    direction d is sum_m dt (sigma w2_m - (dp/dnu)_m) d_m.
    """
    segments = config.segments or BoundarySegments.disjoint_halves(grid.T)
    mask = segments.follower_mask(grid)
    idx = np.nonzero(mask)[0]
    if len(idx) < 2:
        raise ValueError("follower segment holds fewer than 2 time levels")

    plan = _level_plan(spec, grid, N)
    u = _solve_state(w1, w2, spec, grid, N, plan)
    target = _target(config.u2, plan.nodes, grid)
    p = _solve_adjoint(u, target, spec, grid, N, plan)
    flux = _outward_flux(p, idx)  # dp/dnu at x=0

    a, b = segments.sigma2
    s = (grid.levels[idx] - a) / (b - a)
    rng = np.random.default_rng(seed)
    w2_norm = control_l2_norm(w2, grid)
    delta = 1e-4 * max(1.0, w2_norm)

    fd = np.empty(n_directions)
    analytic = np.empty(n_directions)
    rels = np.empty(n_directions)
    scale = 0.0
    for d in range(n_directions):
        coefs = rng.standard_normal(3)
        profile = sum(c * np.sin((j + 1) * np.pi * s) for j, c in enumerate(coefs))
        dvals = np.zeros(grid.M + 1)
        dvals[idx] = profile
        direction = ControlSamples(segment=segments.sigma2, values=dvals)
        dnorm = control_l2_norm(direction, grid)
        direction = ControlSamples(segment=segments.sigma2, values=dvals / dnorm)

        cost = []
        for sgn in (+1.0, -1.0):
            w2_pert = ControlSamples(segment=segments.sigma2,
                                     values=w2.values + sgn * delta * direction.values)
            u_pert = _solve_state(w1, w2_pert, spec, grid, N, plan)
            cost.append(evaluate_J2(u_pert, w2_pert, config.u2, config.sigma, grid,
                                    target=target))
        fd[d] = (cost[0] - cost[1]) / (2.0 * delta)
        analytic[d] = grid.dt * float(
            np.sum((config.sigma * w2.values[idx] - flux) * direction.values[idx])
        )
        scale = config.sigma * w2_norm  # directions have unit norm
        rels[d] = abs(fd[d] - analytic[d]) / max(abs(fd[d]), abs(analytic[d]), scale)

    scaled_ana = np.abs(analytic) / max(scale, _ZERO_NORM)
    return NashCheckResult(
        max_rel_discrepancy=float(np.max(rels)),
        max_scaled_analytic=float(np.max(scaled_ana)),
        fd=fd, analytic=analytic, scale=scale,
    )
