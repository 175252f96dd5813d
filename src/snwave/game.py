"""Hierarchical two-control fixed point: one sweep map and the loop around it.

A solve builds one private sweep map, ``_Sweep``, holding the level plan
(see ``solvers``), the target u2 evaluated once on the plan's nodes (a
read-only broadcast when u2 is a constant), the shared zero trajectory,
the leader's and the follower's level indices, sigma and the phi
terminal data.  It maps the state ``(w1, w2, psi_bc)``, bare ``(M+1,)``
arrays that are zero off their segments, to the next state and the
fields u, psi and phi of the sweep:

    u  forward from the trace of w1 + w2,    w1'     =           d phi/d nu,
    p  backward from source u - u2,          w2'     = (1/sigma) d p/d nu,
    psi  forward from the trace of psi_bc,   psi_bc' = (1/sigma) d phi/d nu,
    phi  backward from source psi and the phi terminal data,

with w1' on the leader's segment, w2' and psi_bc' on the follower's, and
d/d nu = -d/dx the outward conormal derivative at x = 0: the orientation
that makes each update the descent direction of the cost it minimizes
(``nash_gradient_check`` probes the follower cost by finite
differences).  The leader chain ``psi_bc -> phi -> (w1', psi_bc')``
reads neither w1 nor w2, so the map is block lower-triangular.
``fixed_point_solve`` is the loop: call the map, check, log.  Its
inputs are checked before the first march: a segment holding no level
of the grid, a non-finite constant u2, a non-finite value of a callable
u2 and non-finite phi terminal data are ``ValueError``s naming the
input, not divergences.  ``evaluate_J2`` and ``nash_residual`` read the
grid of the trajectory they are given.

Within a sweep u and psi are independent, and so are p and phi, and all
four share the level plan.  Each sweep makes one forward and one
backward march, and their data decide what a march carries (see
``solvers`` for complex marches):

- forward from the trace of w1 + w2, plus i times that of psi_bc when
  psi_bc is nonzero: u, or u + i psi;
- backward from the source u - u2, plus i psi when psi is not the zero
  trajectory or phi has terminal data (then i times phi's): p, or
  p + i phi.

u, psi, p and phi are the real and imaginary views of the two arrays; a
real march's imaginary view is the zero trajectory.  The leader chain's
bits do not depend on the controls.  The backward march forms its source
in the frames it fills (``solvers._march_backward``), and the map reads
p only for w2': it returns ``(u, psi, phi)``.

The map has one entry per direction: ``_Sweep.state`` marches forward
(``forward_half`` splits it into u and psi) and ``_Sweep.adjoint``
backward from the source u - u2.  A field is read one way each: its
outward flux on a segment's levels by ``solvers._segment_flux``, which
gives the three updates and ``nash_residual``'s defect, and its
space-time L2 form by ``solvers._squared_distance``, which gives du_l2
and the tracking term of J2.

A solve holds its level plan and the frames the next step reads.  The
loop runs the map's two halves itself and takes du_l2 between them,
then drops the previous u; it drops the previous psi and phi before the
next sweep marches.  So a sweep peaks at the plan and two frames, each
complex when the leader chain is live (the two u's, then the new u and
the backward frames), plus one difference block of at most 128 KB,
which du_l2 and J2 form in turn.  After the last sweep psi, then phi, is
copied into frames of its own and the array it viewed is freed, before
the final state march: a result holds no sweep's complex array.  A
result is frozen with read-only arrays
and stores the log, a tuple, and the sweep map once: its ``iterations``
is the log's length, its ``segments`` and ``target`` the sweep's.

The scheme maps all-zero data to exactly zero frames, so the map marches
no forward field whose boundary data are all zero: it is the solve's one
read-only zero trajectory.  With zero phi terminal data psi, phi and w1
stay exactly zero and the sweep is the u <-> p loop in the follower
control, two real marches.  The final state is one real march, and so
is ``SNResult.p``, marched by the map on its first read, since most runs
never read it; ``solve_forward`` and ``solve_backward`` themselves
always march.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .geometry import (BoundarySegments, MovingDomainSpec, TimeGrid, _check_integer,
                       _segment_levels)
from .fem import _check_control, _check_shape, _segment_norm
from .solvers import (
    _SWEEP_ERRSTATE,
    Trajectory,
    _LevelPlan,
    _left_trace,
    _level_plan,
    _march_backward,
    _march_forward,
    _segment_flux,
    _squared_distance,
    trajectory_l2_distance,
)

__all__ = [
    "SNConfig",
    "IterationRecord",
    "SNResult",
    "NashCheckResult",
    "DivergenceError",
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


@dataclass(frozen=True)
class SNConfig:
    """Parameters of the fixed-point driver, checked once and frozen."""

    sigma: float
    epsilon: float = 1e-5
    max_iter: int = 100
    u2: TargetLike = 10.0
    segments: Optional[BoundarySegments] = None
    phi_terminal: Optional[tuple] = None  # (value, velocity) at t = T, (N+1,) arrays or None

    def __post_init__(self):
        for name in ("sigma", "epsilon"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        _check_integer("max_iter", self.max_iter)
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not (callable(self.u2) or math.isfinite(self.u2)):
            raise ValueError(f"u2 must be finite, got {self.u2}")
        pair = self.phi_terminal
        if pair is not None and not (isinstance(pair, (tuple, list)) and len(pair) == 2):
            size = f" of length {len(pair)}" if isinstance(pair, (tuple, list)) else ""
            raise ValueError(f"phi_terminal must be None or a (value, velocity) pair, "
                             f"got a {type(pair).__name__}{size}")


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


def _target(u2: TargetLike, plan: _LevelPlan) -> np.ndarray:
    """The target u2 on every level of ``plan``: row m holds its values at
    ``plan.nodes[m]``, made once for a callable u2.

    A constant target is a read-only broadcast of its value, which holds
    no frame memory.  A callable returning a scalar is broadcast to the
    level like a constant target; any other shape but one value per node,
    and any non-finite value, is an error.
    """
    if not callable(u2):
        if not math.isfinite(u2):
            raise ValueError(f"u2 must be finite, got {u2}")
        return np.broadcast_to(float(u2), plan.shape)
    out = np.empty(plan.shape)
    for m, (x, t) in enumerate(zip(plan.nodes, plan.grid.levels)):
        vals = np.asarray(u2(x, float(t)), dtype=float)
        if vals.ndim != 0 and vals.shape != x.shape:
            raise ValueError(f"target u2 returned shape {vals.shape} at t={t}, "
                             f"expected a scalar or {x.shape}")
        if not np.isfinite(vals).all():
            raise ValueError(f"target u2 returned a non-finite value at t={t}")
        out[m] = vals
    return out


def _imaginary(f: np.ndarray) -> np.ndarray:
    """``f`` as the imaginary part of a complex array with zero real part."""
    z = np.zeros(len(f), complex)
    z.imag = f
    return z


def _control_change(new: tuple, old: tuple, idx: tuple, dt: float) -> tuple:
    """The log's ``(stop_qty, dw_l2)`` for the update ``old -> new`` of a
    (leader, follower) pair of bare arrays with level indices ``idx``.

    ``stop_qty`` is ||new - old|| / ||new||; when the denominator vanishes
    it is 0 if the numerator also does (a fixed point at zero), else +inf.
    ``dw_l2`` sums the norms of the two changes.
    """
    changes = [_segment_norm(a - b, i, dt) for a, b, i in zip(new, old, idx)]
    num = math.hypot(*changes)
    den = math.hypot(*(_segment_norm(a, i, dt) for a, i in zip(new, idx)))
    dw = changes[0] + changes[1]
    if den < _ZERO_NORM:
        return (0.0 if num < _ZERO_NORM else math.inf), dw
    return num / den, dw


def _follower_cost(u: Trajectory, w2: np.ndarray, target: np.ndarray, sigma: float,
                   levels, dt: float) -> float:
    """J2 of the state ``u`` and the bare follower control ``w2`` on its
    segment's ``levels``, with u2 given as ``target`` on u's levels."""
    track = _squared_distance(u.frames, target, u.plan)
    return 0.5 * track + 0.5 * sigma * _segment_norm(w2, levels, dt) ** 2


@dataclass(frozen=True)
class _Sweep:
    """The sweep map of one solve (module docstring), built by ``of``.

    ``sweep(w1, w2, psi_bc)`` returns ``((w1', w2', psi_bc'), (u, psi,
    phi))``: its forward half, which returns ``(u, psi)``, then its
    backward half on them.  ``nash_gradient_check`` and ``SNResult.p``
    reuse its ``state`` and ``adjoint``.  ``phi_terminal`` holds phi's
    nonzero terminal data times i, as ``solve_backward``'s keywords; it
    is empty for zero data.
    """

    plan: _LevelPlan
    target: np.ndarray
    zero: Trajectory
    segments: BoundarySegments
    leader: np.ndarray  # level indices of the leader's segment
    follower: np.ndarray  # level indices of the follower's segment
    sigma: float
    phi_terminal: dict

    @classmethod
    def of(cls, config: SNConfig, spec: MovingDomainSpec, grid: TimeGrid, N: int) -> "_Sweep":
        segments = config.segments or BoundarySegments.disjoint_halves(grid.T)
        leader = _segment_levels("sigma1", segments.sigma1, grid)
        follower = _segment_levels("sigma2", segments.sigma2, grid)
        plan = _level_plan(spec, grid, N)
        terminal = {}
        for i, f in enumerate(config.phi_terminal or ()):
            if f is not None:
                f = np.asarray(f, dtype=float)
                _check_shape(f"phi_terminal[{i}]", f, (N + 1,))
                if not np.isfinite(f).all():
                    raise ValueError(f"phi_terminal[{i}] holds a non-finite value")
                terminal[f"terminal{i}"] = _imaginary(f)  # phi is the imaginary part of p + i phi
        if not any(f.any() for f in terminal.values()):
            terminal = {}
        zero = Trajectory(plan, np.broadcast_to(0.0, plan.shape))
        return cls(plan, _target(config.u2, plan), zero, segments, leader, follower,
                   config.sigma, terminal)

    def state(self, w1: np.ndarray, w2: np.ndarray,
              psi_bc: Optional[np.ndarray] = None) -> Trajectory:
        """The forward march from rest with the trace of w1 + w2: u.  With
        a nonzero ``psi_bc`` it is the complex march u + i psi, plus i times
        psi_bc's trace.  Zero data need no march: the zero trajectory."""
        left = _left_trace(w1, w2)
        if psi_bc is not None and psi_bc.any():
            left = left + _imaginary(_left_trace(psi_bc))
        if not left.any():
            return self.zero
        return _march_forward(left, self.plan)

    def adjoint(self, u: Trajectory, psi: Optional[Trajectory] = None, **terminal) -> Trajectory:
        """The backward march from the source u - target: p.  With a nonzero
        ``psi`` or with phi's terminal data (times i) it is the complex
        march p + i phi from the source (u - target) + i psi.  The source is
        formed in the frames the march fills."""
        if psi is None:
            psi = self.zero
        paired = psi is not self.zero or bool(terminal)
        frames = np.empty(self.plan.shape, complex if paired else float)
        np.subtract(u.frames, self.target, out=frames.real)
        if paired:
            frames.imag = psi.frames
        return _march_backward(frames, frames, self.plan, **terminal)

    def __call__(self, w1: np.ndarray, w2: np.ndarray, psi_bc: np.ndarray):
        return self.backward_half(*self.forward_half(w1, w2, psi_bc))

    def forward_half(self, w1: np.ndarray, w2: np.ndarray, psi_bc: np.ndarray) -> tuple:
        """The sweep's forward march: ``(u, psi)``."""
        return self._parts(self.state(w1, w2, psi_bc))

    def backward_half(self, u: Trajectory, psi: Trajectory) -> tuple:
        """The sweep's backward march from the forward half's ``(u, psi)``:
        ``((w1', w2', psi_bc'), (u, psi, phi))``."""
        p, phi = self._parts(self.adjoint(u, psi, **self.phi_terminal))
        nxt = (_segment_flux(phi, self.leader),
               _segment_flux(p, self.follower) / self.sigma,
               _segment_flux(phi, self.follower) / self.sigma)
        return nxt, (u, psi, phi)

    def own(self, f: Trajectory) -> Trajectory:
        """``f`` on frames of its own, so the march array it views can be
        freed; the zero trajectory as it is."""
        return f if f is self.zero else Trajectory(self.plan, f.frames.copy())

    def _parts(self, f: Trajectory) -> tuple:
        """The real and the imaginary part of a march, as two trajectories;
        a real march's imaginary part is the zero trajectory."""
        if f.frames.dtype.kind != "c":
            return f, self.zero
        return Trajectory(self.plan, f.frames.real), Trajectory(self.plan, f.frames.imag)


@dataclass(frozen=True)
class SNResult:
    """Outcome of a fixed-point run, frozen, its arrays read-only.

    ``w1`` and ``w2`` are the final controls, bare ``(M+1,)`` arrays that
    are zero off their segments, the leader's ``segments.sigma1`` and the
    follower's ``segments.sigma2``.  ``u`` and ``p`` are recomputed from
    them so the stored state/adjoint pair is consistent with ``w1``/``w2``;
    ``psi`` and ``phi`` are the last sweep's fields, on frames of their
    own: with a live leader chain, copies of the imaginary parts of that
    sweep's two complex marches.  ``p`` is marched on its first read by
    the solve's sweep map, from ``u`` and ``target`` (u2 on u's levels),
    and kept.
    ``iterations``, ``segments`` and ``target`` are read from ``log``, a
    tuple, and the sweep map, which hold them once.
    """

    converged: bool
    w1: np.ndarray
    w2: np.ndarray
    u: Trajectory
    psi: Trajectory
    phi: Trajectory
    _sweep: _Sweep = field(repr=False, compare=False)
    log: tuple = ()

    def __post_init__(self):
        for a in (self.w1, self.w2, self.u.frames, self.psi.frames, self.phi.frames):
            a.flags.writeable = False

    @property
    def iterations(self) -> int:
        return len(self.log)

    @property
    def segments(self) -> BoundarySegments:
        return self._sweep.segments

    @property
    def target(self) -> np.ndarray:
        return self._sweep.target

    @cached_property
    def p(self) -> Trajectory:
        """The adjoint of ``u``: source u - target, zero terminal data."""
        with np.errstate(**_SWEEP_ERRSTATE):
            p = self._sweep.adjoint(self.u)
        p.frames.flags.writeable = False
        return p


def evaluate_J2(u: Trajectory, w2: np.ndarray, segment: tuple, u2: TargetLike,
                sigma: float) -> float:
    """Follower cost: tracking misfit over the space-time domain plus
    sigma/2 times the squared norm of the control ``w2`` on ``segment``,
    on u's grid, with u2 evaluated on u's levels."""
    grid = u.grid
    _check_control("w2", w2, grid)
    levels = _segment_levels("segment", segment, grid)
    return _follower_cost(u, w2, _target(u2, u.plan), sigma, levels, grid.dt)


def evaluate_J(w1: np.ndarray, segment: tuple, grid: TimeGrid) -> float:
    """Leader cost: half the squared norm of the control ``w1`` on ``segment``."""
    _check_control("w1", w1, grid)
    return 0.5 * _segment_norm(w1, _segment_levels("segment", segment, grid), grid.dt) ** 2


def fixed_point_solve(config: SNConfig, spec: MovingDomainSpec, grid: TimeGrid,
                      N: int) -> SNResult:
    """Iterate the sweep map from zero controls until the relative
    control change drops below epsilon or the iteration cap is reached.

    Hitting the cap returns a result with ``converged=False``; only
    non-finite values raise (``DivergenceError`` with a diagnostics
    payload) in the state, the controls or a sweep's logged ``stop_qty``,
    ``du_l2``, ``dw_l2`` or ``J2``.
    """
    sweep = _Sweep.of(config, spec, grid, N)
    idx, dt, M = (sweep.leader, sweep.follower), grid.dt, grid.M
    w1 = w2 = psi_bc = np.zeros(M + 1)
    u_prev = None
    log: list = []
    converged = False

    def diverged(n: int, what: str, field: str, **details) -> DivergenceError:
        payload = {"iteration": n, "field": field, "sigma": config.sigma,
                   "T": grid.T, "M": M, "N": N, **details}
        return DivergenceError(f"non-finite {what} values at sweep {n}", payload)

    with np.errstate(**_SWEEP_ERRSTATE):
        for n in range(config.max_iter):
            psi = phi = None  # the next sweep reads only u_prev
            u, psi = sweep.forward_half(w1, w2, psi_bc)
            if not np.isfinite(u.frames[M]).all():
                raise diverged(n, "state", "state")
            du = 0.0 if u_prev is None else trajectory_l2_distance(u, u_prev)
            u_prev = None  # the backward march holds only u and its own frames
            (w1_new, w2_new, psi_bc), (u, psi, phi) = sweep.backward_half(u, psi)
            finite = [bool(np.isfinite(w).all()) for w in (w1_new, w2_new)]
            if not all(finite):
                raise diverged(n, "control", "controls", w1_finite=finite[0], w2_finite=finite[1])
            stop, dw = _control_change((w1_new, w2_new), (w1, w2), idx, dt)
            J2 = _follower_cost(u, w2, sweep.target, config.sigma, sweep.follower, dt)
            if not all(map(math.isfinite, (stop, du, dw, J2))):
                raise diverged(n, "log", "log", stop_qty=stop, du_l2=du, dw_l2=dw, J2=J2)
            log.append(IterationRecord(n=n, stop_qty=stop, du_l2=du, dw_l2=dw,
                                       J=0.5 * _segment_norm(w1, sweep.leader, dt) ** 2, J2=J2))

            w1, w2, u_prev = w1_new, w2_new, u
            if stop <= config.epsilon:
                converged = True
                break

        u = u_prev = None  # psi, then phi, take frames of their own; each sweep array is freed
        psi = sweep.own(psi)
        phi = sweep.own(phi)
        u_final = sweep.state(w1, w2)
    return SNResult(converged, w1, w2, u=u_final, psi=psi, phi=phi, _sweep=sweep, log=tuple(log))


def nash_residual(w2: np.ndarray, p: Trajectory, sigma: float,
                  segments: BoundarySegments) -> float:
    """Relative defect of the follower characterization at a candidate point.

    Measures || sigma*w2 - dp/dnu ||_{L2(segment)} / (sigma ||w2||) on the
    follower's segment ``segments.sigma2`` of p's grid; zero exactly at
    the follower's best response to the state that produced p.
    """
    grid = p.grid
    _check_control("w2", w2, grid)
    idx = _segment_levels("sigma2", segments.sigma2, grid)
    defect = _segment_norm(sigma * w2 - _segment_flux(p, idx), idx, grid.dt)
    denom = sigma * _segment_norm(w2, idx, grid.dt)
    return defect if denom == 0.0 else defect / denom


@dataclass(frozen=True)
class NashCheckResult:
    """Finite-difference probe of the follower cost around a candidate point.

    ``fd`` holds centered-difference directional derivatives of the
    follower cost, ``analytic`` the adjoint-flux pairing for the same
    directions.  ``max_rel_discrepancy`` is the largest |fd - analytic|
    over max(|fd|, |analytic|, sigma*||w2||*||direction||), 0 where
    that maximum is 0, and
    ``max_scaled_analytic`` the largest |analytic| under the same scale;
    both are small at a true equilibrium.
    """

    max_rel_discrepancy: float
    max_scaled_analytic: float
    fd: np.ndarray
    analytic: np.ndarray
    scale: float


def nash_gradient_check(w1: np.ndarray, w2: np.ndarray, config: SNConfig,
                        spec: MovingDomainSpec, grid: TimeGrid, N: int,
                        n_directions: int = 5, seed: int = 0) -> NashCheckResult:
    """Compare brute-force directional derivatives of the follower cost
    against the adjoint-flux pairing.

    ``w1`` and ``w2`` are ``(M+1,)`` arrays, taken as zero off the
    leader's and the follower's segments (``config.segments``, or the
    disjoint halves of (0, T) when it is None).
    Directions are smooth seeded sine profiles supported on the follower
    segment, normalized to unit control norm.  The centered difference
    uses delta = 1e-4 * max(1, ||w2||); the analytic pairing for a
    direction d is sum_m dt (sigma w2_m - (dp/dnu)_m) d_m.  A non-finite
    derivative on either side raises ``DivergenceError`` with field
    ``"nash_check"``.
    """
    _check_integer("n_directions", n_directions)
    if n_directions < 1:
        raise ValueError(f"n_directions must be at least 1, got {n_directions}")
    _check_control("w1", w1, grid)
    _check_control("w2", w2, grid)
    sweep = _Sweep.of(config, spec, grid, N)
    idx, sigma, dt = sweep.follower, config.sigma, grid.dt
    if len(idx) < 2:
        raise ValueError("follower segment holds fewer than 2 time levels")
    v1, v2 = np.zeros(grid.M + 1), np.zeros(grid.M + 1)
    v1[sweep.leader] = w1[sweep.leader]
    v2[idx] = w2[idx]

    a, b = sweep.segments.sigma2
    s = (grid.levels[idx] - a) / (b - a)
    rng = np.random.default_rng(seed)
    w2_norm = _segment_norm(w2, idx, dt)
    delta = 1e-4 * max(1.0, w2_norm)
    scale = sigma * w2_norm  # directions have unit norm

    fd = np.empty(n_directions)
    analytic = np.empty(n_directions)
    rels = np.empty(n_directions)
    with np.errstate(**_SWEEP_ERRSTATE):
        flux = _segment_flux(sweep.adjoint(sweep.state(v1, v2)), idx)
        for d in range(n_directions):
            coefs = rng.standard_normal(3)
            direction = np.zeros(grid.M + 1)
            direction[idx] = sum(c * np.sin((j + 1) * np.pi * s) for j, c in enumerate(coefs))
            direction /= _segment_norm(direction, idx, dt)

            cost = [_follower_cost(sweep.state(v1, w), w, sweep.target, sigma, idx, dt)
                    for w in (v2 + delta * direction, v2 - delta * direction)]
            fd[d] = (cost[0] - cost[1]) / (2.0 * delta)
            analytic[d] = dt * float(np.sum((sigma * v2[idx] - flux[idx]) * direction[idx]))
            # a zero denominator means fd and analytic are both exactly 0
            denom = max(abs(fd[d]), abs(analytic[d]), scale)
            rels[d] = abs(fd[d] - analytic[d]) / denom if denom > 0.0 else 0.0

    if not (np.isfinite(fd).all() and np.isfinite(analytic).all()):
        raise DivergenceError("non-finite finite-difference check values",
                              {"field": "nash_check", "sigma": sigma, "T": grid.T,
                               "M": grid.M, "N": N})
    scaled_ana = np.abs(analytic) / max(scale, _ZERO_NORM)
    return NashCheckResult(
        max_rel_discrepancy=float(np.max(rels)),
        max_scaled_analytic=float(np.max(scaled_ana)),
        fd=fd, analytic=analytic, scale=scale,
    )
