"""Hierarchical two-control fixed point: one sweep map and the loop around it.

A solve builds one private sweep map, ``_Sweep``, holding the level plan
(the scheme, see ``solvers``), the target ``plan.target(u2)``, the
leader's and the follower's level indices, sigma and the phi terminal
data.  It maps the state ``(w1, w2, psi_bc)``, bare
``(M+1,)`` arrays that are zero off their segments, to the next state
and the fields u, psi and phi of the sweep:

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
``fixed_point_solve`` builds the map (``_Sweep.of``) and runs the loop,
``_iterate``: call the map, check, log.  Its inputs are checked before
the first march: a segment holding no level of the grid, a complex or
non-finite constant u2, a complex or non-finite value of a callable u2
and complex or non-finite phi terminal data are ``ValueError``s naming
the input, not divergences.  ``evaluate_J2`` and ``nash_residual`` read
the grid of the trajectory they are given, whose frames must be real.

Within a sweep u and psi are independent, and so are p and phi, and all
four share the level plan.  Each sweep makes one forward and one
backward march, and their data decide what a march carries (see
``solvers`` for complex marches):

- forward from the trace of w1 + w2, plus i times that of psi_bc when
  psi_bc is nonzero: u, or u + i psi;
- backward from the source u - u2, plus i psi when psi is not
  ``plan.zero`` or phi has terminal data (then i times phi's): p, or
  p + i phi.

u, psi, p and phi are the real and imaginary views of the two arrays; a
real march's imaginary view is ``plan.zero``.  The leader chain's
bits do not depend on the controls.  The backward march forms its source
in the frames it fills (``plan.backward``), and the map reads
p only for w2': it returns the frames ``(u, psi, phi)``.

The game does no grid arithmetic.  The map and the loop reach the march
only through the plan's array contract (``solvers`` docstring) and the
grid's ``trace``, ``control_inner`` and ``control_norm`` (``geometry``);
``_iterate`` runs a ``_Sweep`` on any plan and grid with these members.
They work on frames; a ``Trajectory`` is built only for a result.
``_Sweep.state`` calls ``plan.forward`` on the trace (``forward_half``
splits it into u and psi) and ``_Sweep.adjoint`` ``plan.backward`` from
the source u - u2.  A field is read one way each: its outward flux on a
segment's levels by ``plan.flux``, which gives the three updates and
``nash_residual``'s defect, and its space-time L2 form by
``plan.squared_distance``, which gives du_l2 (its square root) and J2's
tracking term.  A control is read by ``grid.control_norm``: J, J2's
control term and the log's stop_qty and dw_l2.

A solve holds its level plan and the frames the next step reads.  The
loop runs the map's two halves itself and takes du_l2 between them,
then drops the previous u; it drops the previous psi and phi before the
next sweep marches.  So a sweep peaks at the plan and two frames, each
complex when the leader chain is live (the two u's, then the new u and
the backward frames), plus one difference block of at most 128 KB,
which du_l2 and J2 form in turn.  After the last sweep psi, then phi, is
copied into frames of its own and the array it viewed is freed, before
the final state march: a result holds no sweep's complex array.  A
result is frozen with read-only arrays and stores the log, a tuple, and
the sweep map once: its ``iterations`` is the log's length, its
``segments`` and ``target`` the sweep's.

The scheme maps all-zero data to exactly zero frames, so the map marches
no forward field whose boundary data are all zero: it is the plan's
read-only ``plan.zero``, and every zero field of a result is the map's
one zero trajectory.  With zero phi terminal data psi, phi and w1 stay
exactly zero and the sweep is the u <-> p loop in the follower control,
two real marches.  The final state is one real march, and so is
``SNResult.p``, marched by the map on its first read, since most runs
never read it; ``solve_forward`` and ``solve_backward`` themselves
always march.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .geometry import BoundarySegments, MovingDomainSpec, TimeGrid, _check_integer, _segment_levels
from .fem import (_check_constant_target, _check_control, _check_finite, _check_real,
                  _check_shape)
from .solvers import _SWEEP_ERRSTATE, Trajectory, _LevelPlan, _level_plan

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
        if not callable(self.u2):
            _check_constant_target(self.u2)
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


def _imaginary(f: np.ndarray) -> np.ndarray:
    """``f`` as the imaginary part of a complex array with zero real part."""
    z = np.zeros(len(f), complex)
    z.imag = f
    return z


def _control_change(new: tuple, old: tuple, idx: tuple, grid: TimeGrid) -> tuple:
    """The log's ``(stop_qty, dw_l2)`` for the update ``old -> new`` of a
    (leader, follower) pair of bare arrays with level indices ``idx`` of ``grid``.

    ``stop_qty`` is ||new - old|| / ||new||; when the denominator vanishes
    it is 0 if the numerator also does (a fixed point at zero), else +inf.
    ``dw_l2`` sums the norms of the two changes.
    """
    changes = [grid.control_norm(a - b, i) for a, b, i in zip(new, old, idx)]
    num = math.hypot(*changes)
    den = math.hypot(*(grid.control_norm(a, i) for a, i in zip(new, idx)))
    dw = changes[0] + changes[1]
    if den < _ZERO_NORM:
        return (0.0 if num < _ZERO_NORM else math.inf), dw
    return num / den, dw


def _follower_cost(plan: _LevelPlan, u: np.ndarray, w2: np.ndarray, target: np.ndarray,
                   sigma: float, levels) -> float:
    """J2 of the state frames ``u`` of ``plan`` and the bare follower control
    ``w2`` on its segment's ``levels``, with u2 given as ``target`` on u's levels."""
    track = plan.squared_distance(u, target)
    return 0.5 * track + 0.5 * sigma * plan.grid.control_norm(w2, levels) ** 2


@dataclass(frozen=True, eq=False)
class _Sweep:
    """The sweep map of one solve (module docstring), built by ``of``.

    ``sweep(w1, w2, psi_bc)`` returns ``((w1', w2', psi_bc'), (u, psi, phi))``,
    the fields as frames: its forward half, which returns ``(u, psi)``, then
    its backward half on them.  ``nash_gradient_check`` and ``SNResult.p``
    reuse its ``state`` and ``adjoint``.  ``phi_terminal`` holds phi's
    nonzero terminal data times i, as ``solve_backward``'s keywords; it is
    empty for zero data.
    """

    plan: _LevelPlan
    target: np.ndarray
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
                name = f"phi_terminal[{i}]"
                _check_real(name, f)
                f = np.asarray(f, dtype=float)
                _check_shape(name, f, (N + 1,))
                _check_finite(name, f)
                terminal[f"terminal{i}"] = _imaginary(f)  # phi is the imaginary part of p + i phi
        if not any(f.any() for f in terminal.values()):
            terminal = {}
        return cls(plan, plan.target(config.u2), segments, leader, follower,
                   config.sigma, terminal)

    def state(self, w1: np.ndarray, w2: np.ndarray,
              psi_bc: Optional[np.ndarray] = None) -> np.ndarray:
        """The forward march from rest with the trace of w1 + w2: u.  With
        a nonzero ``psi_bc`` it is the complex march u + i psi, plus i times
        psi_bc's trace.  Zero data need no march: the zero frames."""
        trace = self.plan.grid.trace
        left = trace(w1, w2)
        if psi_bc is not None and psi_bc.any():
            left = left + _imaginary(trace(psi_bc))
        if not left.any():
            return self.plan.zero
        return self.plan.forward(left)

    def adjoint(self, u: np.ndarray, psi: Optional[np.ndarray] = None, **terminal) -> np.ndarray:
        """The backward march from the source u - target: p.  With a nonzero
        ``psi`` or with phi's terminal data (times i) it is the complex
        march p + i phi from the source (u - target) + i psi.  The source is
        formed in the frames the march fills."""
        psi = self.plan.zero if psi is None else psi
        paired = psi is not self.plan.zero or bool(terminal)
        frames = np.empty(self.plan.shape, complex if paired else float)
        np.subtract(u, self.target, out=frames.real)
        if paired:
            frames.imag = psi
        return self.plan.backward(frames, **terminal)

    def __call__(self, w1: np.ndarray, w2: np.ndarray, psi_bc: np.ndarray):
        return self.backward_half(*self.forward_half(w1, w2, psi_bc))

    def forward_half(self, w1: np.ndarray, w2: np.ndarray, psi_bc: np.ndarray) -> tuple:
        """The sweep's forward march: ``(u, psi)``."""
        return self._parts(self.state(w1, w2, psi_bc))

    def backward_half(self, u: np.ndarray, psi: np.ndarray) -> tuple:
        """The sweep's backward march from the forward half's ``(u, psi)``:
        ``((w1', w2', psi_bc'), (u, psi, phi))``."""
        p, phi = self._parts(self.adjoint(u, psi, **self.phi_terminal))
        flux = self.plan.flux
        nxt = (flux(phi, self.leader), flux(p, self.follower) / self.sigma,
               flux(phi, self.follower) / self.sigma)
        return nxt, (u, psi, phi)

    @cached_property
    def zero(self) -> Trajectory:
        """The zero trajectory, built on first use: every zero field of a result."""
        return Trajectory(self.plan, self.plan.zero)

    def result(self, frames: np.ndarray) -> Trajectory:
        """``frames`` as a trajectory of the plan; the zero frames as ``zero``."""
        return self.zero if frames is self.plan.zero else Trajectory(self.plan, frames)

    def own(self, f: np.ndarray) -> Trajectory:
        """``result`` of a copy of ``f``, so the march array it views can be
        freed; of the zero frames as they are."""
        return self.result(f if f is self.plan.zero else f.copy())

    def _parts(self, f: np.ndarray) -> tuple:
        """The real and the imaginary part of a march's frames; a real
        march's imaginary part is the zero frames."""
        return (f.real, f.imag) if f.dtype.kind == "c" else (f, self.plan.zero)


@dataclass(frozen=True, eq=False)
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
    tuple, and the sweep map, which hold them once.  Equality and hash are
    identity.
    """

    converged: bool
    w1: np.ndarray
    w2: np.ndarray
    u: Trajectory
    psi: Trajectory
    phi: Trajectory
    _sweep: _Sweep = field(repr=False)
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
            p = self._sweep.result(self._sweep.adjoint(self.u.frames))
        p.frames.flags.writeable = False
        return p


def evaluate_J2(u: Trajectory, w2: np.ndarray, segment: tuple, u2: TargetLike,
                sigma: float) -> float:
    """Follower cost: tracking misfit over the space-time domain plus
    sigma/2 times the squared norm of the control ``w2`` on ``segment``,
    on u's grid, with u2 evaluated on u's levels."""
    grid = u.grid
    _check_real("trajectory u", u.frames)
    _check_control("w2", w2, grid)
    levels = _segment_levels("segment", segment, grid)
    return _follower_cost(u.plan, u.frames, w2, u.plan.target(u2), sigma, levels)


def evaluate_J(w1: np.ndarray, segment: tuple, grid: TimeGrid) -> float:
    """Leader cost: half the squared norm of the control ``w1`` on ``segment``."""
    _check_control("w1", w1, grid)
    return 0.5 * grid.control_norm(w1, _segment_levels("segment", segment, grid)) ** 2


def fixed_point_solve(config: SNConfig, spec: MovingDomainSpec, grid: TimeGrid,
                      N: int) -> SNResult:
    """Iterate the sweep map from zero controls until the relative
    control change drops below epsilon or the iteration cap is reached.

    Hitting the cap returns a result with ``converged=False``; only
    non-finite values raise (``DivergenceError`` with a diagnostics
    payload) in the state, the controls or a sweep's logged ``stop_qty``,
    ``du_l2``, ``dw_l2`` or ``J2``.
    """
    return _iterate(_Sweep.of(config, spec, grid, N), config)


def _iterate(sweep: _Sweep, config: SNConfig) -> SNResult:
    """``fixed_point_solve``'s loop on the sweep map ``sweep``, which it
    reaches only through the plan's and the grid's members listed above."""
    plan = sweep.plan
    idx, grid = (sweep.leader, sweep.follower), plan.grid
    M = grid.M
    w1 = w2 = psi_bc = np.zeros(M + 1)
    u_prev = None
    log: list = []
    converged = False

    def diverged(n: int, what: str, field: str, **details) -> DivergenceError:
        payload = {"iteration": n, "field": field, "sigma": config.sigma,
                   "T": grid.T, "M": M, "N": plan.shape[1] - 1, **details}
        return DivergenceError(f"non-finite {what} values at sweep {n}", payload)

    with np.errstate(**_SWEEP_ERRSTATE):
        for n in range(config.max_iter):
            psi = phi = None  # the next sweep reads only u_prev
            u, psi = sweep.forward_half(w1, w2, psi_bc)
            if not np.isfinite(u[M]).all():
                raise diverged(n, "state", "state")
            du = 0.0 if u_prev is None else math.sqrt(plan.squared_distance(u, u_prev))
            u_prev = None  # the backward march holds only u and its own frames
            (w1_new, w2_new, psi_bc), (u, psi, phi) = sweep.backward_half(u, psi)
            finite = [bool(np.isfinite(w).all()) for w in (w1_new, w2_new)]
            if not all(finite):
                raise diverged(n, "control", "controls", w1_finite=finite[0], w2_finite=finite[1])
            stop, dw = _control_change((w1_new, w2_new), (w1, w2), idx, grid)
            J2 = _follower_cost(plan, u, w2, sweep.target, config.sigma, sweep.follower)
            if not all(map(math.isfinite, (stop, du, dw, J2))):
                raise diverged(n, "log", "log", stop_qty=stop, du_l2=du, dw_l2=dw, J2=J2)
            log.append(IterationRecord(n=n, stop_qty=stop, du_l2=du, dw_l2=dw,
                                       J=0.5 * grid.control_norm(w1, sweep.leader) ** 2, J2=J2))

            w1, w2, u_prev = w1_new, w2_new, u
            if stop <= config.epsilon:
                converged = True
                break

        u = u_prev = None  # psi, then phi, take frames of their own; each sweep array is freed
        psi = sweep.own(psi)
        phi = sweep.own(phi)
        u_final = sweep.result(sweep.state(w1, w2))
    return SNResult(converged, w1, w2, u=u_final, psi=psi, phi=phi, _sweep=sweep, log=tuple(log))


def nash_residual(w2: np.ndarray, p: Trajectory, sigma: float,
                  segments: BoundarySegments) -> float:
    """Relative defect of the follower characterization at a candidate point.

    Measures || sigma*w2 - dp/dnu ||_{L2(segment)} / (sigma ||w2||) on the
    follower's segment ``segments.sigma2`` of p's grid; zero exactly at
    the follower's best response to the state that produced p.
    """
    grid = p.grid
    _check_real("trajectory p", p.frames)
    _check_control("w2", w2, grid)
    idx = _segment_levels("sigma2", segments.sigma2, grid)
    defect = grid.control_norm(sigma * w2 - p.plan.flux(p.frames, idx), idx)
    denom = sigma * grid.control_norm(w2, idx)
    return defect if denom == 0.0 else defect / denom


@dataclass(frozen=True, eq=False)
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
    disjoint halves of (0, T) when it is None).  Directions are smooth
    seeded sine profiles supported on the follower segment, normalized to
    unit control norm.  The centered difference uses delta = 1e-4 *
    max(1, ||w2||); the analytic pairing for a direction d is
    ``grid.control_inner`` of sigma w2 - dp/dnu and d.  A non-finite
    derivative on either side raises ``DivergenceError`` with field
    ``"nash_check"``.
    """
    _check_integer("n_directions", n_directions)
    if n_directions < 1:
        raise ValueError(f"n_directions must be at least 1, got {n_directions}")
    _check_control("w1", w1, grid)
    _check_control("w2", w2, grid)
    sweep = _Sweep.of(config, spec, grid, N)
    idx, sigma = sweep.follower, config.sigma
    if len(idx) < 2:
        raise ValueError("follower segment holds fewer than 2 time levels")
    v1, v2 = np.zeros(grid.M + 1), np.zeros(grid.M + 1)
    v1[sweep.leader] = w1[sweep.leader]
    v2[idx] = w2[idx]

    a, b = sweep.segments.sigma2
    s = (grid.levels[idx] - a) / (b - a)
    rng = np.random.default_rng(seed)
    w2_norm = grid.control_norm(w2, idx)
    delta = 1e-4 * max(1.0, w2_norm)
    scale = sigma * w2_norm  # directions have unit norm

    fd = np.empty(n_directions)
    analytic = np.empty(n_directions)
    rels = np.empty(n_directions)
    with np.errstate(**_SWEEP_ERRSTATE):
        flux = sweep.plan.flux(sweep.adjoint(sweep.state(v1, v2)), idx)
        for d in range(n_directions):
            coefs = rng.standard_normal(3)
            direction = np.zeros(grid.M + 1)
            direction[idx] = sum(c * np.sin((j + 1) * np.pi * s) for j, c in enumerate(coefs))
            direction /= grid.control_norm(direction, idx)

            cost = [_follower_cost(sweep.plan, sweep.state(v1, w), w, sweep.target, sigma, idx)
                    for w in (v2 + delta * direction, v2 - delta * direction)]
            fd[d] = (cost[0] - cost[1]) / (2.0 * delta)
            analytic[d] = grid.control_inner(sigma * v2 - flux, direction, idx)
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
