"""Moving-domain geometry: time grid, level meshes, boundary split.

A time grid is its horizon T and its step count M; the step dt = T/M
and the levels are derived from them, so no copy of either can go stale.
It owns the time rule of a control, one sample per level: ``trace``
makes the Dirichlet data at x = 0, ``control_inner`` and
``control_norm`` the discrete L2 form dt sum_m a_m b_m on given levels.

The spatial domain at time t is the interval (0, alpha(t)) with
alpha(t) = 1 + k*t, so the right endpoint recedes at constant speed k
while the left endpoint (where the controls act) stays fixed.  Every
level's mesh is one uniform mesh rescaled by h = alpha(t)/N, so a level
is its spacing and its right end: its nodes are j h for j < N and the end
at j = N.  ``_node_rows`` is the one formula that writes them, and
``level_nodes`` builds them at one time or at an array of times.  Every
operation here is cheap, deterministic and side-effect free; the solver
modules consume these values and never mutate them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "MovingDomainSpec",
    "TimeGrid",
    "BoundarySegments",
    "SpaceTimeMeshStats",
    "alpha",
    "compute_Tc",
    "build_time_grid",
    "level_nodes",
    "segment_mask",
    "trapezoid_stats",
    "analytic_perimeter",
]


@dataclass(frozen=True)
class MovingDomainSpec:
    """Boundary speed and final time of the space-time domain.

    k must lie in [0, 1); k = 0 (fixed domain) is accepted for
    solver-validation runs even though the controllability theory
    requires k > 0.
    """

    k: float
    T: float

    def __post_init__(self):
        if not 0.0 <= self.k < 1.0:
            raise ValueError(f"boundary speed k must be in [0, 1), got {self.k}")
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ValueError(f"final time T must be positive and finite, got {self.T}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t^0 < t^1 < ... < t^M = T with step dt = T/M."""

    T: float
    M: int

    @property
    def dt(self) -> float:
        return self.T / self.M

    @cached_property
    def levels(self) -> np.ndarray:
        """The M+1 levels, read-only; the last lands exactly on T."""
        levels = np.linspace(0.0, self.T, self.M + 1)
        levels.flags.writeable = False
        return levels

    def trace(self, *controls: np.ndarray) -> np.ndarray:
        """Dirichlet data at x = 0: bare ``(M+1,)`` controls added in order to
        zeros.  The final level, which carries no sample of its own, takes the
        last interval's value, so the trace is left-continuous at T."""
        left = np.zeros(len(controls[0]))
        for c in controls:
            left += c
        left[-1] = left[-2]
        return left

    def control_inner(self, a: np.ndarray, b: np.ndarray, idx) -> float:
        """sum_m dt a_m b_m over the level indices ``idx``."""
        return self.dt * float(np.sum(a[idx] * b[idx]))

    def control_norm(self, values: np.ndarray, idx) -> float:
        """sqrt(sum_m dt values_m^2) over the level indices ``idx``."""
        return math.sqrt(self.control_inner(values, values, idx))


def alpha(spec: MovingDomainSpec, t):
    """Right endpoint 1 + k*t of the domain at time t, or at each of an array of times."""
    lo, hi = np.min(t), np.max(t)
    if not (lo >= 0.0 and hi <= spec.T):  # a NaN time fails both
        raise ValueError(f"time {hi if lo >= 0.0 else lo} outside [0, {spec.T}]")
    return 1.0 + spec.k * t


def compute_Tc(k: float) -> float:
    """Control-time constant exp(2k(1+k)/(1-k)^3)/k used as the base horizon.

    Strictly exceeds the controllability threshold (exp(...) - 1)/k for
    every k in (0, 1).  It exceeds the float range from k ~ 0.837 on,
    which raises a ``ValueError`` naming k.
    """
    if not 0.0 < k < 1.0:
        raise ValueError(f"compute_Tc requires 0 < k < 1, got {k}")
    try:
        Tc = math.exp(2.0 * k * (1.0 + k) / (1.0 - k) ** 3) / k
    except OverflowError:  # from exp; the division by k overflows to inf
        Tc = math.inf
    if Tc == math.inf:
        raise ValueError(f"T_c(k) = exp(2k(1+k)/(1-k)^3)/k overflows a float at k={k!r}")
    return Tc


def _check_integer(name: str, value):
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer;
    Python and numpy integers pass, floats do not, even integral ones."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def build_time_grid(T: float, M: int) -> TimeGrid:
    """Uniform time grid with M steps; the last level lands exactly on T."""
    _check_integer("M", M)
    if M < 2:
        raise ValueError(f"need at least 2 time steps, got M={M}")
    if not (T > 0.0 and math.isfinite(T)):
        raise ValueError(f"final time T must be positive and finite, got {T}")
    return TimeGrid(T, M)


def _level_spacings(spec: MovingDomainSpec, times, N: int):
    """Spacings ``h`` and right ends alpha(t) of the N-element level meshes
    at ``times``, one of each per time; N must be an integer of at least 2
    and every time must lie in [0, T]."""
    _check_integer("N", N)
    if N < 2:
        raise ValueError(f"need at least 2 elements, got N={N}")
    ends = alpha(spec, np.asarray(times, dtype=float))
    return ends / N, ends


def _node_rows(h, ends, out: np.ndarray) -> np.ndarray:
    """The nodes of the levels with spacings ``h`` and right ends ``ends``,
    written into ``out``: j h[m] at node j < N and exactly ``ends[m]`` at
    node N, the bits of ``np.linspace(0, ends[m], N+1)``.  One level is a
    scalar ``h`` and an ``(N+1,)`` row, several levels are rows of ``out``.
    Every node row of the package is made here.  A 1-term ``matmul``
    writes the products with no broadcast temporary, where a ufunc's
    buffered broadcast allocates about 27 rows at N = 100 (tracemalloc)."""
    np.matmul(h[..., None], np.arange(out.shape[-1], dtype=float)[None], out)
    out[..., -1] = ends
    return out


def level_nodes(spec: MovingDomainSpec, times, N: int):
    """Spacings ``h`` and nodes of the uniform N+1-node meshes on [0, alpha(t)].

    At an array of times, ``h`` holds one spacing per time and ``nodes``
    one row of N+1 nodes per time; at one scalar time, ``h`` is one
    spacing and ``nodes`` one row, with the bits of that time's row in
    the array call (``_node_rows``).  The node count is the same at every
    level; only the spacing scales with the domain, so node j keeps its
    identity across time levels.
    """
    h, ends = _level_spacings(spec, times, N)
    return h, _node_rows(h, ends, np.empty(np.shape(h) + (N + 1,)))


def segment_mask(segment: tuple, grid: TimeGrid) -> np.ndarray:
    """Levels m with a <= t^m < b, the levels whose samples act in (a, b)."""
    a, b = segment
    return (grid.levels >= a) & (grid.levels < b)


def _segment_levels(name: str, segment: tuple, grid: TimeGrid) -> np.ndarray:
    """Indices of the levels of ``segment`` (``segment_mask``); raise a
    ``ValueError`` naming the argument ``name`` when it holds none."""
    idx = np.nonzero(segment_mask(segment, grid))[0]
    if not len(idx):
        raise ValueError(f"{name} {segment} holds no time level "
                         f"of the grid (T={grid.T}, M={grid.M})")
    return idx


@dataclass(frozen=True)
class BoundarySegments:
    """Time segments of the left boundary assigned to the two controls.

    ``sigma1`` is the leader's interval, ``sigma2`` the follower's.  A
    control sample at level m acts on [t^m, t^{m+1}), so level m belongs
    to a segment (a, b) when a <= t^m < b; the final level t^M carries no
    sample of its own.  Each segment needs finite ends with a < b, and a
    solve needs each to hold at least one level of its grid.
    """

    sigma1: tuple
    sigma2: tuple

    def __post_init__(self):
        for name in ("sigma1", "sigma2"):
            seg = tuple(getattr(self, name))
            if not (len(seg) == 2 and all(map(math.isfinite, seg)) and seg[0] < seg[1]):
                raise ValueError(f"{name} must be a segment (a, b) with finite a < b, got {seg}")

    @classmethod
    def disjoint_halves(cls, T: float) -> "BoundarySegments":
        """Follower on (0, T/2), leader on (T/2, T)."""
        return cls(sigma1=(T / 2.0, T), sigma2=(0.0, T / 2.0))

    @classmethod
    def additive_overlap(cls, T: float) -> "BoundarySegments":
        """Both controls act on all of (0, T); boundary data is their sum."""
        return cls(sigma1=(0.0, T), sigma2=(0.0, T))


@dataclass(frozen=True)
class SpaceTimeMeshStats:
    """Vertex/triangle counts of the triangulated trapezoid and its border length."""

    n_vertices: int
    n_triangles: int
    border_length: float


def analytic_perimeter(spec: MovingDomainSpec) -> float:
    """Exact perimeter of the trapezoid (0,0), (1,0), (alpha(T),T), (0,T)."""
    k, T = spec.k, spec.T
    return 2.0 + T * (1.0 + k + math.sqrt(1.0 + k * k))


def trapezoid_stats(spec: MovingDomainSpec, target_edge: float) -> SpaceTimeMeshStats:
    """Counts of a triangulation of the space-time trapezoid, and its border length.

    A structured grid of quads (split into two triangles each) covers the
    trapezoid; the number of subdivisions in each direction is chosen so
    edges are close to ``target_edge``, and an edge so small that the mesh
    would have more than 2**63 vertices, the most a 64-bit index addresses,
    is a ``ValueError`` naming ``target_edge``.  Every border vertex lies on
    one of the four straight edges, so the border length is
    ``analytic_perimeter``.  This only reports; no solver reads it.
    """
    if not target_edge > 0.0:
        raise ValueError(f"target_edge must be positive, got {target_edge}")
    T = spec.T
    mean_width = 0.5 * (1.0 + (1.0 + spec.k * T))  # of the bottom and the top edge
    n_t, n_x = T / target_edge, mean_width / target_edge
    if (n_x + 1) * (n_t + 1) > 2**63:  # an infinite count too
        raise ValueError(f"target_edge={target_edge!r} is too small: the mesh of T={T!r} "
                         f"would have more than 2**63 vertices")
    n_t, n_x = max(1, round(n_t)), max(1, round(n_x))
    return SpaceTimeMeshStats(n_vertices=(n_x + 1) * (n_t + 1), n_triangles=2 * n_x * n_t,
                              border_length=analytic_perimeter(spec))
