"""Moving-domain geometry: time grid, level meshes, boundary split.

The spatial domain at time t is the interval (0, alpha(t)) with
alpha(t) = 1 + k*t, so the right endpoint recedes at constant speed k
while the left endpoint (where the controls act) stays fixed.  Every
level's mesh is one uniform mesh rescaled by h = alpha(t)/N, so a level
is its spacing and its nodes, which ``level_nodes`` builds at one time or
at an array of times.  Every operation here is cheap, deterministic and
side-effect free; the solver modules consume these values and never
mutate them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

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
    dt: float
    levels: np.ndarray = field(repr=False)


def alpha(spec: MovingDomainSpec, t):
    """Right endpoint 1 + k*t of the domain at time t, or at each of an array of times."""
    lo, hi = np.min(t), np.max(t)
    if lo < 0.0 or hi > spec.T:
        raise ValueError(f"time {lo if lo < 0.0 else hi} outside [0, {spec.T}]")
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
    levels = np.linspace(0.0, T, M + 1)
    return TimeGrid(T=T, M=M, dt=T / M, levels=levels)


def level_nodes(spec: MovingDomainSpec, times, N: int):
    """Spacings ``h`` and nodes of the uniform N+1-node meshes on [0, alpha(t)].

    At an array of times, ``h`` holds one spacing per time and ``nodes``
    one row of N+1 nodes per time; at one scalar time, ``h`` is one
    spacing and ``nodes`` one row, with the bits of that time's row in
    the array call.  The node count is the same at every level; only the
    spacing scales with the domain, so node j keeps its identity across
    time levels.
    """
    _check_integer("N", N)
    if N < 2:
        raise ValueError(f"need at least 2 elements, got N={N}")
    lengths = alpha(spec, np.asarray(times, dtype=float))
    h = lengths / N
    nodes = np.arange(N + 1) * h[..., None]  # each row: the bits of np.linspace(0, length, N+1)
    nodes[..., -1] = lengths
    return h, nodes


def segment_mask(segment: tuple, grid: TimeGrid) -> np.ndarray:
    """Levels m with a <= t^m < b, the levels whose samples act in (a, b)."""
    a, b = segment
    return (grid.levels >= a) & (grid.levels < b)


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

    def leader_mask(self, grid: TimeGrid) -> np.ndarray:
        return segment_mask(self.sigma1, grid)

    def follower_mask(self, grid: TimeGrid) -> np.ndarray:
        return segment_mask(self.sigma2, grid)


@dataclass(frozen=True)
class SpaceTimeMeshStats:
    """Vertex/triangle counts and polygonal border length of the triangulated trapezoid."""

    n_vertices: int
    n_triangles: int
    border_length: float


def analytic_perimeter(spec: MovingDomainSpec) -> float:
    """Exact perimeter of the trapezoid (0,0), (1,0), (alpha(T),T), (0,T)."""
    k, T = spec.k, spec.T
    return 2.0 + T * (1.0 + k + math.sqrt(1.0 + k * k))


def trapezoid_stats(spec: MovingDomainSpec, target_edge: float) -> SpaceTimeMeshStats:
    """Triangulate the space-time trapezoid and report mesh statistics.

    A structured grid of quads (split into two triangles each) covers the
    trapezoid; the number of subdivisions in each direction is chosen so
    edges are close to ``target_edge``.  The border length is the summed
    length of the actual boundary polyline, whose vertices lie exactly on
    the four straight edges.  This exists only for reporting; it feeds
    nothing into the solvers.
    """
    if not target_edge > 0.0:
        raise ValueError(f"target_edge must be positive, got {target_edge}")
    k, T = spec.k, spec.T
    top = 1.0 + k * T
    mean_width = 0.5 * (1.0 + top)
    n_t = max(1, round(T / target_edge))
    n_x = max(1, round(mean_width / target_edge))

    tau = np.linspace(0.0, T, n_t + 1)
    xi = np.linspace(0.0, 1.0, n_x + 1)
    widths = 1.0 + k * tau

    n_vertices = (n_x + 1) * (n_t + 1)
    n_triangles = 2 * n_x * n_t

    def polyline(xs, ts):
        return float(np.sum(np.hypot(np.diff(xs), np.diff(ts))))

    border = 0.0
    border += polyline(xi * widths[0], np.zeros(n_x + 1))        # bottom
    border += polyline(xi * widths[-1], np.full(n_x + 1, T))     # top
    border += polyline(np.zeros(n_t + 1), tau)                   # left
    border += polyline(widths, tau)                              # moving edge
    return SpaceTimeMeshStats(n_vertices=n_vertices, n_triangles=n_triangles,
                              border_length=border)
