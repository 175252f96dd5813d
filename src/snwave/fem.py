"""1D P1 finite-element building blocks.

Mass/stiffness assembly on uniform meshes, inter-level interpolation
(the level meshes differ because the domain moves), boundary-
derivative recovery at the controlled end, and the discrete L2 norm of
boundary controls.  A field is a bare array of nodal values; its nodes
or its spacing are passed beside it.  ``interpolate`` is ``np.interp``
between two node arrays, extended by zero where a target node lies
beyond the source's right endpoint.  ``boundary_flux_left`` takes one
frame or a stack of frames with their spacings.  The mass pairings of
the solvers and the game apply the mass matrix as an h-scaled stencil
that gives the same bits as ``assemble_mass(mesh).matvec``, so they
assemble nothing.

``solve_tridiagonal`` is a Thomas solve for the assembled systems; the
marches use the sine-basis step solve in ``solvers`` instead, and the
Thomas solve is kept as the reference the tests check it against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import SpatialMesh, TimeGrid, segment_mask

__all__ = [
    "TriDiagMatrix",
    "ControlSamples",
    "assemble_mass",
    "assemble_stiffness",
    "solve_tridiagonal",
    "interpolate",
    "boundary_flux_left",
    "control_l2_norm",
]


@dataclass(frozen=True)
class TriDiagMatrix:
    """Tridiagonal matrix stored as its three diagonals.

    ``lower`` and ``upper`` have length n-1 for an n x n matrix.
    """

    lower: np.ndarray = field(repr=False)
    diagonal: np.ndarray = field(repr=False)
    upper: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = len(self.diagonal)
        if len(self.lower) != n - 1 or len(self.upper) != n - 1:
            raise ValueError("inconsistent diagonal lengths")

    @property
    def n(self) -> int:
        return len(self.diagonal)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diagonal * v
        out[:-1] += self.upper * v[1:]
        out[1:] += self.lower * v[:-1]
        return out

    def add(self, other: "TriDiagMatrix", scale: float = 1.0) -> "TriDiagMatrix":
        return TriDiagMatrix(
            lower=self.lower + scale * other.lower,
            diagonal=self.diagonal + scale * other.diagonal,
            upper=self.upper + scale * other.upper,
        )


def assemble_mass(mesh: SpatialMesh) -> TriDiagMatrix:
    """P1 mass matrix on a uniform mesh: diag (h/3, 2h/3, ..., h/3), off-diag h/6."""
    n = mesh.n_nodes
    h = mesh.h
    off = np.full(n - 1, h / 6.0)
    diag = np.full(n, 2.0 * h / 3.0)
    diag[0] = diag[-1] = h / 3.0
    return TriDiagMatrix(lower=off, diagonal=diag, upper=off.copy())


def assemble_stiffness(mesh: SpatialMesh) -> TriDiagMatrix:
    """P1 stiffness matrix on a uniform mesh; rows sum to zero."""
    n = mesh.n_nodes
    h = mesh.h
    off = np.full(n - 1, -1.0 / h)
    diag = np.full(n, 2.0 / h)
    diag[0] = diag[-1] = 1.0 / h
    return TriDiagMatrix(lower=off, diagonal=diag, upper=off.copy())


def solve_tridiagonal(A: TriDiagMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs by the Thomas algorithm (no pivoting).

    Intended for the SPD systems arising from M + dt^2 K assemblies after
    Dirichlet elimination, where pivoting is never needed.  A vanishing
    pivot raises with the offending row index.
    """
    n = A.n
    if len(rhs) != n:
        raise ValueError(f"rhs has length {len(rhs)}, system size is {n}")
    lo, di, up = A.lower, A.diagonal, A.upper
    cp = np.empty(n - 1) if n > 1 else np.empty(0)
    dp = np.empty(n)
    piv = di[0]
    if piv == 0.0:
        raise ValueError("singular tridiagonal system: zero pivot at row 0")
    if n == 1:
        return np.array([rhs[0] / piv])
    cp[0] = up[0] / piv
    dp[0] = rhs[0] / piv
    for i in range(1, n - 1):
        piv = di[i] - lo[i - 1] * cp[i - 1]
        if piv == 0.0:
            raise ValueError(f"singular tridiagonal system: zero pivot at row {i}")
        cp[i] = up[i] / piv
        dp[i] = (rhs[i] - lo[i - 1] * dp[i - 1]) / piv
    piv = di[n - 1] - lo[n - 2] * cp[n - 2]
    if piv == 0.0:
        raise ValueError(f"singular tridiagonal system: zero pivot at row {n - 1}")
    dp[n - 1] = (rhs[n - 1] - lo[n - 2] * dp[n - 2]) / piv
    x = np.empty(n)
    x[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


def _mass_matvec(v: np.ndarray, h: float) -> np.ndarray:
    """The P1 mass matrix of a uniform mesh with spacing h applied to v.

    Same operations in the same order as ``assemble_mass(mesh).matvec(v)``,
    so the same bits, without building the matrix.
    """
    out = (2.0 * h / 3.0) * v
    out[0] = (h / 3.0) * v[0]
    out[-1] = (h / 3.0) * v[-1]
    out[:-1] += (h / 6.0) * v[1:]
    out[1:] += (h / 6.0) * v[:-1]
    return out


def interpolate(values: np.ndarray, x_target: np.ndarray, x_source: np.ndarray) -> np.ndarray:
    """The P1 function with nodal ``values`` at ``x_source``, evaluated at
    ``x_target``: ``np.interp(x_target, x_source, values, right=0.0)``.

    Points beyond the source's right endpoint receive 0 (the transported
    fields vanish at the moving end, so extension by zero is consistent
    to discretization order).  A point on a source node takes that
    node's value exactly, so on identical nodes this is a copy.
    """
    return np.interp(x_target, x_source, values, right=0.0)


def boundary_flux_left(values: np.ndarray, h, method: str = "one-sided"):
    """Spatial derivative at x = 0 of nodal data on a mesh of spacing h.

    ``values`` is one frame, or a stack of frames (one per row, nodes
    along the last axis) with ``h`` holding one spacing per row; the
    result is a float or one value per row.  ``one-sided`` (default) is
    the second-order stencil (-3 v0 + 4 v1 - v2)/(2h), exact for
    quadratic nodal data.  ``p1-gradient`` is the first-cell gradient
    (v1 - v0)/h of the P1 function itself, the value its weak form
    produces against the boundary basis function.
    """
    v = values
    if method == "one-sided":
        if v.shape[-1] < 3:
            raise ValueError("one-sided flux needs at least 3 nodes")
        # algebraically -3 v0 + 4 v1 - v2, written difference-first so
        # constant data yields an exact zero
        return (4.0 * (v[..., 1] - v[..., 0]) - (v[..., 2] - v[..., 0])) / (2.0 * h)
    if method == "p1-gradient":
        return (v[..., 1] - v[..., 0]) / h
    raise ValueError(f"unknown flux method {method!r}")


@dataclass(frozen=True)
class ControlSamples:
    """Piecewise-constant-in-time boundary control on a segment of (0, T).

    ``values`` holds one scalar per time level (length M+1) and is zero
    at levels outside the segment; the sample at level m acts on
    [t^m, t^{m+1}).
    """

    segment: tuple
    values: np.ndarray = field(repr=False)

    @classmethod
    def zeros(cls, segment: tuple, grid: TimeGrid) -> "ControlSamples":
        return cls(segment=segment, values=np.zeros(grid.M + 1))

    def level_mask(self, grid: TimeGrid) -> np.ndarray:
        return segment_mask(self.segment, grid)

    def check_aligned(self, grid: TimeGrid):
        if len(self.values) != grid.M + 1:
            raise ValueError(
                f"control has {len(self.values)} samples for grid with {grid.M + 1} levels"
            )


def control_l2_norm(c: ControlSamples, grid: TimeGrid) -> float:
    """Discrete L2 norm over the control's segment: sqrt(sum_m dt * c_m^2)."""
    c.check_aligned(grid)
    mask = c.level_mask(grid)
    return float(np.sqrt(grid.dt * np.sum(c.values[mask] ** 2)))
