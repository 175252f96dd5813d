"""1D P1 finite-element building blocks.

Inter-level interpolation (the level meshes differ because the domain
moves), boundary-derivative recovery at the controlled end, and the
discrete L2 norm of boundary controls.  A field is a bare array of nodal
values; its nodes or its spacing are passed beside it.  A control is
likewise a bare ``(M+1,)`` array, one sample per time level, with its
segment ``(a, b)`` passed beside it.  ``interpolate``
is ``np.interp`` between two node arrays, extended by zero where a
target node lies beyond the source's right endpoint.
``boundary_flux_left`` takes one frame or a stack of frames with their
spacings.  No mass or stiffness matrix is assembled: every level mesh is
the same uniform mesh rescaled, so both operators are stencils of the
spacing h.  The space-time mass pairing is one row-wise stencil over a
stack of frames, ``_mass_rows``, which loops over no level:
``solvers._squared_distance`` sums its rows for every space-time L2
distance and norm of a solve, and ``_mass_pairing`` pairs two stacks
for ``solvers.duality_residual`` and the verification battery.  The step
solve applies both operators through the level plan of ``solvers``.
"""

from __future__ import annotations

import numpy as np

from .geometry import TimeGrid, _segment_levels

__all__ = [
    "interpolate",
    "boundary_flux_left",
    "control_l2_norm",
]


def _mass_pairing(a: np.ndarray, b: np.ndarray, h: np.ndarray) -> float:
    """Sum over rows r of the P1 mass pairing of ``a[r]`` and ``b[r]`` on spacing ``h[r]``.

    ``a`` and ``b`` are ``(R, N+1)`` stacks of nodal values and ``h`` has
    R spacings.  The mass matrix of a uniform mesh is h tridiag(1/6, 2/3,
    1/6) with 1/3 at both ends, so row r contributes
    h[r] (4 sum_j a_j b_j - 2 (a_0 b_0 + a_N b_N) + sum_j (a_j b_{j+1} + a_{j+1} b_j)) / 6.
    """
    return float(h @ _mass_rows(a, b)) / 6.0


def _mass_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row r of ``_mass_pairing`` times 6/h[r], one value per row."""
    inner = np.einsum("rj,rj->r", a, b)
    cross = np.einsum("rj,rj->r", a[:, :-1], b[:, 1:]) + np.einsum("rj,rj->r", a[:, 1:], b[:, :-1])
    ends = a[:, 0] * b[:, 0] + a[:, -1] * b[:, -1]
    return 4.0 * inner - 2.0 * ends + cross


def interpolate(values: np.ndarray, x_target: np.ndarray, x_source: np.ndarray) -> np.ndarray:
    """The P1 function with nodal ``values`` at ``x_source``, evaluated at
    ``x_target``: ``np.interp(x_target, x_source, values, right=0.0)``.

    Points beyond the source's right endpoint receive 0 (the transported
    fields vanish at the moving end, so extension by zero is consistent
    to discretization order).  A point on a source node takes that
    node's value exactly, so on identical nodes this is a copy.
    ``x_target`` may be a stack of node rows, such as the nodes of
    several levels; the result has its shape, and each point's value
    depends on that point alone, so it has the bits of one call per row.
    Complex ``values`` are interpolated part by part in one call; numpy's
    complex path multiplies by 1/dx where the real path divides by dx, so
    each part may differ from a real call on it in the last bit.
    """
    return np.interp(x_target, x_source, values, right=0.0)


def boundary_flux_left(values: np.ndarray, h):
    """Spatial derivative at x = 0 of nodal data on a mesh of spacing h.

    ``values`` is one frame, or a stack of frames (one per row, nodes
    along the last axis) with ``h`` holding one spacing per row; the
    result is a float or one value per row.  The stencil is the
    second-order one-sided (-3 v0 + 4 v1 - v2)/(2h), exact for quadratic
    nodal data.
    """
    v = values
    if v.shape[-1] < 3:
        raise ValueError("one-sided flux needs at least 3 nodes")
    # algebraically -3 v0 + 4 v1 - v2, written difference-first so
    # constant data yields an exact zero
    return (4.0 * (v[..., 1] - v[..., 0]) - (v[..., 2] - v[..., 0])) / (2.0 * h)


def _segment_norm(values: np.ndarray, levels, dt: float) -> float:
    """sqrt(sum_m dt * values_m^2) over the level indices ``levels``."""
    return float(np.sqrt(dt * np.sum(values[levels] ** 2)))


def _check_shape(name: str, a, shape: tuple):
    """Reject an array argument ``name`` (None passes) whose shape is not ``shape``."""
    if a is not None and np.shape(a) != shape:
        raise ValueError(f"{name} has shape {np.shape(a)}, expected {shape}")


def _check_given(name: str, a, shape: tuple):
    """Reject an array argument ``name`` that is None or whose shape is not ``shape``."""
    if a is None:
        raise ValueError(f"{name} is None, expected shape {shape}")
    _check_shape(name, a, shape)


def _check_control(name: str, a, grid: TimeGrid):
    """Reject a control argument ``name`` that is None, not one sample per
    level of ``grid`` or holds a non-finite value."""
    _check_given(name, a, (grid.M + 1,))
    if not np.isfinite(a).all():
        raise ValueError(f"{name} holds a non-finite value")


def control_l2_norm(values: np.ndarray, segment: tuple, grid: TimeGrid) -> float:
    """Discrete L2 norm over ``segment``: sqrt(sum_m dt * values_m^2) on its levels."""
    _check_control("values", values, grid)
    return _segment_norm(values, _segment_levels("segment", segment, grid), grid.dt)
