"""Time-marching wave solvers on the moving level meshes.

Both solvers run one march kernel, the three-level implicit scheme with
the stiffness matrix applied to the unknown frame.  Marching forward the
unknown is u^{m+1}; marching backward it is p^{m-1}, and the backward
march is the forward march on the reversed level order.  Each step needs
the two known frames on the unknown's own nodes and solves one symmetric
tridiagonal system after Dirichlet elimination.  A frame is interpolated
once, by one call onto the nodes of the next two levels: the first row
serves the step that follows it, the second the step after that.

Every level mesh is the same uniform mesh rescaled, so the interior
system of level m is the Toeplitz matrix tridiag(off_m, diag_m, off_m)
with diag_m = 2/h_m + 2 h_m/(3 dt^2) and off_m = -1/h_m + h_m/(6 dt^2),
and its right-hand side is scale_m T w, where w is the full frame
2 u~^i - u~^{i-1} (+ dt^2 s), scale_m = h_m/(6 dt^2), T is the (1, 4, 1)
mass stencil from the N+1 nodes onto the N-1 interior ones, and the
left Dirichlet value g enters as w_0 -= lift_m g with
lift_m = off_m/scale_m.  One orthonormal sine basis
S[i, j] = sqrt(2/N) sin(i j pi/N) diagonalizes every interior matrix,
with eigenvalues lambda_m = diag_m + off_m c and c = 2 cos(j pi/N), and
it diagonalizes T's interior block too: S T_int = diag(4 + c) S.  With
ST = S T, S symmetric, the step solve S ((scale_m S T w) / lambda_m) is

    v = ST[:, 1:-1]^T (G[m] * (ST w)),   G[m] = scale_m / (lambda_m (4 + c)),

two products with one operator and one scaling; the boundary nodes of
v are the Dirichlet values.

The basis is symmetric under the reflection k -> N-k of the nodes:
sin(i (N-k) pi/N) = (-1)^(i+1) sin(i k pi/N), and so

    ST[i, N-k] = (-1)^(i+1) ST[i, k]        (k = 0..N).

So the odd modes i see w only through s_k = w_k + w_{N-k} and the even
modes only through d_k = w_k - w_{N-k}, for k = 0..N//2; and with a and
b the odd and the even modes' parts of the back product on the nodes
k = 1..N//2, v_k = a_k + b_k and v_{N-k} = a_k - b_k.  The folded step
forms s and d, makes one product of the stacked odd- and even-mode
blocks with them, scales, and one stacked product back: half the
operator bytes and half the flops of the two full products, for four
more small ufunc calls.  The folded ``ST`` holds the columns k = 0..N//2
once, and its columns 1..N//2 serve the back product too; for even N
the middle node is its own mirror, and the step halves s there, where
s = 2 w.  The step is memory-bound at large N and bound
by per-call overhead at small N, so the plan folds its operators from
N = ``_FOLD_N`` on: one march pair (forward and backward) at N = M = 300
takes 0.85 of the unfolded time, at N = M = 100 1.2 of it, and the two
cross between N = 150 and 200 (``_FOLD_N``'s comment).

A solve builds its level plan once: the spacings ``h`` and right ends
``ends`` ``(M+1,)`` and the step operators ``ST`` ``(N-1, N+1)``,
``back``, ``G`` ``(M+1, N-1)`` and ``lift`` ``(M+1,)`` (``ST`` and
``G`` folded from N = ``_FOLD_N`` on, see ``_fold``), read-only, shared
by every march of the solve, with the ``k`` and the time grid it was
built for.  It holds no node array: level m's nodes are j h[m] for
j < N and ``ends[m]`` at j = N, written by ``geometry._node_rows``, the
one node formula of the package.  A march makes them ``_NODE_ROWS`` rows
at a time (``_level_rows``), ``plan.node_row(m)`` one level's row, and
``level_nodes(spec, grid.levels, N)[1]`` all of them, with the same bits.  ``back`` is the back product's operator: below
``_FOLD_N`` an F-contiguous copy of ``ST[:, 1:-1].T``, whose ``back.dot``
gives the bits of ``np.matmul`` on the strided view in less time, and
from ``_FOLD_N`` on a view of the folded ``ST``'s columns 1..N//2,
transposed, so the plan stores each value once.  The solve's first
complex march adds ``paired_G``, ``G`` repeated over the two real
columns of the products, so the scaling reads contiguous rows.  Every
entry builds its plan by ``_level_plan``, which rejects a spec whose
horizon T is not the grid's.  Nothing is cached across solves.  A time
step whose square underflows to 0 gives non-finite operators without a
numpy warning; the game's checks report the values they produce.

The level plan is the scheme.  The game's fixed point reaches the march
only through these members of ``_LevelPlan``, the array contract a
scheme must provide, on frames, ``(M+1, N+1)`` arrays whose row m holds
level m's nodal values:

- ``forward(left, ic0, ic1, source)``: the march from t = 0, new frames;
- ``backward(frames, terminal0, terminal1)``: the march from t = T of
  the source held in ``frames``, in place; it returns ``frames``;
- ``flux(frames, idx)``: the outward flux d/d nu = -d/dx at x = 0 on
  the levels ``idx``, 0 elsewhere;
- ``squared_distance(a, b)``: dt times the sum over m < M of the mass
  pairing of a[m] - b[m] with itself, the space-time L2 form;
- ``zero``: read-only zero frames, what all-zero data march to;
- ``grid`` and ``shape``: the time grid and the frames' ``(M+1, N+1)``.

``target(u2)`` is the target on every level, a callable u2 given one
``node_row(m)`` at a time; the CLI's node columns read ``node_row`` too,
and the loop reads neither.  ``solve_forward`` and
``solve_backward`` check their data, build a plan, call its
``forward`` or ``backward`` and wrap the frames in a ``Trajectory``,
the public result; the game calls them on its own plan, on data it has
checked.  ``squared_distance``'s square root is the game's
du_l2, ``trajectory_l2_distance`` and ``trajectory_l2_norm``, and half
of it is J2's tracking term.  It forms the difference in row
blocks of one contiguous buffer, so its bits do not depend on the
frames' layout: a real view of complex frames reads as its copy.
``flux`` gives the sweep's control updates, ``game.nash_residual``'s
defect and ``duality_residual``'s boundary pairing.

A trajectory is one frames array, whose row m lives at the nodes of the
plan's ``h[m]`` and ``ends[m]``, beside the plan, whose grid and
``shape`` are the trajectory's.  A march fills one preallocated array.
It first writes dt^2 times its source into that array, so source rows
are pre-scaled in ``out`` and step i reads row i+1 as its source term
before it writes that row.  Each step forms its right-hand side in one
preallocated row and its forward product in another (``_march``): a
step's only temporaries are the interpolated rows.  An unfolded step
makes one interpolation, 2 r - ahead (two ufuncs), the source add and
the row's two boundary values when there is a source, the scalar lift,
and three products: ``ST.dot``, the scaling by G and ``back.dot``.  The
backward march runs on reversed views of the plan's arrays and of its
own.  A march takes its data as arrays of the same layout:
``solve_forward`` the ``(M+1,)`` Dirichlet values at x = 0 and, as
keywords, the ``(N+1,)`` initial frames and an ``(M+1, N+1)`` source;
``solve_backward`` the source and, as keywords, the terminal frames.
Omitted frames are zero.  The source is only read: a read-only or
broadcast array serves.  ``solve_backward`` copies it into the frames it
marches; the game's adjoint (``game._Sweep.adjoint``) forms its source
in them, and holds no second full-size array.

The data may be complex; the frames then are complex too.  The scheme
is real and linear, so a complex march is two real marches, of the real
and of the imaginary part of the data, in one pass: the interpolation,
the combination 2 u~^i - u~^{i-1}, the lift and the source act on the
two parts separately, and the two products with ``ST`` act on the
``(N+1, 2)`` real view of each complex frame as one 2-column product.
Neither part reads the other, so the real part of a march of a + i b
has the same bits for any b; it agrees with the real march of a to
roundoff, not to the bit (see ``fem.interpolate``).  The game marches
the follower's and the leader's fields this way, in pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .geometry import MovingDomainSpec, TimeGrid, _level_spacings, _node_rows, _segment_levels
from .fem import (_check_constant_target, _check_control, _check_finite, _check_given,
                  _check_real, _check_shape, _mass_pairing, _mass_rows, boundary_flux_left,
                  interpolate)

__all__ = [
    "Trajectory",
    "solve_forward",
    "solve_backward",
    "duality_residual",
    "trajectory_l2_distance",
    "trajectory_l2_norm",
]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Nodal values of every time level: row m of ``frames`` lives on level
    m's nodes, those of the plan's ``h[m]`` and ``ends[m]``.

    ``frames`` has the plan's shape ``(M+1, N+1)``; ``plan`` is the
    solve's level plan, shared, not copied, and ``grid`` is the plan's.
    Equality and hash are identity: a field-wise ``==`` would compare
    arrays.
    """

    plan: "_LevelPlan"
    frames: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.frames.shape != self.plan.shape:
            raise ValueError(f"trajectory of shape {self.frames.shape} on a plan of shape "
                             f"{self.plan.shape}")

    @property
    def grid(self) -> TimeGrid:
        return self.plan.grid


# Overflow, and a division by a time step squared that underflowed to 0,
# are reported by the callers' non-finite checks, not as warnings.
_SWEEP_ERRSTATE = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


# Rows of the sine basis gathered per call: a small index buffer keeps
# S's build near S's own size (BENCH_lean-step.json).  The buffer holds
# 16 rows, where one full (N-1)^2 index array doubled the peak
# (tracemalloc at N = 300: 0.84 MB against 1.44 MB, the sin formula
# 0.85 MB).
_SINE_ROWS = 16


def _sine_basis(N: int):
    """Orthonormal sine basis S of the N-1 interior nodes and c = 2 cos(j pi/N).

    S[i, j] = sqrt(2/N) sin(i j pi/N) for i, j = 1..N-1 is symmetric and
    its own inverse; S tridiag(b, a, b) S = diag(a + b * 2 cos(j pi/N)).
    The angle i*j is reduced mod 2N while still an exact integer, which
    keeps the sines accurate at large N, and S gathers its entries from
    the 2N scaled sines of those residues, ``_SINE_ROWS`` rows at a time
    through one index buffer.
    """
    j = np.arange(1, N)
    table = np.sin(np.arange(2.0 * N) * (math.pi / N))
    table *= math.sqrt(2.0 / N)
    S = np.empty((N - 1, N - 1))
    angles = np.empty((min(_SINE_ROWS, N - 1), N - 1), j.dtype)
    for r in range(0, N - 1, _SINE_ROWS):
        block = angles[:N - 1 - r]
        np.multiply.outer(j[r:r + _SINE_ROWS], j, out=block)
        np.remainder(block, 2 * N, out=block)
        np.take(table, block, out=S[r:r + _SINE_ROWS])
    return S, 2.0 * np.cos(j * (math.pi / N))


def _step_operators(h: np.ndarray, dt: float, N: int):
    """``ST``, ``G`` and ``lift`` of the levels with spacings ``h`` (module docstring)."""
    S, c = _sine_basis(N)
    ST = np.empty((N - 1, N + 1))
    np.multiply(S, 4.0, out=ST[:, 1:-1])
    ST[:, 0] = ST[:, -1] = 0.0
    ST[:, :-2] += S
    ST[:, 2:] += S
    dt2 = dt * dt
    scale = h / (6.0 * dt2)
    off = -1.0 / h + h / (6.0 * dt2)
    G = np.multiply.outer(off, c)
    G += (2.0 / h + 2.0 * h / (3.0 * dt2))[:, None]
    G *= 4.0 + c
    np.divide(scale[:, None], G, out=G)
    return ST, G, off / scale


# The smallest N whose plan holds folded step operators: folding halves
# the operator bytes but adds ufunc calls, so it pays only at large N
# (BENCH_reflection-split.json).  Interleaved march pairs (one forward
# and one backward, N = M, 30 trials; median folded over unfolded CPU
# time, two runs) read 1.25/1.21 at N=100, 1.09/1.07 at 150, 1.03/0.97
# at 180, 0.97/0.97 at 200, 0.91/0.92 at 250 and 0.85/0.85 at 300 on a
# 2-vCPU Xeon VM with OpenBLAS: the two forms cross between N=150 and
# 200, and 200 is the smallest N tried that won in both runs.
_FOLD_N = 200


def _fold(ST: np.ndarray, G: np.ndarray):
    """``ST`` and ``G`` folded by the basis's reflection k -> N-k (module docstring).

    The folded ``ST`` is ``(2, R, n)`` with R = N//2 modes and n = N//2 + 1
    nodes: block 0 holds the odd modes i = 1, 3, ..., block 1 the even
    ones, zero-padded to R rows.  Its columns are the forward operator on
    s (block 0) and d (block 1) at k = 0..N//2, and its columns 1..N//2
    are the back operator too (``_plan_operators``).  For even N the
    middle node is its own mirror and s there is 2 w; the march halves
    that entry of s, not the column, so each value is stored once.  The
    folded ``G`` is ``(M+1, 2, R)``, the same modes.
    """
    N = ST.shape[1] - 1
    R, n = N // 2, N // 2 + 1
    folded = np.zeros((2, R, n))
    G_folded = np.zeros((len(G), 2, R))
    for parity in (0, 1):  # row i-1 of ST holds mode i
        rows = ST[parity::2]
        folded[parity, :len(rows)] = rows[:, :n]
        G_folded[:, parity, :len(rows)] = G[:, parity::2]
    return folded, G_folded


def _plan_operators(h: np.ndarray, dt: float, N: int):
    """``_step_operators`` in the form a plan holds them, ``ST``, ``back``,
    ``G`` and ``lift``: ``ST`` and ``G`` folded (``_fold``) from N =
    ``_FOLD_N`` on.  ``back`` is the back product's operator: below
    ``_FOLD_N`` an F-contiguous copy of ``ST[:, 1:-1].T`` for
    ``ndarray.dot`` (module docstring), from ``_FOLD_N`` on a view of the
    folded ``ST``'s columns 1..N//2, transposed."""
    ST, G, lift = _step_operators(h, dt, N)
    if N >= _FOLD_N:
        ST, G = _fold(ST, G)
        back = ST[..., 1:].transpose(0, 2, 1)
    else:
        back = np.asfortranarray(ST[:, 1:-1].T)
    return ST, back, G, lift


# Bytes of ``_LevelPlan.squared_distance``'s difference buffer: blocks this size
# hold a solve's peak at two frames and cost about what one full-size
# difference does (BENCH_two-frames.json).  A call took 40 us at N = M =
# 100 (one block) and 360 us at 300 (six), against 37 and 282 us for one
# full-size difference and 102 and 479 us for 32-row blocks (median CPU
# time, random frames, 2-vCPU Xeon VM).
_DIFF_BYTES = 1 << 17


@dataclass(frozen=True, eq=False)
class _LevelPlan:
    """The scheme of a solve (module docstring): what its marches share,
    all read-only, and the operations the game reaches the march by.

    It holds level m's spacing ``h[m]`` and right end ``ends[m]``, and the
    step operators ``ST``, ``back``, ``G`` and ``lift`` of
    ``_plan_operators``, built for the boundary speed ``k`` on the time
    grid ``grid``.  ``shape`` is its frames' ``(M+1, N+1)``."""

    k: float
    grid: TimeGrid
    shape: tuple
    h: np.ndarray = field(repr=False)
    ends: np.ndarray = field(repr=False)
    ST: np.ndarray = field(repr=False)
    back: np.ndarray = field(repr=False)
    G: np.ndarray = field(repr=False)
    lift: np.ndarray = field(repr=False)

    @cached_property
    def paired_G(self) -> np.ndarray:
        """``G`` repeated over the two real columns of a complex march's
        products, built by the solve's first complex march: the step scales
        a contiguous row, where ``G`` would broadcast over the columns."""
        G = np.repeat(self.G[..., None], 2, axis=-1)
        G.flags.writeable = False
        return G

    def step_G(self, frames: np.ndarray) -> np.ndarray:
        """The ``G`` a march of ``frames`` scales by: ``paired_G`` for complex frames."""
        return self.paired_G if frames.dtype.kind == "c" else self.G

    @cached_property
    def zero(self) -> np.ndarray:
        """The zero frames, a read-only broadcast that holds no frame memory:
        the march of all-zero data, which need not be marched."""
        return np.broadcast_to(0.0, self.shape)

    def node_row(self, m: int) -> np.ndarray:
        """Level m's nodes in a new row, by ``geometry._node_rows``."""
        return _node_rows(self.h[m], self.ends[m], np.empty(self.shape[1]))

    def target(self, u2) -> np.ndarray:
        """The target u2 on every level: row m holds its values at level m's
        nodes, which a callable u2 is given one row at a time (``node_row``).

        A constant target is a read-only broadcast of its value, which holds
        no frame memory.  A callable returning a scalar is broadcast to the
        level like a constant target; any other shape but one value per node,
        and any complex or non-finite value, is an error.
        """
        if not callable(u2):
            _check_constant_target(u2)
            return np.broadcast_to(float(u2), self.shape)
        out = np.empty(self.shape)
        for m, t in enumerate(self.grid.levels):
            x = self.node_row(m)
            vals = u2(x, float(t))
            _check_real("u2", vals)
            vals = np.asarray(vals, dtype=float)
            if vals.ndim != 0 and vals.shape != x.shape:
                raise ValueError(f"target u2 returned shape {vals.shape} at t={t}, "
                                 f"expected a scalar or {x.shape}")
            if not np.isfinite(vals).all():
                raise ValueError(f"target u2 returned a non-finite value at t={t}")
            out[m] = vals
        return out

    def forward(self, left: np.ndarray, ic0: Optional[np.ndarray] = None,
                ic1: Optional[np.ndarray] = None,
                source: Optional[np.ndarray] = None) -> np.ndarray:
        """``solve_forward``'s march on checked data: new frames."""
        ic0 = ic0 if ic0 is not None else np.zeros(self.shape[1])
        ic1 = ic1 if ic1 is not None else np.zeros(self.shape[1])
        frames = np.empty(self.shape, _frame_dtype(left, ic0, ic1, source))
        _march(self.h, self.ends, self.ST, self.back, self.step_G(frames), self.lift,
               self.grid.dt, ic0, ic1, left, source, frames)
        return frames

    def backward(self, frames: np.ndarray, terminal0: Optional[np.ndarray] = None,
                 terminal1: Optional[np.ndarray] = None) -> np.ndarray:
        """``solve_backward``'s march on checked data, of the source held in
        ``frames``, which it marches in place: ``frames``."""
        term0 = terminal0 if terminal0 is not None else np.zeros(frames.shape[1])
        term1 = terminal1 if terminal1 is not None else np.zeros(frames.shape[1])
        _march(self.h[::-1], self.ends[::-1], self.ST, self.back, self.step_G(frames)[::-1],
               self.lift[::-1], self.grid.dt, term0, -term1, np.zeros(len(frames)),
               frames[::-1], frames[::-1])
        return frames

    def flux(self, frames: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """The outward flux d/d nu = -d/dx of ``frames`` at x = 0 on their
        levels ``idx``, 0 elsewhere: one flux call on the three nodes its
        stencil reads."""
        flux = np.zeros(len(frames))
        flux[idx] = -boundary_flux_left(frames[idx, :3], self.h[idx])
        return flux

    def squared_distance(self, a: np.ndarray, b: np.ndarray) -> float:
        """dt sum_{m<M} of the mass pairing of a[m] - b[m] with itself on
        the plan's spacings: the space-time L2 form of a solve, rectangle
        rule in time.  ``a`` and ``b`` have the plan's shape; either may be
        a broadcast.  The difference is formed in row blocks of at most
        ``_DIFF_BYTES`` in one contiguous buffer; a row's value depends on
        that row alone, so the result has the full-size formula's bits for
        any layout of the frames."""
        M, width = self.grid.M, self.shape[1]
        a, b = a[:M], b[:M]
        rows = np.empty(M)
        step = max(1, _DIFF_BYTES // (8 * width))
        buf = np.empty((min(step, M), width))
        for r in range(0, M, step):
            d = np.subtract(a[r:r + step], b[r:r + step], out=buf[:M - r])
            rows[r:r + step] = _mass_rows(d, d)
        return self.grid.dt * (float(self.h[:M] @ rows) / 6.0)


def _level_plan(spec: MovingDomainSpec, grid: TimeGrid, N: int) -> _LevelPlan:
    """The read-only level plan of ``spec`` on ``grid``, whose horizon T must be the spec's."""
    if spec.T != grid.T:
        raise ValueError(f"spec T={spec.T!r} is not the time grid's T={grid.T!r}")
    h, ends = _level_spacings(spec, grid.levels, N)
    with np.errstate(**_SWEEP_ERRSTATE):
        ops = _plan_operators(h, grid.dt, N)
    plan = _LevelPlan(spec.k, grid, (len(h), N + 1), h, ends, *ops)
    for a in (plan.h, plan.ends, plan.ST, plan.back, plan.G, plan.lift):
        a.flags.writeable = False
    return plan


# Rows of the block a march makes its levels' nodes in (``_level_rows``):
# a block of rows at a time keeps the plan free of a node array
# (BENCH_node-rows.json).  Consecutive blocks overlap by two rows, so a
# block serves _NODE_ROWS - 2 steps.  A march peaks at most 29.4 rows of
# N+1 values beyond its frames (real, backward, N = M = 300;
# tracemalloc), against 20.4 when the plan stored the nodes; 10-row
# blocks cost 1-2% more per march.
_NODE_ROWS = 12


def _level_rows(h: np.ndarray, ends: np.ndarray, N: int):
    """For i = 0..len(h)-2: level i's nodes and the rows of levels i+1
    and i+2 (one row at i = len(h)-2) as one view, made ``_NODE_ROWS``
    rows at a time into one block by ``geometry._node_rows``."""
    block = np.empty((min(_NODE_ROWS, len(h)), N + 1))
    steps = len(block) - 2
    for s in range(0, len(h) - 1, steps):
        rows = _node_rows(h[s:s + len(block)], ends[s:s + len(block)], block[:len(h) - s])
        for i in range(min(steps, len(rows) - 1)):
            yield rows[i], rows[i + 1:i + 3]


def _real_columns(a: np.ndarray) -> np.ndarray:
    """``a`` as real columns on a last axis: the ``(..., 2)`` real view of
    complex data, a ``(..., 1)`` view of real data."""
    return a.view(float).reshape(*a.shape, 2) if a.dtype.kind == "c" else a[..., None]


def _frame_dtype(*data) -> type:
    """The frames' dtype: complex when any of ``data`` is, else float."""
    return complex if any(map(np.iscomplexobj, data)) else float


def _march(h, ends, ST, back, G, lift, dt, x0, v0, left, source, out):
    """Run the three-level implicit scheme over the levels of ``h``, ``G`` and ``lift``.

    Row 0 of ``out`` is the displacement ``x0`` and row 1 the first-order
    start x0 + dt*v0 interpolated onto the second level; for i >= 1 the
    row i+1 solves

        M (v - 2 f~^i + f~^{i-1})/dt^2 + K v = M s^{i+1}

    on level i+1 with Dirichlet values ``left[i+1]`` at x = 0 and 0 at the
    moving end, where the tilde marks interpolation onto that level's
    nodes: j h[i+1], j = 0..N, ending at ``ends[i+1]`` (``_level_rows``).
    All data are in march order; ``source`` may be None.  ``ST``
    and ``back`` are the levels' shared forward and back operators, and
    ``G`` has one row per level in the shape of the forward product:
    ``G`` for real ``out``, ``_LevelPlan.paired_G`` for complex.  ``out``
    is filled in place, one row per level.

    Source rows are pre-scaled in ``out``: the march first writes
    dt^2 s into ``out`` by one call, and step i reads row i+1 as its
    source term before it writes that row's boundary values and then its
    interior.  ``source`` may be ``out`` itself, which the march then
    scales in place (``_LevelPlan.backward``).  Without a source the boundary
    columns are written once, before the steps.

    A step makes only the numpy calls its arithmetic needs: one
    interpolation; 2 r - ahead into a preallocated row ``w``, where r is
    the newest frame on the next two levels and ``ahead`` the previous
    step's second row; with a source the add of row i+1 and its two
    boundary values; the scalar lift on w_0; the forward product into a
    preallocated ``y``; the scaling by G; and the back product, written
    into ``out``.  The rows a step reads or writes come from one ``zip``,
    and the ufuncs take ``out`` positionally, which halves their call
    cost.  An unfolded step is one interpolation and five ufunc or
    product calls, one more and two item writes with a source.

    A complex ``out`` marches two real fields at once, its real and its
    imaginary part: each step forms ``w`` of both parts in one complex
    row, and the two products act on the ``(N+1, 2)`` real view of that
    row as one 2-column product, written into the matching view of
    ``out``.  Real data take the one-column products on ``w`` itself.

    Folded operators (a 3-D ``ST``, see ``_fold``) change only the
    products: the step folds ``w``, through its halves ``lo`` and its
    mirrored ``hi``, into the rows s and d of a buffer, makes the two
    stacked products on the buffer's real columns, and writes a + b into
    the nodes 1..N//2 of ``out``'s real columns and a - b into their
    mirrors N-1..N-N//2 through a reversed view.  For even N the middle
    node is its own mirror: s[-1] = 2 w there, and the step halves it on
    its real columns, an exact scaling that keeps a complex march's two
    parts apart; the node keeps a - b, written last, and b is zero there
    but for roundoff, as ``ST``'s even modes vanish on it.
    Complex data fold as complex numbers, and the products act on the
    same real views.  The back product writes into a buffer whose halves
    a and b are bound once per march; four more ufunc calls per step,
    and for even N the item op that halves s[-1].

    Frame i is needed on level i+1 at step i and on level i+2 at step
    i+1, so step i interpolates it once, onto the two node rows of those
    levels, and keeps the second row for the next step; a prologue puts
    frame 0 on level 2.  A march makes M+1 interpolation calls.
    """
    sourced = source is not None
    if sourced:
        np.multiply(source, dt * dt, out)
    out[0] = x0
    levels = _level_rows(h, ends, out.shape[1] - 1)
    at, onto = next(levels)
    out[1] = interpolate(x0 + dt * v0, onto[0], at)
    set_now = slice(2) if sourced else slice(None)  # rows whose boundary values go in now
    out[set_now, 0] = left[set_now]
    out[set_now, -1] = 0.0
    lifted = (lift * left).tolist()
    w = np.empty(out.shape[1], out.dtype)
    folded = ST.ndim == 3
    if folded:
        n = ST.shape[2]  # the fold's nodes 0..N//2
        u = np.empty((2, n), out.dtype)
        s, d = u
        lo, hi = w[:n], w[:-n - 1:-1]  # the fold's nodes and their mirrors
        x, out_cols = _real_columns(u), _real_columns(out)
        mid = x[0, -1]  # s's real columns at the middle node, halved for even N
        halve = range(len(mid) if len(w) % 2 else 0)
        ab = np.empty((2, n - 1, x.shape[2]))
        a, b = ab
        dest = zip(out_cols[2:, 1:n], out_cols[2:, -2:-n - 1:-1])
    else:
        x, dest = w, out[2:, 1:-1]
        if out.dtype.kind == "c":
            x, dest = _real_columns(w), _real_columns(out)[2:, 1:-1]
    y = np.empty(ST.shape[:-1] + x.shape[ST.ndim - 1:])  # the forward product
    G = G.reshape(len(G), *y.shape)  # a real folded G gains y's column axis
    ahead = interpolate(out[0], onto[1], at)
    steps = zip(out[1:-1], levels, out[2:], G[2:], dest, lifted[2:], left[2:])
    for prev, (at, onto), row, g, into, lifted_0, left_0 in steps:
        r = interpolate(prev, onto, at)
        np.multiply(r[0], 2.0, w)
        np.subtract(w, ahead, w)
        ahead = r[-1]
        if sourced:
            np.add(w, row, w)
            row[0] = left_0
            row[-1] = 0.0
        w[0] -= lifted_0
        if folded:
            np.add(lo, hi, s)
            np.subtract(lo, hi, d)
            for k in halve:  # item ops: a ufunc call on this tiny view costs 2-6 times more
                mid[k] = 0.5 * mid.item(k)
            np.matmul(ST, x, y)
            np.multiply(y, g, y)
            np.matmul(back, y, ab)
            np.add(a, b, into[0])
            np.subtract(a, b, into[1])
        else:
            ST.dot(x, y)
            np.multiply(y, g, y)
            back.dot(y, into)


def solve_forward(left_boundary: np.ndarray, spec: MovingDomainSpec, grid: TimeGrid, N: int,
                  *, ic0: Optional[np.ndarray] = None, ic1: Optional[np.ndarray] = None,
                  source: Optional[np.ndarray] = None) -> Trajectory:
    """March the three-level implicit scheme from t = 0.

    ``left_boundary`` ``(M+1,)`` prescribes the Dirichlet value at x = 0
    for every level; the moving endpoint is always 0.  ``ic0`` and
    ``ic1`` are the initial displacement and velocity, ``(N+1,)`` arrays
    (zero when None).  ``source`` is an optional ``(M+1, N+1)`` forcing
    paired against test functions (the backward/forward equivalence
    oracle uses it; the game's systems are homogeneous).

    Frame 0 is the initial displacement, frame 1 the first-order start
    ic0 + dt*ic1, both carrying the prescribed boundary values; for
    m >= 1 the frame m+1 solves

        M (v - 2 u~^m + u~^{m-1})/dt^2 + K v = M s^{m+1}

    on the level-(m+1) nodes, where the tilde marks interpolation of the
    earlier frames onto them.  Data of the wrong shape or holding a
    non-finite value are a ``ValueError`` naming the argument.
    """
    shape = (grid.M + 1, N + 1)
    if np.shape(left_boundary) != shape[:1]:
        raise ValueError(f"left boundary has shape {np.shape(left_boundary)}, expected "
                         f"{shape[:1]}: one value for each of the {grid.M + 1} levels")
    _check_shape("ic0", ic0, shape[1:])
    _check_shape("ic1", ic1, shape[1:])
    _check_shape("source", source, shape)
    for name, a in (("left_boundary", left_boundary), ("ic0", ic0), ("ic1", ic1),
                    ("source", source)):
        _check_finite(name, a)
    plan = _level_plan(spec, grid, N)
    return Trajectory(plan, plan.forward(left_boundary, ic0, ic1, source))


def solve_backward(source: np.ndarray, spec: MovingDomainSpec, grid: TimeGrid, N: int, *,
                   terminal0: Optional[np.ndarray] = None,
                   terminal1: Optional[np.ndarray] = None) -> Trajectory:
    """March the adjoint-type scheme from t = T down to t = 0.

    Boundary values are homogeneous at both ends.  ``source`` is an
    ``(M+1, N+1)`` array; ``terminal0`` and ``terminal1`` are the state
    and its time derivative at t = T, ``(N+1,)`` arrays (zero when
    None).  Frames M and M-1 are seeded as terminal0 and
    terminal0 - dt*terminal1, mirroring the forward starting rule; for m
    from M-1 down to 1 the frame m-1 solves

        M (p~^{m+1} - 2 p~^m + v)/dt^2 + K v = M s^{m-1}

    on the level-(m-1) nodes with homogeneous Dirichlet values.  This is
    the forward march on the reversed levels with -terminal1 as the
    start velocity.  Data of the wrong shape or holding a non-finite
    value are a ``ValueError`` naming the argument.
    """
    shape = (grid.M + 1, N + 1)
    _check_given("source", source, shape)
    _check_shape("terminal0", terminal0, shape[1:])
    _check_shape("terminal1", terminal1, shape[1:])
    for name, a in (("source", source), ("terminal0", terminal0), ("terminal1", terminal1)):
        _check_finite(name, a)
    plan = _level_plan(spec, grid, N)
    frames = np.array(source, _frame_dtype(source, terminal0, terminal1), order="C")
    return Trajectory(plan, plan.backward(frames, terminal0, terminal1))


def trajectory_l2_distance(a: Trajectory, b: Trajectory) -> float:
    """Space-time L2 distance, rectangle rule in time, mass pairing in space
    (``_LevelPlan.squared_distance``).  ``b``'s plan must be built for the ``k`` and
    the grid of ``a``'s: the pairing reads ``a``'s level spacings for both."""
    _check_real("trajectory a", a.frames)
    _check_real("trajectory b", b.frames)
    if a.frames.shape != b.frames.shape:
        raise ValueError(f"trajectories of frame shapes {a.frames.shape} and "
                         f"{b.frames.shape} live on different grids")
    for name, have, want in (("k", b.plan.k, a.plan.k), ("T", b.grid.T, a.grid.T)):
        if have != want:
            raise ValueError(f"level plan was built for {name}={have!r}, "
                             f"expected {name}={want!r}")
    return math.sqrt(a.plan.squared_distance(a.frames, b.frames))


def trajectory_l2_norm(a: Trajectory) -> float:
    """Space-time L2 norm of ``a``: its ``trajectory_l2_distance`` from the zero field."""
    _check_real("trajectory a", a.frames)
    return math.sqrt(a.plan.squared_distance(a.frames, a.plan.zero))


def duality_residual(control: np.ndarray, segment: tuple, source: np.ndarray,
                     spec: MovingDomainSpec, grid: TimeGrid, N: int) -> float:
    """Consistency gap between the state/adjoint pairing and the boundary term.

    Drives u-hat forward with the boundary data ``control``, an
    ``(M+1,)`` array taken as zero off ``segment``, and zero initial
    data, drives p backward with the ``(M+1, N+1)`` source, and compares
    the volume pairing sum_m dt <source^m, u-hat^m> against the boundary
    pairing sum_m dt (d p/d nu)(0, t^m) w^m, where d/d nu = -d/dx is the
    outward conormal derivative at the controlled end.  The two agree up
    to the O(dt + h^2) mismatch of the marching pair; the return value is
    their absolute sum over the larger magnitude.
    """
    _check_control("control", control, grid)
    idx = _segment_levels("segment", segment, grid)
    on_segment = np.zeros_like(control)
    on_segment[idx] = control[idx]
    plan = _level_plan(spec, grid, N)
    _check_given("source", source, plan.shape)
    _check_real("source", source)
    _check_finite("source", source)
    u_hat = plan.forward(grid.trace(on_segment))
    p = plan.backward(np.array(source, float, order="C"))

    M = grid.M
    volume = grid.dt * _mass_pairing(source[:M], u_hat[:M], plan.h[:M])
    boundary = grid.control_inner(plan.flux(p, idx), control, idx)
    scale = max(abs(volume), abs(boundary))
    if scale == 0.0:
        return 0.0
    return abs(volume + boundary) / scale
