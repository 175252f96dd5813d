import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from snwave import (
    MovingDomainSpec,
    SNConfig,
    boundary_flux_left,
    build_time_grid,
    duality_residual,
    fixed_point_solve,
    interpolate,
    solve_backward,
    solve_forward,
    trajectory_l2_distance,
    trajectory_l2_norm,
)
import snwave.game as game
import snwave.solvers as solvers
from snwave.fem import _mass_pairing
from p1_dense import dense_step, mass_matrix, stiffness_matrix
from snwave.geometry import level_nodes, segment_mask
from snwave.solvers import (Trajectory, _FOLD_N, _left_trace, _level_plan, _march,
                             _march_backward, _march_forward, _plan_operators, _sine_basis,
                             _step_operators)
from snwave.verification import _duality_probe

# Relative tolerance of the fused sine-basis step against the dense
# reference: both solve the same SPD systems, so they differ by roundoff
# only (about 1e-15 per step).
ORACLE_RTOL = 1e-12


def reference_forward(left_boundary, spec, grid, N, *, ic0, ic1, source):
    """Forward march with per-step dense assembly and solves."""
    h, nodes = level_nodes(spec, grid.levels, N)
    dt, left = grid.dt, left_boundary
    frames = [ic0.copy()]
    frames[0][[0, -1]] = left[0], 0.0
    frames.append(interpolate(ic0 + dt * ic1, nodes[1], nodes[0]))
    frames[1][[0, -1]] = left[1], 0.0
    for m in range(1, grid.M):
        x = nodes[m + 1]
        um = interpolate(frames[m], x, nodes[m])
        umm = interpolate(frames[m - 1], x, nodes[m - 1])
        mass = mass_matrix(N, h[m + 1])
        rhs = mass @ ((2.0 * um - umm) / dt**2) + mass @ source[m + 1]
        frames.append(dense_step(h[m + 1], dt, rhs, left[m + 1]))
    return frames


def reference_backward(source, spec, grid, N, *, terminal0, terminal1):
    """Backward march with per-step dense assembly and solves."""
    h, nodes = level_nodes(spec, grid.levels, N)
    dt, M = grid.dt, grid.M
    frames = [None] * (M + 1)
    frames[M] = terminal0.copy()
    frames[M][[0, -1]] = 0.0
    frames[M - 1] = interpolate(terminal0 - dt * terminal1, nodes[M - 1], nodes[M])
    frames[M - 1][[0, -1]] = 0.0
    for m in range(M - 1, 0, -1):
        x = nodes[m - 1]
        pp = interpolate(frames[m + 1], x, nodes[m + 1])
        pm = interpolate(frames[m], x, nodes[m])
        rhs = mass_matrix(N, h[m - 1]) @ (source[m - 1] + (2.0 * pm - pp) / dt**2)
        frames[m - 1] = dense_step(h[m - 1], dt, rhs, 0.0)
    return frames


def reference_march(nodes, ST, G, lift, dt, x0, v0, left, source, out):
    """``_march`` with two interpolation calls per step, frames i and i-1
    onto level i+1: the reference for the one call per frame of the
    library, which must give the same bits."""
    out[0] = x0
    out[1] = interpolate(x0 + dt * v0, nodes[1], nodes[0])
    out[:, 0] = left
    out[:, -1] = 0.0
    dt2 = dt * dt
    lifted = (lift * left).tolist()
    back = ST[:, 1:-1].T
    for i in range(1, len(nodes) - 1):
        x = nodes[i + 1]
        w = interpolate(out[i], x, nodes[i])
        w *= 2.0
        w -= interpolate(out[i - 1], x, nodes[i - 1])
        if source is not None:
            w += dt2 * source[i + 1]
        w[0] -= lifted[i + 1]
        y = ST @ w
        y *= G[i + 1]
        np.matmul(back, y, out=out[i + 1, 1:-1])


def paired(re, im):
    """The march data of ``re`` plus i times those of ``im``, dicts of keyword arguments."""
    return {name: re[name] + 1j * im[name] for name in re}


def assert_frames_close(traj, ref):
    scale = max(np.max(np.abs(f)) for f in ref)
    gap = max(np.max(np.abs(f - r)) for f, r in zip(traj.frames, ref))
    assert gap <= ORACLE_RTOL * scale


def l2q_error_vs_separable(traj, exact):
    """Space-time L2 distance to an exact solution x, t -> u(x, t)."""
    acc = 0.0
    grid, plan, nodes = traj.grid, traj.plan, traj.plan.nodes
    N = plan.shape[1] - 1
    for m in range(grid.M):
        d = traj.frames[m] - exact(nodes[m], grid.levels[m])
        acc += grid.dt * float(d @ mass_matrix(N, plan.h[m]) @ d)
    return np.sqrt(acc)


def manufactured_error(NM):
    spec = MovingDomainSpec(k=0.0, T=1.0)
    grid = build_time_grid(1.0, NM)
    _, x = level_nodes(spec, 0.0, NM)
    traj = solve_forward(np.zeros(NM + 1), spec, grid, NM,
                         ic0=np.sin(np.pi * x), ic1=np.zeros(NM + 1))
    return l2q_error_vs_separable(
        traj, lambda x, t: np.sin(np.pi * x) * np.cos(np.pi * t))


class TestForward:
    def test_zero_data_is_exactly_zero(self):
        spec = MovingDomainSpec(k=0.25, T=4.0)
        grid = build_time_grid(4.0, 24)
        traj = solve_forward(np.zeros(25), spec, grid, 16)
        assert traj.frames.shape == (25, 17)
        assert np.all(traj.frames == 0.0)

    def test_manufactured_convergence_one_step(self):
        assert manufactured_error(50) / manufactured_error(100) >= 1.7

    def test_dirichlet_exactness_moving_domain(self):
        spec = MovingDomainSpec(k=0.25, T=2.0)
        grid = build_time_grid(2.0, 20)
        traj = solve_forward(np.ones(21), spec, grid, 12)
        for m in range(1, 21):
            assert traj.frames[m, 0] == 1.0
            assert traj.frames[m, -1] == 0.0

    def test_linearity(self):
        spec = MovingDomainSpec(k=0.25, T=2.0)
        grid = build_time_grid(2.0, 32)
        rng = np.random.default_rng(5)
        b1 = rng.standard_normal(33)
        b2 = rng.standard_normal(33)
        a, b = 2.5, -1.25
        t1 = solve_forward(b1, spec, grid, 24)
        t2 = solve_forward(b2, spec, grid, 24)
        t12 = solve_forward(a * b1 + b * b2, spec, grid, 24)
        for m in range(33):
            combo = a * t1.frames[m] + b * t2.frames[m]
            scale = max(1.0, np.max(np.abs(combo)))
            assert np.max(np.abs(t12.frames[m] - combo)) <= 1e-10 * scale

    def test_energy_dissipation_fixed_domain(self):
        NM = 64
        spec = MovingDomainSpec(k=0.0, T=1.0)
        grid = build_time_grid(1.0, NM)
        h, x = level_nodes(spec, 0.0, NM)
        traj = solve_forward(np.zeros(NM + 1), spec, grid, NM,
                             ic0=np.sin(np.pi * x) + 0.3 * np.sin(3 * np.pi * x),
                             ic1=0.5 * np.sin(2 * np.pi * x))
        mass, stiff = mass_matrix(NM, h), stiffness_matrix(NM, h)
        energy = []
        for m in range(NM):
            d = (traj.frames[m + 1] - traj.frames[m]) / grid.dt
            energy.append(float(d @ mass @ d)
                          + float(traj.frames[m + 1] @ stiff @ traj.frames[m]))
        assert np.all(np.diff(energy) <= 1e-10 * max(1.0, abs(energy[0])))

    def test_boundary_length_mismatch(self):
        spec = MovingDomainSpec(k=0.25, T=1.0)
        grid = build_time_grid(1.0, 10)
        with pytest.raises(ValueError, match="levels"):
            solve_forward(np.zeros(5), spec, grid, 8)

    def test_two_dimensional_boundary_rejected(self):
        # M+1 rows pass a length check; the shape must be (M+1,)
        spec = MovingDomainSpec(k=0.25, T=1.0)
        grid = build_time_grid(1.0, 10)
        with pytest.raises(ValueError, match=r"left boundary has shape \(11, 2\).*levels"):
            solve_forward(np.zeros((11, 2)), spec, grid, 8)


class TestBackward:
    def test_zero_source_zero_terminal(self):
        spec = MovingDomainSpec(k=0.25, T=2.0)
        grid = build_time_grid(2.0, 16)
        src = np.zeros((17, 13))
        traj = solve_backward(src, spec, grid, 12)
        assert traj.frames.shape == (17, 13)
        assert np.all(traj.frames == 0.0)

    def test_equals_reversed_forward_on_fixed_domain(self):
        NM = 64
        spec = MovingDomainSpec(k=0.0, T=1.0)
        grid = build_time_grid(1.0, NM)
        _, x = level_nodes(spec, 0.0, NM)
        src = np.array([np.sin(2 * np.pi * x) * np.cos(3.0 * t) + 0.3 * x * (1 - x) * t
                        for t in grid.levels])
        back = solve_backward(src, spec, grid, NM)
        fwd = solve_forward(np.zeros(NM + 1), spec, grid, NM,
                            source=np.array([src[NM - m] for m in range(NM + 1)]))
        for m in range(NM + 1):
            gap = np.max(np.abs(back.frames[NM - m] - fwd.frames[m]))
            assert gap <= 1e-10

    def test_constant_source_symmetric_solution(self):
        NM = 40
        spec = MovingDomainSpec(k=0.0, T=1.0)
        grid = build_time_grid(1.0, NM)
        src = np.ones((NM + 1, NM + 1))
        traj = solve_backward(src, spec, grid, NM)
        for f in traj.frames:
            assert np.max(np.abs(f - f[::-1])) <= 1e-11

    def test_linearity(self):
        spec = MovingDomainSpec(k=0.3, T=1.5)
        grid = build_time_grid(1.5, 24)
        rng = np.random.default_rng(9)
        s1 = np.array([rng.standard_normal(17) for _ in grid.levels])
        s2 = np.array([rng.standard_normal(17) for _ in grid.levels])
        a, b = 1.5, -0.75
        t1 = solve_backward(s1, spec, grid, 16)
        t2 = solve_backward(s2, spec, grid, 16)
        s12 = a * s1 + b * s2
        t12 = solve_backward(s12, spec, grid, 16)
        for m in range(25):
            combo = a * t1.frames[m] + b * t2.frames[m]
            scale = max(1.0, np.max(np.abs(combo)))
            assert np.max(np.abs(t12.frames[m] - combo)) <= 1e-10 * scale

    def test_terminal_data_seeds_last_two_frames(self):
        spec = MovingDomainSpec(k=0.0, T=1.0)
        grid = build_time_grid(1.0, 10)
        _, x = level_nodes(spec, 1.0, 10)
        f0 = x * (1 - x)
        src = np.zeros((11, 11))
        traj = solve_backward(src, spec, grid, 10, terminal0=f0)
        np.testing.assert_allclose(traj.frames[10], f0, atol=0)
        np.testing.assert_allclose(traj.frames[9], f0, atol=0)


class TestThomasOracle:
    """The sine-basis march against per-step dense assembly and
    ``np.linalg.solve`` (``p1_dense``), which share neither its stencils
    nor its basis."""

    @staticmethod
    def _setup():
        spec = MovingDomainSpec(k=0.25, T=3.0)
        grid = build_time_grid(3.0, 36)
        N = 24
        _, nodes = level_nodes(spec, grid.levels, N)
        source = np.array([np.sin(np.pi * x / x[-1]) * np.cos(t) + 0.5 * x * t
                           for x, t in zip(nodes, grid.levels)])
        return spec, grid, N, nodes, source

    @pytest.mark.parametrize("N", [2, 3, 100, 300, 301])  # 300, 301: folded (even, odd N)
    @pytest.mark.parametrize("dt_over_h", [1.0, 0.1])  # off_m < 0, off_m > 0
    def test_step_solve_matches_thomas(self, N, dt_over_h):
        """One fused step of ``_march`` on the operators a plan holds: with
        zero start frames, level 2 solves (M/dt^2 + K) v = M s with the
        Dirichlet value left[2]."""
        h = 1.3 / N
        dt = dt_over_h * h
        off = -1.0 / h + h / (6.0 * dt**2)
        assert (off > 0.0) == (dt_over_h < 0.5)
        rng = np.random.default_rng(N)
        source = rng.standard_normal((3, N + 1))
        left = np.array([0.0, 0.0, rng.standard_normal()])
        out = np.empty((3, N + 1))
        zero = np.zeros(N + 1)
        # three levels on [0, 1.3], the nodes of np.linspace(0.0, 1.3, N + 1)
        _march(np.full(3, h), np.full(3, 1.3), *_plan_operators(np.full(3, h), dt, N), dt,
               zero, zero, left, source, out)
        ref = dense_step(h, dt, mass_matrix(N, h) @ source[2], left[2])
        assert np.max(np.abs(out[2] - ref)) <= ORACLE_RTOL * np.max(np.abs(ref))

    def test_forward_matches_thomas_march(self):
        spec, grid, N, nodes, source = self._setup()
        x = nodes[0]
        left = np.sin(0.7 * grid.levels) + 0.2
        data = dict(ic0=np.cos(2.0 * x) * (1.0 - x), ic1=x * (1.0 - x) - 0.3, source=source)
        assert_frames_close(solve_forward(left, spec, grid, N, **data),
                            reference_forward(left, spec, grid, N, **data))

    def test_backward_matches_thomas_march(self):
        spec, grid, N, nodes, source = self._setup()
        x = nodes[-1]
        L = x[-1]
        data = dict(terminal0=np.sin(np.pi * x / L) + 0.1 * x, terminal1=x * (L - x) - 0.4)
        assert_frames_close(solve_backward(source, spec, grid, N, **data),
                            reference_backward(source, spec, grid, N, **data))


class TestOneInterpolationPerFrame:
    """Each frame is interpolated once, onto the next two levels: the
    same bits as the two-call reference, and M+1 calls per march."""

    @staticmethod
    def _data(k, N, M):
        spec = MovingDomainSpec(k=k, T=3.0)
        grid = build_time_grid(3.0, M)
        rng = np.random.default_rng(100 * N + M)
        forward = dict(left_boundary=np.sin(0.7 * grid.levels) + 0.2,
                       ic0=rng.standard_normal(N + 1),
                       ic1=rng.standard_normal(N + 1),
                       source=rng.standard_normal((M + 1, N + 1)))
        backward = dict(source=rng.standard_normal((M + 1, N + 1)),
                        terminal0=rng.standard_normal(N + 1),
                        terminal1=rng.standard_normal(N + 1))
        return spec, grid, forward, backward

    @pytest.mark.parametrize("k", [0.0, 0.25])
    @pytest.mark.parametrize("N", [2, 3, 100])
    @pytest.mark.parametrize("M", [2, 3, 12])  # M=2: one step, a one-row block
    def test_same_bits_as_two_calls_per_step(self, k, N, M):
        spec, grid, forward, backward = self._data(k, N, M)
        plan = _level_plan(spec, grid, N)
        ref = np.empty((M + 1, N + 1))
        reference_march(plan.nodes, plan.ST, plan.G, plan.lift, grid.dt, forward["ic0"],
                        forward["ic1"], forward["left_boundary"], forward["source"], ref)
        got = solve_forward(spec=spec, grid=grid, N=N, **forward).frames
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))
        reference_march(plan.nodes[::-1], plan.ST, plan.G[::-1], plan.lift[::-1], grid.dt,
                        backward["terminal0"], -backward["terminal1"], np.zeros(M + 1),
                        backward["source"][::-1], ref[::-1])
        got = solve_backward(spec=spec, grid=grid, N=N, **backward).frames
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))

    @staticmethod
    def _random_data(grid, N, seed):
        M = grid.M
        rng = np.random.default_rng(seed)
        forward = dict(left_boundary=rng.standard_normal(M + 1),
                       ic0=rng.standard_normal(N + 1),
                       ic1=rng.standard_normal(N + 1),
                       source=rng.standard_normal((M + 1, N + 1)))
        backward = dict(source=rng.standard_normal((M + 1, N + 1)),
                        terminal0=rng.standard_normal(N + 1),
                        terminal1=rng.standard_normal(N + 1))
        return forward, backward

    @pytest.mark.parametrize("k", [0.0, 0.25])
    @pytest.mark.parametrize("N", [2, 3, 100, 300])  # 300: folded operators
    @pytest.mark.parametrize("M", [2, 3, 12])
    def test_complex_march_is_two_real_marches(self, k, N, M):
        spec, grid, *re = self._data(k, N, M)
        im = self._random_data(grid, N, seed=1)
        for solve, a, b in zip((solve_forward, solve_backward), re, im):
            got = solve(spec=spec, grid=grid, N=N, **paired(a, b)).frames
            for part, data in ((got.real, a), (got.imag, b)):
                ref = solve(spec=spec, grid=grid, N=N, **data).frames
                assert np.max(np.abs(part - ref)) <= ORACLE_RTOL * np.max(np.abs(ref))

    @pytest.mark.parametrize("N", [2, 3, 100])
    def test_real_part_reads_no_imaginary_part(self, N):
        spec, grid, *re = self._data(0.25, N, 12)
        for solve, a, b, c in zip((solve_forward, solve_backward), re,
                                  self._random_data(grid, N, seed=1),
                                  self._random_data(grid, N, seed=2)):
            ab = solve(spec=spec, grid=grid, N=N, **paired(a, b)).frames
            ac = solve(spec=spec, grid=grid, N=N, **paired(a, c)).frames
            assert not np.array_equal(ab.imag, ac.imag)
            np.testing.assert_array_equal(ab.real.view(np.int64), ac.real.view(np.int64))

    @pytest.mark.parametrize("M", [2, 3, 12])
    def test_interpolations_per_march(self, monkeypatch, M):
        count = [0]
        interp = solvers.interpolate

        def counted(*args):
            count[0] += 1
            return interp(*args)

        monkeypatch.setattr(solvers, "interpolate", counted)
        spec, grid, forward, backward = self._data(0.25, 10, M)
        solve_forward(spec=spec, grid=grid, N=10, **forward)
        assert count[0] == M + 1
        solve_backward(spec=spec, grid=grid, N=10, **backward)
        assert count[0] == 2 * (M + 1)


class TestReflectionFold:
    """From N = ``_FOLD_N`` on, a plan holds ``ST`` and ``G`` folded by
    the sine basis's reflection k -> N-k, and a step makes its two
    products on the folded halves."""

    @pytest.mark.parametrize("N", [299, 300, 301])
    def test_reflection_identity(self, N):
        ST = _step_operators(np.ones(1), 1.0, N)[0]
        sign = (-1.0) ** np.arange(2, N + 1)[:, None]  # (-1)^(i+1), mode i on row i-1
        assert np.max(np.abs(ST[:, ::-1] - sign * ST)) <= 1e-14 * np.max(np.abs(ST))

    @pytest.mark.parametrize("N", [_FOLD_N, _FOLD_N + 1, 300])
    def test_marches_match_unfolded_reference(self, N):
        """``solve_forward``/``solve_backward`` on a folded plan against
        ``reference_march`` on ``_step_operators``' ``ST`` and ``G``, with
        a lift, a source and start or terminal data."""
        spec, grid, forward, backward = TestOneInterpolationPerFrame._data(0.25, N, 12)
        plan = _level_plan(spec, grid, N)
        assert plan.ST.ndim == 3
        ST, G, lift = _step_operators(plan.h, grid.dt, N)
        np.testing.assert_array_equal(lift, plan.lift)
        ref = np.empty((grid.M + 1, N + 1))
        reference_march(plan.nodes, ST, G, lift, grid.dt, forward["ic0"], forward["ic1"],
                        forward["left_boundary"], forward["source"], ref)
        got = solve_forward(spec=spec, grid=grid, N=N, **forward).frames
        assert np.max(np.abs(got - ref)) <= ORACLE_RTOL * np.max(np.abs(ref))
        reference_march(plan.nodes[::-1], ST, G[::-1], lift[::-1], grid.dt,
                        backward["terminal0"], -backward["terminal1"], np.zeros(grid.M + 1),
                        backward["source"][::-1], ref[::-1])
        got = solve_backward(spec=spec, grid=grid, N=N, **backward).frames
        assert np.max(np.abs(got - ref)) <= ORACLE_RTOL * np.max(np.abs(ref))

    @pytest.mark.parametrize("N", [_FOLD_N - 1, _FOLD_N])
    def test_selection_by_N(self, N):
        grid = build_time_grid(3.0, 4)
        plan = _level_plan(MovingDomainSpec(k=0.25, T=3.0), grid, N)
        if N < _FOLD_N:
            assert plan.ST.shape == (N - 1, N + 1)
            assert plan.G.shape == (grid.M + 1, N - 1)
        else:
            assert plan.ST.shape == (2, N // 2, N // 2 + 1)
            assert plan.G.shape == (grid.M + 1, 2, N // 2)
            assert plan.back.base is plan.ST  # the back operator stores no value twice
            np.testing.assert_array_equal(plan.back, plan.ST[..., 1:].transpose(0, 2, 1))
            with pytest.raises(ValueError, match="read-only"):
                plan.back[0, 0, 0] = 0.0

    def test_folded_operators_are_read_only(self):
        plan = _level_plan(MovingDomainSpec(k=0.25, T=3.0), build_time_grid(3.0, 4), _FOLD_N)
        with pytest.raises(ValueError, match="read-only"):
            plan.ST[0, 0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            plan.G[0, 0, 0] = 0.0


class TestLevelPlan:
    @pytest.mark.parametrize("t", [0.0, 0.3, 1.7, 4.0])
    @pytest.mark.parametrize("N", [2, 3, 100, 300])
    def test_mesh_nodes_bitwise_equal_to_linspace(self, t, N):
        spec = MovingDomainSpec(k=0.37, T=4.0)
        _, x = level_nodes(spec, t, N)
        np.testing.assert_array_equal(x, np.linspace(0.0, 1.0 + 0.37 * t, N + 1))
        assert x[-1] == 1.0 + 0.37 * t

    def test_plan_meshes_and_basis(self):
        for k in (0.0, 0.25, 0.5):
            spec = MovingDomainSpec(k=k, T=3.0)
            for M in (7, 12):
                grid = build_time_grid(3.0, M)
                for N in (2, 3, 100, 300):
                    plan = _level_plan(spec, grid, N)
                    assert plan.h.shape == (M + 1,)
                    nodes = plan.nodes
                    assert nodes.shape == plan.shape == (M + 1, N + 1)
                    for m, t in enumerate(grid.levels):
                        h, x = level_nodes(spec, t, N)
                        assert plan.h[m].view(np.int64) == h.view(np.int64)
                        np.testing.assert_array_equal(nodes[m].view(np.int64),
                                                      x.view(np.int64))
        grid = build_time_grid(3.0, 12)
        dt2 = grid.dt**2
        for N in (2, 3, 10, 100):
            plan = _level_plan(MovingDomainSpec(k=0.25, T=3.0), grid, N)
            S, c = _sine_basis(N)
            T = np.zeros((N - 1, N + 1))
            for i in range(N - 1):
                T[i, i:i + 3] = (1.0, 4.0, 1.0)
            atol = 1e-14 * np.max(np.abs(S))
            np.testing.assert_allclose(plan.ST, S @ T, rtol=0, atol=atol)
            # S T_int = diag(4 + c) S, which lets the step's back-transform
            # read ST: the identity the fused step rests on
            np.testing.assert_allclose(plan.ST[:, 1:-1], (4.0 + c)[:, None] * S,
                                       rtol=0, atol=atol)
            h = plan.h[:, None]
            scale = h / (6.0 * dt2)
            off = -1.0 / h + h / (6.0 * dt2)
            eig = 2.0 / h + 2.0 * h / (3.0 * dt2) + off * c
            np.testing.assert_allclose(plan.G, scale / (eig * (4.0 + c)), rtol=1e-14)
            np.testing.assert_allclose(plan.lift, (off / scale)[:, 0], rtol=1e-14)

    @pytest.mark.parametrize("N", [2, 3, 10, 17, 100, 101, 199, 200, 299, 300, 301, 1000])
    def test_sine_table_has_the_bits_of_the_direct_formula(self, N):
        """``_sine_basis`` gathers S from 2N scaled sines, in blocks of rows
        (N = 17: one full block and one row); the direct formula, sin of
        every reduced angle, gives the same bits."""
        j = np.arange(1.0, N)
        S = np.multiply.outer(j, j)
        np.fmod(S, 2.0 * N, out=S)
        S *= math.pi / N
        np.sin(S, out=S)
        S *= math.sqrt(2.0 / N)
        got, c = _sine_basis(N)
        np.testing.assert_array_equal(got.view(np.int64), S.view(np.int64))
        np.testing.assert_array_equal(c.view(np.int64),
                                      (2.0 * np.cos(j * (math.pi / N))).view(np.int64))

    @pytest.mark.parametrize("N", [300, 1000])
    def test_sine_basis_build_peaks_near_its_own_size(self, N):
        """The gather holds a block of indices, not a full ``(N-1)^2``
        index array beside S, which would double the build's peak."""
        _sine_basis(N)  # first calls fill numpy's own caches outside the measure
        tracemalloc.start()
        try:
            _sine_basis(N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * (N - 1) ** 2 * 8


class TestShapeChecks:
    """Wrong-shaped data raise a ValueError naming the argument."""

    N, M = 8, 6

    @classmethod
    def _solve(cls, name, value):
        spec = MovingDomainSpec(k=0.25, T=1.0)
        grid = build_time_grid(1.0, cls.M)
        if name in ("ic0", "ic1"):
            return solve_forward(np.zeros(cls.M + 1), spec, grid, cls.N, **{name: value})
        if name in ("terminal0", "terminal1"):
            return solve_backward(np.zeros((cls.M + 1, cls.N + 1)), spec, grid, cls.N,
                                  **{name: value})
        if name == "source":
            return solve_backward(value, spec, grid, cls.N)
        if name == "forward source":
            return solve_forward(np.zeros(cls.M + 1), spec, grid, cls.N, source=value)
        cfg = SNConfig(sigma=100.0, max_iter=1, phi_terminal=value)
        return fixed_point_solve(cfg, spec, grid, cls.N)

    @pytest.mark.parametrize("name,value,match", [
        ("ic0", np.ones(N), "ic0"),
        ("ic1", np.ones(N + 2), "ic1"),
        ("terminal0", np.ones(N), "terminal0"),
        ("terminal1", np.ones((2, N + 1)), "terminal1"),
        ("source", np.ones((M, N + 1)), "source"),
        ("source", np.ones((M + 1, N)), "source"),
        ("forward source", np.ones((M + 2, N + 1)), "source"),
        ("forward source", np.ones((M + 1, N + 2)), "source"),
        ("phi_terminal", (np.ones(N), None), r"phi_terminal\[0\]"),
        ("phi_terminal", (None, np.zeros(N + 2)), r"phi_terminal\[1\]"),
        ("phi_terminal", (np.zeros(N), None), r"phi_terminal\[0\]"),
        ("source", None, rf"^source is None, expected shape \({M + 1}, {N + 1}\)$"),
    ])
    def test_wrong_shape_names_argument(self, name, value, match):
        with pytest.raises(ValueError, match=match):
            self._solve(name, value)

    def test_right_shapes_pass(self):
        for name, value in (("ic0", np.ones(self.N + 1)), ("terminal1", np.ones(self.N + 1)),
                            ("source", np.ones((self.M + 1, self.N + 1))),
                            ("phi_terminal", (np.ones(self.N + 1), None))):
            self._solve(name, value)


class TestUnderflowingTimeStep:
    """At T = 1e-300, dt^2 underflows to 0 and a plan-less march builds
    non-finite step operators.  It returns non-finite frames without a
    numpy warning."""

    spec = MovingDomainSpec(k=0.25, T=1e-300)
    grid = build_time_grid(1e-300, 10)

    def test_forward_without_plan(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = solve_forward(np.ones(11), self.spec, self.grid, 10)
        assert not np.isfinite(traj.frames).all()

    def test_backward_without_plan(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = solve_backward(np.ones((11, 11)), self.spec, self.grid, 10)
        assert not np.isfinite(traj.frames).all()


class TestMarchMemory:
    """A march allocates its frames and a few rows of N+1 values besides:
    the step row, its source term, the interpolated rows and the products.
    A full-size temporary, such as the whole source scaled once per march,
    takes M+1 rows.  tracemalloc sees numpy's buffers."""

    @pytest.mark.parametrize("N", [100, 300])  # 300: folded operators
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_peak_beyond_the_frames(self, N, dtype):
        spec = MovingDomainSpec(k=0.25, T=3.0)
        grid = build_time_grid(3.0, N)
        plan = _level_plan(spec, grid, N)
        rng = np.random.default_rng(N)

        def data(*shape):
            a = rng.standard_normal(shape)
            return a + 1j * rng.standard_normal(shape) if dtype is complex else a

        left, x0, x1, source = data(N + 1), data(N + 1), data(N + 1), data(N + 1, N + 1)
        row = (N + 1) * np.dtype(dtype).itemsize
        for march in (
            lambda: _march_forward(left, plan, x0, x1, source),
            lambda: _march_backward(source, np.empty((N + 1, N + 1), dtype), plan, x0, x1),
        ):
            march()  # first calls fill numpy's own caches outside the measure
            tracemalloc.start()
            try:
                march()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - (N + 1) * row < 32 * row


class TestNodeBlocks:
    """A march makes its levels' nodes ``_NODE_ROWS`` rows at a time, in
    blocks that overlap by two rows; a single block of every level gives
    the same frames."""

    # M is no multiple of the block; at 12 rows, M = 101 ends on a 2-row block
    @pytest.mark.parametrize("N,M", [(100, 101), (100, 37), (300, 293)])  # 300: folded
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_frames_do_not_depend_on_the_block_size(self, monkeypatch, N, M, dtype):
        spec = MovingDomainSpec(k=0.25, T=3.0)
        plan = _level_plan(spec, build_time_grid(3.0, M), N)
        rng = np.random.default_rng(M)

        def data(*shape):
            a = rng.standard_normal(shape)
            return a + 1j * rng.standard_normal(shape) if dtype is complex else a

        left, x0, x1, source = data(M + 1), data(N + 1), data(N + 1), data(M + 1, N + 1)

        def marches():
            return (_march_forward(left, plan, x0, x1, source).frames,
                    _march_backward(source, np.empty((M + 1, N + 1), dtype), plan, x0, x1).frames)

        blocked = marches()
        monkeypatch.setattr(solvers, "_NODE_ROWS", M + 2)
        for got, want in zip(blocked, marches()):
            np.testing.assert_array_equal(got, want)


class TestPreScaledSource:
    """A march writes dt^2 times its source into its own frames and reads
    each row back as the step's source term: the caller's source keeps
    its bits, a read-only or broadcast source serves as well, and every
    row still carries its Dirichlet values."""

    M = 12

    @classmethod
    def _case(cls, N, dtype):
        spec = MovingDomainSpec(k=0.25, T=3.0)
        grid = build_time_grid(3.0, cls.M)
        rng = np.random.default_rng(N)

        def data(*shape):
            a = rng.standard_normal(shape)
            return a + 1j * rng.standard_normal(shape) if dtype is complex else a

        return spec, grid, data(cls.M + 1), data(N + 1), data(cls.M + 1, N + 1)

    @staticmethod
    def _marches(spec, grid, N, left, x0, source):
        return (solve_forward(left, spec, grid, N, ic0=x0, source=source).frames,
                solve_backward(source, spec, grid, N, terminal0=x0).frames)

    @pytest.mark.parametrize("N", [3, 10, 300])  # 300: folded operators
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_source_is_left_unchanged(self, N, dtype):
        spec, grid, left, x0, source = self._case(N, dtype)
        before = source.copy()
        self._marches(spec, grid, N, left, x0, source)
        assert source.tobytes() == before.tobytes()

    @pytest.mark.parametrize("N", [3, 10, 300])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_read_only_and_broadcast_sources(self, N, dtype):
        spec, grid, left, x0, source = self._case(N, dtype)
        stretched = np.broadcast_to(source[5], source.shape)  # read-only, zero row strides
        pairs = [(source.copy(), source), (np.array(stretched), stretched)]
        source.flags.writeable = False
        for writable, given in pairs:
            want = self._marches(spec, grid, N, left, x0, writable)
            got = self._marches(spec, grid, N, left, x0, given)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("N", [3, 10, 300])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_rows_carry_their_dirichlet_values(self, N, dtype):
        """The source is nonzero on the boundary columns, which the
        frames' boundary values overwrite only after each step read them."""
        spec, grid, left, x0, source = self._case(N, dtype)
        forward, backward = self._marches(spec, grid, N, left, x0, source)
        np.testing.assert_array_equal(forward[:, 0], left)
        np.testing.assert_array_equal(backward[:, 0], 0.0)
        for frames in (forward, backward):
            np.testing.assert_array_equal(frames[:, -1], 0.0)


class TestStepOperands:
    """The plan's step operands beside ``ST`` and ``G``: the back
    operator, and ``G`` paired over the two real columns of a complex
    march, built by the solve's first complex march."""

    @pytest.mark.parametrize("N", [2, 3, 100, _FOLD_N, _FOLD_N + 1])
    def test_equal_to_their_derived_forms_and_read_only(self, N):
        spec = MovingDomainSpec(k=0.25, T=3.0)
        grid = build_time_grid(3.0, 6)
        plan = _level_plan(spec, grid, N)
        if N < _FOLD_N:
            np.testing.assert_array_equal(plan.back, plan.ST[:, 1:-1].T)
            assert plan.back.flags.f_contiguous
        else:
            np.testing.assert_array_equal(plan.back, plan.ST[..., 1:].transpose(0, 2, 1))
            assert plan.back.base is plan.ST  # a view: no bytes beside ST
        _march_forward(np.sin(grid.levels), plan)
        assert "paired_G" not in vars(plan)  # real marches build no paired G
        _march_forward(np.sin(grid.levels) + 1j, plan)
        paired_G = vars(plan)["paired_G"]
        np.testing.assert_array_equal(paired_G, np.stack([plan.G, plan.G], axis=-1))
        _march_backward(np.ones((grid.M + 1, N + 1), complex),
                        np.empty((grid.M + 1, N + 1), complex), plan)
        assert plan.paired_G is paired_G  # once per plan
        for a in (plan.back, plan.paired_G):
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0.0


class TestLeftBoundaryAssembly:
    def test_disjoint_sum_and_final_level(self):
        grid = build_time_grid(10.0, 10)
        w1, w2 = np.zeros(11), np.zeros(11)
        w1[(grid.levels >= 5.0) & (grid.levels < 10.0)] = 2.0
        w2[grid.levels < 5.0] = 1.0
        left = _left_trace(w1, w2)
        np.testing.assert_array_equal(left[:5], 1.0)
        np.testing.assert_array_equal(left[5:10], 2.0)
        assert left[10] == 2.0  # left-continuation of the last interval

    def test_additive_overlap_sums(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0, 0.0])
        left = _left_trace(vals, 2 * vals)
        np.testing.assert_array_equal(left[:4], 3 * vals[:4])


class TestTrajectoryNorms:
    def test_norm_of_constant_one(self):
        spec = MovingDomainSpec(k=0.0, T=1.0)
        grid = build_time_grid(1.0, 20)
        traj = Trajectory(plan=_level_plan(spec, grid, 20), frames=np.ones((21, 21)))
        assert trajectory_l2_norm(traj) == pytest.approx(1.0, rel=1e-12)

    def test_trajectory_is_its_plan_and_frames(self):
        spec = MovingDomainSpec(k=0.25, T=1.0)
        grid = build_time_grid(1.0, 8)
        traj = solve_forward(np.ones(9), spec, grid, 6)
        assert [f.name for f in dataclasses.fields(Trajectory)] == ["plan", "frames"]
        assert traj.grid is traj.plan.grid
        assert traj.grid == grid
        with pytest.raises(AttributeError):
            traj.grid = build_time_grid(2.0, 8)
        assert not {"T", "dt"} & {f.name for f in dataclasses.fields(traj.plan)}

    def test_frames_must_match_the_plan(self):
        spec = MovingDomainSpec(k=0.25, T=1.0)
        grid = build_time_grid(1.0, 8)
        plan = _level_plan(spec, grid, 6)
        for frames in (np.ones((9, 8)), np.ones((8, 7))):
            with pytest.raises(ValueError, match="trajectory of shape"):
                Trajectory(plan=plan, frames=frames)

    def test_distance_symmetry(self):
        spec = MovingDomainSpec(k=0.25, T=1.0)
        grid = build_time_grid(1.0, 8)
        b = np.linspace(0, 1, 9)
        t1 = solve_forward(b, spec, grid, 8)
        t2 = solve_forward(2 * b, spec, grid, 8)
        assert trajectory_l2_distance(t1, t2) == pytest.approx(
            trajectory_l2_distance(t2, t1), rel=1e-14)

    @staticmethod
    def _random_pair(N, complex_a):
        """Two random trajectories on one plan with M = N; ``a``'s frames are
        the real view of complex frames when ``complex_a``, as a sweep's u
        is when the leader chain is live."""
        grid = build_time_grid(1.0, N)
        plan = _level_plan(MovingDomainSpec(k=0.25, T=1.0), grid, N)
        rng = np.random.default_rng(N)
        a, b = rng.standard_normal((2, *plan.shape))
        if complex_a:
            a = (a + 1j * rng.standard_normal(a.shape)).real
            assert not a.flags.c_contiguous
        return Trajectory(plan, a), Trajectory(plan, b)

    @pytest.mark.parametrize("complex_a", [False, True])
    @pytest.mark.parametrize("N", [20, 300])
    def test_distance_has_the_full_size_formula_bits(self, N, complex_a):
        # the difference is formed in blocks; at N = 300 in six of them
        a, b = self._random_pair(N, complex_a)
        d = a.frames[:N] - b.frames[:N]
        want = float(np.sqrt(a.grid.dt * _mass_pairing(d, d, a.plan.h[:N])))
        assert trajectory_l2_distance(a, b) == want

    @pytest.mark.parametrize("complex_a", [False, True])
    @pytest.mark.parametrize("N", [20, 300])
    def test_norm_has_the_full_size_formula_bits(self, N, complex_a):
        # the norm is the blocked distance from zero; the formula reads a contiguous copy
        a, _ = self._random_pair(N, complex_a)
        d = a.frames[:N].copy()
        want = float(np.sqrt(a.grid.dt * _mass_pairing(d, d, a.plan.h[:N])))
        assert trajectory_l2_norm(a) == want

    @pytest.mark.parametrize("constant", [False, True])
    @pytest.mark.parametrize("complex_a", [False, True])
    @pytest.mark.parametrize("N", [20, 300])
    def test_follower_cost_has_the_full_size_formula_bits(self, N, complex_a, constant):
        # J2's tracking term is the blocked distance from the target, a frame or a broadcast
        a, b = self._random_pair(N, complex_a)
        target = np.broadcast_to(10.0, a.plan.shape) if constant else b.frames
        levels = np.arange(N // 2)
        w2 = np.random.default_rng(N + 1).standard_normal(N + 1)
        dt, sigma = a.grid.dt, 100.0
        d = a.frames[:N] - target[:N]
        want = (0.5 * (dt * _mass_pairing(d, d, a.plan.h[:N]))
                + 0.5 * sigma * float(np.sqrt(dt * np.sum(w2[levels] ** 2))) ** 2)
        assert game._follower_cost(a, w2, target, sigma, levels, dt) == want

    def test_norm_does_not_depend_on_the_layout(self):
        # a strided real view of complex frames and its contiguous copy read
        # 0.2570502401251319 and 0.25705024012513183 when the norm paired the view itself
        spec = MovingDomainSpec(k=0.25, T=1.0)
        c = solve_forward(1j * np.linspace(0, 1, 9), spec, build_time_grid(1.0, 8), 8)
        view = Trajectory(c.plan, c.frames.imag)
        assert not view.frames.flags.c_contiguous
        owned = Trajectory(c.plan, view.frames.copy())
        assert trajectory_l2_norm(view) == trajectory_l2_norm(owned)

    def test_distance_holds_no_full_size_difference(self):
        N = 300
        a, b = self._random_pair(N, False)
        trajectory_l2_distance(a, b)  # first calls fill numpy's own caches
        tracemalloc.start()
        try:
            trajectory_l2_distance(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * (N + 1) ** 2 * 8

    @pytest.mark.parametrize("name,k,T", [
        ("k", 0.5, 4.0),
        ("T", 0.25, 5.0),
    ])
    def test_distance_between_different_domains_rejected(self, name, k, T):
        # same frame shapes (M=20, N=10), built for another k or horizon
        grid = build_time_grid(4.0, 20)
        a = solve_forward(np.ones(21), MovingDomainSpec(k=0.25, T=4.0), grid, 10)
        other = build_time_grid(T, 20)
        b = solve_forward(np.ones(21), MovingDomainSpec(k=k, T=T), other, 10)
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match=rf"level plan was built for {name}="):
                trajectory_l2_distance(x, y)

    @pytest.mark.parametrize("call,name", [
        (lambda c, r: trajectory_l2_norm(c), "a"),
        (lambda c, r: trajectory_l2_distance(c, r), "a"),
        (lambda c, r: trajectory_l2_distance(r, c), "b"),
    ])
    def test_complex_trajectory_names_the_argument(self, call, name):
        spec = MovingDomainSpec(k=0.25, T=1.0)
        grid = build_time_grid(1.0, 8)
        c = solve_forward(1j * np.linspace(0, 1, 9), spec, grid, 8)
        zero = Trajectory(c.plan, np.zeros(c.plan.shape))
        with pytest.raises(ValueError, match=f"trajectory {name} has complex frames"):
            call(c, zero)
        # a strided real view of complex frames, as du_l2 reads on a live leader chain, passes
        view = Trajectory(c.plan, c.frames.imag)
        owned = Trajectory(c.plan, c.frames.imag.copy())
        assert call(view, zero) == pytest.approx(call(owned, zero), rel=1e-14)
        assert call(owned, zero) > 0.0

    def test_distance_between_different_meshes_rejected(self):
        spec = MovingDomainSpec(k=0.25, T=1.0)
        grid = build_time_grid(1.0, 8)
        b = np.linspace(0, 1, 9)
        t1 = solve_forward(b, spec, grid, 8)
        t2 = solve_forward(b, spec, grid, 6)
        with pytest.raises(ValueError, match=r"frame shapes \(9, 9\) and \(9, 7\)"):
            trajectory_l2_distance(t1, t2)


class TestDualityResidual:
    def test_zero_source_gives_zero(self):
        spec = MovingDomainSpec(k=0.0, T=1.0)
        grid = build_time_grid(1.0, 20)
        src = np.zeros((21, 21))
        assert duality_residual(np.zeros(21), (0.0, 0.5), src, spec, grid, 20) == 0.0

    def test_small_for_smooth_data(self):
        assert duality_residual(*_duality_probe(200), 200) <= 0.05

    def test_matches_per_level_loop(self):
        ctrl, seg, src, spec, grid = _duality_probe(100)
        got = duality_residual(ctrl, seg, src, spec, grid, 100)
        # the same pairings, the boundary term accumulated level by level
        mask = segment_mask(seg, grid)
        u_hat = solve_forward(_left_trace(np.where(mask, ctrl, 0.0)), spec, grid, 100)
        p = solve_backward(src, spec, grid, 100)
        volume = boundary = 0.0
        for m in range(grid.M):
            mass = mass_matrix(100, p.plan.h[m])
            volume += grid.dt * float(src[m] @ mass @ u_hat.frames[m])
        for m in np.nonzero(mask)[0]:
            flux = boundary_flux_left(p.frames[m], p.plan.h[m])
            boundary += grid.dt * -flux * ctrl[m]
        ref = abs(volume + boundary) / max(abs(volume), abs(boundary))
        assert abs(got - ref) <= 1e-12

    def test_decreases_under_refinement(self):
        r_coarse = duality_residual(*_duality_probe(100), 100)
        r_fine = duality_residual(*_duality_probe(200), 200)
        assert r_fine < r_coarse
