import numpy as np
import pytest

from snwave import (
    BackwardProblem,
    ControlSamples,
    ForwardProblem,
    MovingDomainSpec,
    SNConfig,
    SpatialMesh,
    TriDiagMatrix,
    assemble_left_boundary,
    assemble_mass,
    assemble_stiffness,
    boundary_flux_left,
    build_spatial_mesh,
    build_time_grid,
    duality_residual,
    fixed_point_solve,
    interpolate,
    solve_backward,
    solve_forward,
    solve_tridiagonal,
    trajectory_l2_distance,
    trajectory_l2_norm,
)
from snwave.solvers import Trajectory, _level_plan, _sine_basis, _toeplitz_solve

# Relative tolerance of the sine-basis kernel against the Thomas
# reference: both solve the same SPD systems, so they differ by roundoff
# only (about 1e-15 per step).
ORACLE_RTOL = 1e-12


def thomas_step(mesh, dt, rhs_full, v_left):
    """Solve (M/dt^2 + K) v = rhs, Dirichlet values eliminated by rows."""
    A = assemble_stiffness(mesh).add(assemble_mass(mesh), 1.0 / dt**2)
    rhs = rhs_full[1:-1].copy()
    rhs[0] -= A.lower[0] * v_left
    interior = TriDiagMatrix(lower=A.lower[1:-1], diagonal=A.diagonal[1:-1],
                             upper=A.upper[1:-1])
    out = np.zeros(mesh.n_nodes)
    out[0] = v_left
    out[1:-1] = solve_tridiagonal(interior, rhs)
    return out


def level_mesh(plan, m):
    """Level m of a level plan as a ``SpatialMesh``, for the assembled operators."""
    x = plan.nodes[m]
    return SpatialMesh(nodes=x, h=float(plan.h[m]), length=float(x[-1]))


def reference_forward(problem, spec, grid, N):
    """Forward march with per-step assembly and Thomas solves."""
    meshes = [build_spatial_mesh(spec, t, N) for t in grid.levels]
    dt, left = grid.dt, problem.left_boundary
    frames = [problem.ic0.copy()]
    frames[0][[0, -1]] = left[0], 0.0
    frames.append(interpolate(problem.ic0 + dt * problem.ic1, meshes[1].nodes, meshes[0].nodes))
    frames[1][[0, -1]] = left[1], 0.0
    for m in range(1, grid.M):
        mesh = meshes[m + 1]
        um = interpolate(frames[m], mesh.nodes, meshes[m].nodes)
        umm = interpolate(frames[m - 1], mesh.nodes, meshes[m - 1].nodes)
        mass = assemble_mass(mesh)
        rhs = mass.matvec((2.0 * um - umm) / dt**2) + mass.matvec(problem.source[m + 1])
        frames.append(thomas_step(mesh, dt, rhs, left[m + 1]))
    return frames


def reference_backward(problem, spec, grid, N):
    """Backward march with per-step assembly and Thomas solves."""
    meshes = [build_spatial_mesh(spec, t, N) for t in grid.levels]
    dt, M = grid.dt, grid.M
    frames = [None] * (M + 1)
    frames[M] = problem.terminal0.copy()
    frames[M][[0, -1]] = 0.0
    frames[M - 1] = interpolate(problem.terminal0 - dt * problem.terminal1,
                                meshes[M - 1].nodes, meshes[M].nodes)
    frames[M - 1][[0, -1]] = 0.0
    for m in range(M - 1, 0, -1):
        mesh = meshes[m - 1]
        pp = interpolate(frames[m + 1], mesh.nodes, meshes[m + 1].nodes)
        pm = interpolate(frames[m], mesh.nodes, meshes[m].nodes)
        rhs = assemble_mass(mesh).matvec(problem.source[m - 1] + (2.0 * pm - pp) / dt**2)
        frames[m - 1] = thomas_step(mesh, dt, rhs, 0.0)
    return frames


def assert_frames_close(traj, ref):
    scale = max(np.max(np.abs(f)) for f in ref)
    gap = max(np.max(np.abs(f - r)) for f, r in zip(traj.frames, ref))
    assert gap <= ORACLE_RTOL * scale


def l2q_error_vs_separable(traj, exact):
    """Space-time L2 distance to an exact solution x, t -> u(x, t)."""
    acc = 0.0
    grid = traj.grid
    for m in range(grid.M + 1):
        mesh = level_mesh(traj.plan, m)
        d = traj.frames[m] - exact(mesh.nodes, grid.levels[m])
        w = grid.dt if m < grid.M else 0.0
        acc += w * float(d @ assemble_mass(mesh).matvec(d))
    return np.sqrt(acc)


def manufactured_error(NM):
    spec = MovingDomainSpec(k=0.0, T=1.0)
    grid = build_time_grid(1.0, NM)
    mesh = build_spatial_mesh(spec, 0.0, NM)
    prob = ForwardProblem(
        left_boundary=np.zeros(NM + 1),
        ic0=np.sin(np.pi * mesh.nodes),
        ic1=np.zeros(NM + 1),
    )
    traj = solve_forward(prob, spec, grid, NM)
    return l2q_error_vs_separable(
        traj, lambda x, t: np.sin(np.pi * x) * np.cos(np.pi * t))


class TestForward:
    def test_zero_data_is_exactly_zero(self):
        spec = MovingDomainSpec(k=0.25, T=4.0)
        grid = build_time_grid(4.0, 24)
        traj = solve_forward(ForwardProblem(left_boundary=np.zeros(25)), spec, grid, 16)
        assert traj.frames.shape == (25, 17)
        assert np.all(traj.frames == 0.0)

    def test_manufactured_convergence_one_step(self):
        assert manufactured_error(50) / manufactured_error(100) >= 1.7

    def test_dirichlet_exactness_moving_domain(self):
        spec = MovingDomainSpec(k=0.25, T=2.0)
        grid = build_time_grid(2.0, 20)
        traj = solve_forward(ForwardProblem(left_boundary=np.ones(21)), spec, grid, 12)
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
        t1 = solve_forward(ForwardProblem(left_boundary=b1), spec, grid, 24)
        t2 = solve_forward(ForwardProblem(left_boundary=b2), spec, grid, 24)
        t12 = solve_forward(ForwardProblem(left_boundary=a * b1 + b * b2), spec, grid, 24)
        for m in range(33):
            combo = a * t1.frames[m] + b * t2.frames[m]
            scale = max(1.0, np.max(np.abs(combo)))
            assert np.max(np.abs(t12.frames[m] - combo)) <= 1e-10 * scale

    def test_energy_dissipation_fixed_domain(self):
        NM = 64
        spec = MovingDomainSpec(k=0.0, T=1.0)
        grid = build_time_grid(1.0, NM)
        mesh = build_spatial_mesh(spec, 0.0, NM)
        x = mesh.nodes
        prob = ForwardProblem(
            left_boundary=np.zeros(NM + 1),
            ic0=np.sin(np.pi * x) + 0.3 * np.sin(3 * np.pi * x),
            ic1=0.5 * np.sin(2 * np.pi * x),
        )
        traj = solve_forward(prob, spec, grid, NM)
        mass, stiff = assemble_mass(mesh), assemble_stiffness(mesh)
        energy = []
        for m in range(NM):
            d = (traj.frames[m + 1] - traj.frames[m]) / grid.dt
            energy.append(float(d @ mass.matvec(d))
                          + float(traj.frames[m + 1] @ stiff.matvec(traj.frames[m])))
        assert np.all(np.diff(energy) <= 1e-10 * max(1.0, abs(energy[0])))

    def test_boundary_length_mismatch(self):
        spec = MovingDomainSpec(k=0.25, T=1.0)
        grid = build_time_grid(1.0, 10)
        with pytest.raises(ValueError, match="levels"):
            solve_forward(ForwardProblem(left_boundary=np.zeros(5)), spec, grid, 8)


class TestBackward:
    def test_zero_source_zero_terminal(self):
        spec = MovingDomainSpec(k=0.25, T=2.0)
        grid = build_time_grid(2.0, 16)
        src = np.zeros((17, 13))
        traj = solve_backward(BackwardProblem(source=src), spec, grid, 12)
        assert traj.frames.shape == (17, 13)
        assert np.all(traj.frames == 0.0)

    def test_equals_reversed_forward_on_fixed_domain(self):
        NM = 64
        spec = MovingDomainSpec(k=0.0, T=1.0)
        grid = build_time_grid(1.0, NM)
        mesh = build_spatial_mesh(spec, 0.0, NM)
        x = mesh.nodes
        src = np.array([np.sin(2 * np.pi * x) * np.cos(3.0 * t) + 0.3 * x * (1 - x) * t
                        for t in grid.levels])
        back = solve_backward(BackwardProblem(source=src), spec, grid, NM)
        fwd = solve_forward(
            ForwardProblem(left_boundary=np.zeros(NM + 1),
                           source=np.array([src[NM - m] for m in range(NM + 1)])),
            spec, grid, NM)
        for m in range(NM + 1):
            gap = np.max(np.abs(back.frames[NM - m] - fwd.frames[m]))
            assert gap <= 1e-10

    def test_constant_source_symmetric_solution(self):
        NM = 40
        spec = MovingDomainSpec(k=0.0, T=1.0)
        grid = build_time_grid(1.0, NM)
        src = np.ones((NM + 1, NM + 1))
        traj = solve_backward(BackwardProblem(source=src), spec, grid, NM)
        for f in traj.frames:
            assert np.max(np.abs(f - f[::-1])) <= 1e-11

    def test_linearity(self):
        spec = MovingDomainSpec(k=0.3, T=1.5)
        grid = build_time_grid(1.5, 24)
        rng = np.random.default_rng(9)
        s1 = np.array([rng.standard_normal(17) for _ in grid.levels])
        s2 = np.array([rng.standard_normal(17) for _ in grid.levels])
        a, b = 1.5, -0.75
        t1 = solve_backward(BackwardProblem(source=s1), spec, grid, 16)
        t2 = solve_backward(BackwardProblem(source=s2), spec, grid, 16)
        s12 = a * s1 + b * s2
        t12 = solve_backward(BackwardProblem(source=s12), spec, grid, 16)
        for m in range(25):
            combo = a * t1.frames[m] + b * t2.frames[m]
            scale = max(1.0, np.max(np.abs(combo)))
            assert np.max(np.abs(t12.frames[m] - combo)) <= 1e-10 * scale

    def test_terminal_data_seeds_last_two_frames(self):
        spec = MovingDomainSpec(k=0.0, T=1.0)
        grid = build_time_grid(1.0, 10)
        mesh = build_spatial_mesh(spec, 1.0, 10)
        x = mesh.nodes
        f0 = x * (1 - x)
        src = np.zeros((11, 11))
        traj = solve_backward(BackwardProblem(source=src, terminal0=f0), spec, grid, 10)
        np.testing.assert_allclose(traj.frames[10], f0, atol=0)
        np.testing.assert_allclose(traj.frames[9], f0, atol=0)


class TestThomasOracle:
    """The sine-basis march against per-step assembly and Thomas solves."""

    @staticmethod
    def _setup():
        spec = MovingDomainSpec(k=0.25, T=3.0)
        grid = build_time_grid(3.0, 36)
        N = 24
        meshes = [build_spatial_mesh(spec, t, N) for t in grid.levels]
        source = np.array([np.sin(np.pi * ms.nodes / ms.length) * np.cos(t) + 0.5 * ms.nodes * t
                           for ms, t in zip(meshes, grid.levels)])
        return spec, grid, N, meshes, source

    @pytest.mark.parametrize("N", [2, 3, 100, 300])
    @pytest.mark.parametrize("dt_over_h", [1.0, 0.1])  # off_m < 0, off_m > 0
    def test_step_solve_matches_thomas(self, N, dt_over_h):
        h = 1.3 / N
        dt = dt_over_h * h
        diag = 2.0 / h + 2.0 * h / (3.0 * dt**2)
        off = -1.0 / h + h / (6.0 * dt**2)
        assert (off > 0.0) == (dt_over_h < 0.5)
        rhs = np.random.default_rng(N).standard_normal(N - 1)
        A = TriDiagMatrix(lower=np.full(N - 2, off), diagonal=np.full(N - 1, diag),
                          upper=np.full(N - 2, off))
        ref = solve_tridiagonal(A, rhs)
        S, cos2 = _sine_basis(N)
        got = _toeplitz_solve(S, cos2, diag, off, rhs)
        assert np.max(np.abs(got - ref)) <= ORACLE_RTOL * np.max(np.abs(ref))

    def test_forward_matches_thomas_march(self):
        spec, grid, N, meshes, source = self._setup()
        x = meshes[0].nodes
        problem = ForwardProblem(
            left_boundary=np.sin(0.7 * grid.levels) + 0.2,
            ic0=np.cos(2.0 * x) * (1.0 - x),
            ic1=x * (1.0 - x) - 0.3,
            source=source,
        )
        assert_frames_close(solve_forward(problem, spec, grid, N),
                            reference_forward(problem, spec, grid, N))

    def test_backward_matches_thomas_march(self):
        spec, grid, N, meshes, source = self._setup()
        x, L = meshes[-1].nodes, meshes[-1].length
        problem = BackwardProblem(
            source=source,
            terminal0=np.sin(np.pi * x / L) + 0.1 * x,
            terminal1=x * (L - x) - 0.4,
        )
        assert_frames_close(solve_backward(problem, spec, grid, N),
                            reference_backward(problem, spec, grid, N))


class TestLevelPlan:
    @pytest.mark.parametrize("t", [0.0, 0.3, 1.7, 4.0])
    @pytest.mark.parametrize("N", [2, 3, 100, 300])
    def test_mesh_nodes_bitwise_equal_to_linspace(self, t, N):
        spec = MovingDomainSpec(k=0.37, T=4.0)
        mesh = build_spatial_mesh(spec, t, N)
        np.testing.assert_array_equal(mesh.nodes, np.linspace(0.0, 1.0 + 0.37 * t, N + 1))
        assert mesh.nodes[-1] == mesh.length

    def test_plan_meshes_and_basis(self):
        for k in (0.0, 0.25, 0.5):
            spec = MovingDomainSpec(k=k, T=3.0)
            for M in (7, 12):
                grid = build_time_grid(3.0, M)
                for N in (2, 3, 100, 300):
                    plan = _level_plan(spec, grid, N)
                    assert plan.h.shape == (M + 1,)
                    assert plan.nodes.shape == (M + 1, N + 1)
                    for m, t in enumerate(grid.levels):
                        mesh = build_spatial_mesh(spec, t, N)
                        assert plan.h[m].view(np.int64) == np.float64(mesh.h).view(np.int64)
                        np.testing.assert_array_equal(plan.nodes[m].view(np.int64),
                                                      mesh.nodes.view(np.int64))
        S, cos2 = _sine_basis(10)
        plan = _level_plan(MovingDomainSpec(k=0.25, T=3.0), build_time_grid(3.0, 12), 10)
        np.testing.assert_array_equal(plan.S, S)
        np.testing.assert_array_equal(plan.cos2, cos2)

    def test_given_plan_gives_the_same_march(self):
        spec = MovingDomainSpec(k=0.25, T=3.0)
        grid = build_time_grid(3.0, 12)
        plan = _level_plan(spec, grid, 10)
        left = np.sin(grid.levels)
        own = solve_forward(ForwardProblem(left_boundary=left), spec, grid, 10)
        shared = solve_forward(ForwardProblem(left_boundary=left), spec, grid, 10, plan=plan)
        np.testing.assert_array_equal(own.frames, shared.frames)
        assert shared.plan is plan
        source = np.ones((13, 11))
        own = solve_backward(BackwardProblem(source=source), spec, grid, 10)
        shared = solve_backward(BackwardProblem(source=source), spec, grid, 10, plan=plan)
        np.testing.assert_array_equal(own.frames, shared.frames)
        assert shared.plan is plan

    def test_mismatched_plan_rejected(self):
        spec = MovingDomainSpec(k=0.25, T=3.0)
        grid = build_time_grid(3.0, 12)
        left = np.zeros(grid.M + 1)
        for plan in (_level_plan(spec, build_time_grid(3.0, 10), 10),
                     _level_plan(spec, grid, 8)):
            with pytest.raises(ValueError, match="level plan"):
                solve_forward(ForwardProblem(left_boundary=left), spec, grid, 10, plan=plan)


class TestShapeChecks:
    """Wrong-shaped data raise a ValueError naming the argument."""

    N, M = 8, 6

    @classmethod
    def _solve(cls, name, value):
        spec = MovingDomainSpec(k=0.25, T=1.0)
        grid = build_time_grid(1.0, cls.M)
        if name in ("ic0", "ic1"):
            problem = ForwardProblem(left_boundary=np.zeros(cls.M + 1), **{name: value})
            return solve_forward(problem, spec, grid, cls.N)
        if name in ("terminal0", "terminal1"):
            problem = BackwardProblem(source=np.zeros((cls.M + 1, cls.N + 1)), **{name: value})
            return solve_backward(problem, spec, grid, cls.N)
        if name == "source":
            return solve_backward(BackwardProblem(source=value), spec, grid, cls.N)
        if name == "forward source":
            problem = ForwardProblem(left_boundary=np.zeros(cls.M + 1), source=value)
            return solve_forward(problem, spec, grid, cls.N)
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
    ])
    def test_wrong_shape_names_argument(self, name, value, match):
        with pytest.raises(ValueError, match=match):
            self._solve(name, value)

    def test_right_shapes_pass(self):
        for name, value in (("ic0", np.ones(self.N + 1)), ("terminal1", np.ones(self.N + 1)),
                            ("source", np.ones((self.M + 1, self.N + 1))),
                            ("phi_terminal", (np.ones(self.N + 1), None))):
            self._solve(name, value)


class TestLeftBoundaryAssembly:
    def test_disjoint_sum_and_final_level(self):
        grid = build_time_grid(10.0, 10)
        w1 = ControlSamples(segment=(5.0, 10.0), values=np.zeros(11))
        w2 = ControlSamples(segment=(0.0, 5.0), values=np.zeros(11))
        w1.values[(grid.levels >= 5.0) & (grid.levels < 10.0)] = 2.0
        w2.values[grid.levels < 5.0] = 1.0
        left = assemble_left_boundary([w1, w2], grid)
        np.testing.assert_array_equal(left[:5], 1.0)
        np.testing.assert_array_equal(left[5:10], 2.0)
        assert left[10] == 2.0  # left-continuation of the last interval

    def test_additive_overlap_sums(self):
        grid = build_time_grid(1.0, 4)
        vals = np.array([1.0, 2.0, 3.0, 4.0, 0.0])
        w1 = ControlSamples(segment=(0.0, 1.0), values=vals)
        w2 = ControlSamples(segment=(0.0, 1.0), values=2 * vals)
        left = assemble_left_boundary([w1, w2], grid)
        np.testing.assert_array_equal(left[:4], 3 * vals[:4])


class TestTrajectoryNorms:
    def test_norm_of_constant_one(self):
        spec = MovingDomainSpec(k=0.0, T=1.0)
        grid = build_time_grid(1.0, 20)
        traj = Trajectory(grid=grid, plan=_level_plan(spec, grid, 20), frames=np.ones((21, 21)))
        assert trajectory_l2_norm(traj) == pytest.approx(1.0, rel=1e-12)

    def test_frames_must_match_the_plan(self):
        spec = MovingDomainSpec(k=0.25, T=1.0)
        grid = build_time_grid(1.0, 8)
        plan = _level_plan(spec, grid, 6)
        for bad_plan, frames in ((plan, np.ones((9, 8))), (plan, np.ones((8, 7))),
                                 (_level_plan(spec, build_time_grid(1.0, 10), 6),
                                  np.ones((11, 7)))):
            with pytest.raises(ValueError, match="trajectory of shape"):
                Trajectory(grid=grid, plan=bad_plan, frames=frames)

    def test_distance_symmetry(self):
        spec = MovingDomainSpec(k=0.25, T=1.0)
        grid = build_time_grid(1.0, 8)
        b = np.linspace(0, 1, 9)
        t1 = solve_forward(ForwardProblem(left_boundary=b), spec, grid, 8)
        t2 = solve_forward(ForwardProblem(left_boundary=2 * b), spec, grid, 8)
        assert trajectory_l2_distance(t1, t2) == pytest.approx(
            trajectory_l2_distance(t2, t1), rel=1e-14)


class TestDualityResidual:
    @staticmethod
    def _setup(NM):
        spec = MovingDomainSpec(k=0.0, T=1.0)
        grid = build_time_grid(1.0, NM)
        mesh = build_spatial_mesh(spec, 0.0, NM)
        src = np.array([np.sin(np.pi * mesh.nodes) * (1.0 + t) for t in grid.levels])
        vals = np.zeros(NM + 1)
        mask = grid.levels < 0.5
        vals[mask] = np.sin(np.pi * grid.levels[mask] / 0.5) ** 2
        ctrl = ControlSamples(segment=(0.0, 0.5), values=vals)
        return ctrl, src, spec, grid

    def test_zero_source_gives_zero(self):
        spec = MovingDomainSpec(k=0.0, T=1.0)
        grid = build_time_grid(1.0, 20)
        src = np.zeros((21, 21))
        ctrl = ControlSamples.zeros((0.0, 0.5), grid)
        assert duality_residual(ctrl, src, spec, grid, 20) == 0.0

    def test_small_for_smooth_data(self):
        ctrl, src, spec, grid = self._setup(200)
        assert duality_residual(ctrl, src, spec, grid, 200) <= 0.05

    def test_matches_per_level_loop(self):
        ctrl, src, spec, grid = self._setup(100)
        got = duality_residual(ctrl, src, spec, grid, 100)
        # the same pairings, the boundary term accumulated level by level
        left = assemble_left_boundary([ctrl], grid)
        u_hat = solve_forward(ForwardProblem(left_boundary=left), spec, grid, 100)
        p = solve_backward(BackwardProblem(source=src), spec, grid, 100)
        volume = boundary = 0.0
        for m in range(grid.M):
            mass = assemble_mass(level_mesh(p.plan, m))
            volume += grid.dt * float(src[m] @ mass.matvec(u_hat.frames[m]))
        for m in np.nonzero(ctrl.level_mask(grid))[0]:
            flux = boundary_flux_left(p.frames[m], p.plan.h[m])
            boundary += grid.dt * -flux * ctrl.values[m]
        ref = abs(volume + boundary) / max(abs(volume), abs(boundary))
        assert abs(got - ref) <= 1e-12

    def test_decreases_under_refinement(self):
        r_coarse = duality_residual(*self._setup(100), 100)
        r_fine = duality_residual(*self._setup(200), 200)
        assert r_fine < r_coarse
