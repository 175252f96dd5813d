import math
import sys

import numpy as np
import pytest

from snwave import (
    BoundarySegments,
    ControlSamples,
    ForwardProblem,
    MovingDomainSpec,
    SNConfig,
    boundary_flux_left,
    build_spatial_mesh,
    build_time_grid,
    control_l2_norm,
    evaluate_J,
    evaluate_J2,
    fixed_point_solve,
    follower_update,
    leader_update,
    nash_gradient_check,
    nash_residual,
    solve_forward,
    stopping_quantity,
)
import snwave.game as game
import snwave.geometry as geometry
import snwave.solvers as solvers
from snwave.solvers import Trajectory, _level_plan, assemble_left_boundary


def make_trajectory(spec, grid, N, profile):
    plan = _level_plan(spec, grid, N)
    frames = np.array([profile(x) for x in plan.nodes])
    return Trajectory(grid=grid, plan=plan, frames=frames)


@pytest.fixture
def small_setup():
    spec = MovingDomainSpec(k=0.25, T=4.0)
    grid = build_time_grid(4.0, 40)
    segs = BoundarySegments.disjoint_halves(4.0)
    return spec, grid, segs


class TestFollowerUpdate:
    def test_zero_adjoint(self, small_setup):
        spec, grid, segs = small_setup
        p = make_trajectory(spec, grid, 20, lambda x: np.zeros_like(x))
        w2 = follower_update(p, 100.0, segs, grid)
        assert np.all(w2.values == 0.0)

    def test_linear_adjoint_gives_outward_flux_over_sigma(self, small_setup):
        # p = c*x has d/dx = c at the left end, so the outward conormal
        # derivative is -c and the follower samples are -c/sigma.
        spec, grid, segs = small_setup
        c = 5.0
        p = make_trajectory(spec, grid, 20, lambda x: c * x)
        w2 = follower_update(p, 100.0, segs, grid)
        mask = segs.follower_mask(grid)
        np.testing.assert_allclose(w2.values[mask], -c / 100.0, rtol=1e-12)
        np.testing.assert_array_equal(w2.values[~mask], 0.0)

    def test_sigma_homogeneity(self, small_setup):
        spec, grid, segs = small_setup
        p = make_trajectory(spec, grid, 20, lambda x: np.sin(x))
        a = follower_update(p, 10.0, segs, grid)
        b = follower_update(p, 20.0, segs, grid)
        np.testing.assert_allclose(b.values, 0.5 * a.values, rtol=1e-13)

    def test_update_is_descent_direction_for_J2(self):
        """Brute-force check that the update's sign decreases the follower cost.

        From the zero control, one follower update gives a direction d;
        the cost must drop along +d and rise along -d.
        """
        spec = MovingDomainSpec(k=0.25, T=4.0)
        grid = build_time_grid(4.0, 40)
        segs = BoundarySegments.disjoint_halves(4.0)
        N, sigma, u2 = 40, 100.0, 10.0
        cfg = SNConfig(sigma=sigma, u2=u2, segments=segs, max_iter=1)
        res = fixed_point_solve(cfg, spec, grid, N)
        d = res.w2  # first update from the zero control

        def j2_at(scale):
            w = ControlSamples(segment=segs.sigma2, values=scale * d.values)
            left = assemble_left_boundary([w], grid)
            u = solve_forward(ForwardProblem(left_boundary=left), spec, grid, N)
            return evaluate_J2(u, w, u2, sigma, grid)

        j0 = j2_at(0.0)
        assert j2_at(0.25) < j0
        assert j2_at(-0.25) > j0


class TestLeaderUpdate:
    def test_zero(self, small_setup):
        spec, grid, segs = small_setup
        phi = make_trajectory(spec, grid, 20, lambda x: np.zeros_like(x))
        assert np.all(leader_update(phi, segs, grid).values == 0.0)

    def test_linear_field(self, small_setup):
        spec, grid, segs = small_setup
        c = 3.0
        phi = make_trajectory(spec, grid, 20, lambda x: c * x)
        w1 = leader_update(phi, segs, grid)
        mask = segs.leader_mask(grid)
        np.testing.assert_allclose(w1.values[mask], -c, rtol=1e-12)
        np.testing.assert_array_equal(w1.values[~mask], 0.0)

    def test_sign_flip(self, small_setup):
        spec, grid, segs = small_setup
        phi = make_trajectory(spec, grid, 20, lambda x: np.cos(x) - 1.0)
        neg = make_trajectory(spec, grid, 20, lambda x: 1.0 - np.cos(x))
        a = leader_update(phi, segs, grid)
        b = leader_update(neg, segs, grid)
        np.testing.assert_allclose(b.values, -a.values, rtol=1e-13)


class TestStoppingQuantity:
    @staticmethod
    def _pair(grid, v1, v2):
        seg1, seg2 = (0.5, 1.0), (0.0, 0.5)
        return (ControlSamples(segment=seg1, values=v1),
                ControlSamples(segment=seg2, values=v2))

    def test_equal_nonzero_pairs(self):
        grid = build_time_grid(1.0, 10)
        vals = np.zeros(11)
        vals[grid.levels < 0.5] = 2.0
        new = self._pair(grid, np.zeros(11), vals)
        assert stopping_quantity(new, new, grid) == 0.0

    def test_from_zero_start(self):
        grid = build_time_grid(1.0, 10)
        vals = np.zeros(11)
        vals[grid.levels < 0.5] = 2.0
        new = self._pair(grid, np.zeros(11), vals)
        old = self._pair(grid, np.zeros(11), np.zeros(11))
        assert stopping_quantity(new, old, grid) == pytest.approx(1.0, rel=1e-14)

    def test_both_zero_converged(self):
        grid = build_time_grid(1.0, 10)
        z = self._pair(grid, np.zeros(11), np.zeros(11))
        assert stopping_quantity(z, z, grid) == 0.0

    def test_collapsing_to_zero_not_converged(self):
        grid = build_time_grid(1.0, 10)
        vals = np.zeros(11)
        vals[grid.levels < 0.5] = 1.0
        old = self._pair(grid, np.zeros(11), vals)
        zero = self._pair(grid, np.zeros(11), np.zeros(11))
        assert stopping_quantity(zero, old, grid) == math.inf


class TestFunctionals:
    def test_j2_zero_at_target_with_zero_control(self):
        spec = MovingDomainSpec(k=0.0, T=1.0)
        grid = build_time_grid(1.0, 20)
        u = make_trajectory(spec, grid, 20, lambda x: np.full_like(x, 7.0))
        w2 = ControlSamples.zeros((0.0, 0.5), grid)
        assert evaluate_J2(u, w2, 7.0, 100.0, grid) == 0.0

    def test_j2_constant_misfit_exact_value(self):
        # |u - u2| = 10 over the unit space-time square: J2 = 0.5*100 = 50
        spec = MovingDomainSpec(k=0.0, T=1.0)
        grid = build_time_grid(1.0, 100)
        u = make_trajectory(spec, grid, 100, lambda x: np.zeros_like(x))
        w2 = ControlSamples.zeros((0.0, 0.5), grid)
        assert evaluate_J2(u, w2, 10.0, 100.0, grid) == pytest.approx(50.0, rel=1e-12)

    def test_j2_control_term_quadratic(self):
        spec = MovingDomainSpec(k=0.0, T=1.0)
        grid = build_time_grid(1.0, 20)
        u = make_trajectory(spec, grid, 20, lambda x: np.zeros_like(x))
        vals = np.zeros(21)
        vals[grid.levels < 0.5] = 1.5
        w2 = ControlSamples(segment=(0.0, 0.5), values=vals)
        w2x2 = ControlSamples(segment=(0.0, 0.5), values=2 * vals)
        sigma, u2 = 40.0, 0.0
        base = evaluate_J2(u, ControlSamples.zeros((0.0, 0.5), grid), u2, sigma, grid)
        j1 = evaluate_J2(u, w2, u2, sigma, grid) - base
        j2 = evaluate_J2(u, w2x2, u2, sigma, grid) - base
        assert j2 == pytest.approx(4.0 * j1, rel=1e-12)

    def test_j_zero(self):
        grid = build_time_grid(1.0, 10)
        assert evaluate_J(ControlSamples.zeros((0.5, 1.0), grid), grid) == 0.0

    def test_j_constant_over_segment(self):
        grid = build_time_grid(10.0, 100)
        vals = np.zeros(101)
        vals[(grid.levels >= 5.0) & (grid.levels < 10.0)] = 1.0
        w1 = ControlSamples(segment=(5.0, 10.0), values=vals)
        assert evaluate_J(w1, grid) == pytest.approx(2.5, rel=1e-12)  # L/2 = 5/2

    def test_j_quadratic_homogeneity(self):
        grid = build_time_grid(2.0, 16)
        rng = np.random.default_rng(2)
        vals = np.zeros(17)
        mask = (grid.levels >= 1.0) & (grid.levels < 2.0)
        vals[mask] = rng.standard_normal(mask.sum())
        w = ControlSamples(segment=(1.0, 2.0), values=vals)
        w3 = ControlSamples(segment=(1.0, 2.0), values=3 * vals)
        assert evaluate_J(w3, grid) == pytest.approx(9 * evaluate_J(w, grid), rel=1e-12)


class TestFixedPoint:
    def test_zero_target_exact_fixed_point_first_sweep(self, small_setup):
        spec, grid, segs = small_setup
        cfg = SNConfig(sigma=100.0, u2=0.0, segments=segs)
        res = fixed_point_solve(cfg, spec, grid, 30)
        assert res.converged and res.iterations == 1
        assert np.all(res.w1.values == 0.0)
        assert np.all(res.w2.values == 0.0)
        assert np.all(res.u.frames == 0.0)

    def test_degenerate_subsystem_exact_zeros_every_sweep(self, small_setup):
        spec, grid, segs = small_setup
        cfg = SNConfig(sigma=100.0, u2=10.0, segments=segs)
        res = fixed_point_solve(cfg, spec, grid, 30, keep_iterates=True)
        assert res.converged
        for w1, _w2, psi, phi in res.iterates:
            assert np.all(w1.values == 0.0)
            assert np.all(psi.frames == 0.0)
            assert np.all(phi.frames == 0.0)

    def test_converges_at_paper_scale(self, spec_quarter, tc_quarter):
        grid = build_time_grid(tc_quarter, 60)
        cfg = SNConfig(sigma=100.0)
        res = fixed_point_solve(cfg, spec_quarter, grid, 60)
        assert res.converged
        assert res.log[-1].stop_qty <= 1e-5
        segs = BoundarySegments.disjoint_halves(tc_quarter)
        assert nash_residual(res.w2, res.p, 100.0, segs, grid) <= 1e-3

    def test_linearity_in_target(self, small_setup):
        spec, grid, segs = small_setup
        base = fixed_point_solve(SNConfig(sigma=100.0, u2=10.0, segments=segs),
                                 spec, grid, 30)
        tripled = fixed_point_solve(SNConfig(sigma=100.0, u2=30.0, segments=segs),
                                    spec, grid, 30)
        assert base.iterations == tripled.iterations
        scale = np.max(np.abs(tripled.w2.values))
        assert np.max(np.abs(tripled.w2.values - 3 * base.w2.values)) <= 1e-8 * scale
        for fa, fb in zip(base.u.frames, tripled.u.frames):
            ref = max(1e-30, np.max(np.abs(fb)))
            assert np.max(np.abs(fb - 3 * fa)) <= 1e-8 * ref

    def test_nonconvergence_flag_at_cap(self, small_setup):
        spec, grid, segs = small_setup
        cfg = SNConfig(sigma=100.0, u2=10.0, segments=segs, max_iter=1)
        res = fixed_point_solve(cfg, spec, grid, 30)
        assert not res.converged
        assert res.iterations == 1
        assert len(res.log) == 1

    def test_additive_overlap_mode_runs(self):
        T = 4.0
        spec = MovingDomainSpec(k=0.25, T=T)
        grid = build_time_grid(T, 40)
        segs = BoundarySegments.additive_overlap(T)
        cfg = SNConfig(sigma=100.0, u2=10.0, segments=segs)
        res = fixed_point_solve(cfg, spec, grid, 30)
        assert res.converged
        # phi loop stays homogeneous, so the leader is zero and the
        # boundary datum is the follower alone, now on all of (0, T)
        assert np.all(res.w1.values == 0.0)
        mask = segs.follower_mask(grid)
        assert np.any(res.w2.values[mask] != 0.0)

    def test_phi_terminal_activates_leader(self, small_setup):
        spec, grid, segs = small_setup
        mesh_T = build_spatial_mesh(spec, grid.T, 30)
        x = mesh_T.nodes
        L = mesh_T.length
        f0 = 4.0 * x * (L - x) / L**2
        cfg = SNConfig(sigma=100.0, u2=10.0, segments=segs,
                       phi_terminal=(f0, None), max_iter=50)
        res = fixed_point_solve(cfg, spec, grid, 30, keep_iterates=True)
        w1_first, _, psi_first, phi_first = res.iterates[0]
        # psi lags phi by one sweep, so the first sweep's psi is exactly zero
        assert np.all(psi_first.frames == 0.0)
        assert np.any(phi_first.frames != 0.0)
        assert np.any(w1_first.values != 0.0)
        if len(res.iterates) > 1:
            _, _, psi_second, _ = res.iterates[1]
            assert np.any(psi_second.frames != 0.0)


class TestMarchCounts:
    """Marches per run are deterministic: u and p every sweep plus the
    final pair, and psi and phi only while the leader chain is live."""

    @staticmethod
    def _count_marches(monkeypatch):
        count = [0]
        for name in ("solve_forward", "solve_backward"):
            march = getattr(game, name)

            def counted(*args, _march=march, **kwargs):
                count[0] += 1
                return _march(*args, **kwargs)

            monkeypatch.setattr(game, name, counted)
        return count

    @pytest.mark.parametrize("explicit_zero", [False, True])
    def test_zero_phi_terminal_skips_the_chain(self, small_setup, monkeypatch,
                                               explicit_zero):
        spec, grid, segs = small_setup
        N = 16
        phi_terminal = None
        if explicit_zero:
            phi_terminal = (np.zeros(N + 1), np.zeros(N + 1))
        count = self._count_marches(monkeypatch)
        cfg = SNConfig(sigma=100.0, u2=10.0, segments=segs, phi_terminal=phi_terminal)
        res = fixed_point_solve(cfg, spec, grid, N, keep_iterates=True)
        assert res.iterations >= 2
        assert count[0] == 2 * res.iterations + 2
        assert np.all(res.w1.values == 0.0)
        assert np.all(res.psi.frames == 0.0)
        assert np.all(res.phi.frames == 0.0)

    def test_nonzero_phi_terminal_marches_the_chain(self, small_setup, monkeypatch):
        spec, grid, segs = small_setup
        N = 16
        mesh_T = build_spatial_mesh(spec, grid.T, N)
        x, L = mesh_T.nodes, mesh_T.length
        f0 = 4.0 * x * (L - x) / L**2
        count = self._count_marches(monkeypatch)
        cfg = SNConfig(sigma=100.0, u2=10.0, segments=segs,
                       phi_terminal=(f0, None), max_iter=3)
        res = fixed_point_solve(cfg, spec, grid, N)
        assert res.iterations == 3
        assert count[0] == 4 * res.iterations + 2


class TestTarget:
    """A callable target u2 gives one value per node, or a scalar."""

    def test_scalar_callable_matches_constant(self, small_setup):
        spec, grid, segs = small_setup
        const = fixed_point_solve(SNConfig(sigma=100.0, u2=10.0, segments=segs),
                                  spec, grid, 16)
        call = fixed_point_solve(SNConfig(sigma=100.0, u2=lambda x, t: 10.0, segments=segs),
                                 spec, grid, 16)
        assert call.iterations == const.iterations
        np.testing.assert_array_equal(call.w2.values, const.w2.values)
        np.testing.assert_array_equal(call.u.frames[-1], const.u.frames[-1])
        assert [r.J2 for r in call.log] == [r.J2 for r in const.log]
        assert (evaluate_J2(const.u, const.w2, lambda x, t: 10.0, 100.0, grid)
                == evaluate_J2(const.u, const.w2, 10.0, 100.0, grid))

    def test_given_target_matches_evaluated_target(self, small_setup):
        spec, grid, segs = small_setup
        res = fixed_point_solve(SNConfig(sigma=100.0, u2=10.0, segments=segs),
                                spec, grid, 16)

        def u2(x, t):
            return 10.0 + np.sin(x) * np.cos(t)

        target = np.array([u2(x, t) for x, t in zip(res.u.plan.nodes, grid.levels)])
        for goal, given in ((10.0, np.full_like(target, 10.0)), (u2, target)):
            assert (evaluate_J2(res.u, res.w2, goal, 100.0, grid, target=given)
                    == evaluate_J2(res.u, res.w2, goal, 100.0, grid))

    def test_target_evaluated_once_per_solve(self, small_setup):
        spec, grid, segs = small_setup
        calls = [0]

        def u2(x, t):
            calls[0] += 1
            return np.full_like(x, 10.0)

        res = fixed_point_solve(SNConfig(sigma=100.0, u2=u2, segments=segs), spec, grid, 16)
        assert res.iterations >= 2
        assert calls[0] == grid.M + 1

    @pytest.mark.parametrize("bad", [lambda x, t: np.ones(3),
                                     lambda x, t: np.ones((len(x), 2))])
    def test_wrong_shape_names_u2(self, small_setup, bad):
        spec, grid, segs = small_setup
        with pytest.raises(ValueError, match="u2"):
            fixed_point_solve(SNConfig(sigma=100.0, u2=bad, segments=segs), spec, grid, 16)
        u = make_trajectory(spec, grid, 16, np.zeros_like)
        with pytest.raises(ValueError, match="u2"):
            evaluate_J2(u, ControlSamples.zeros(segs.sigma2, grid), bad, 100.0, grid)


class TestWorkCounts:
    """A solve builds its level plan once: one sine basis, one node stack
    and no ``SpatialMesh``."""

    @staticmethod
    def _count(monkeypatch):
        count = {"basis": 0, "nodes": 0, "mesh": 0}
        originals = {"basis": solvers._sine_basis, "nodes": geometry.level_nodes,
                     "mesh": geometry.build_spatial_mesh}

        def counted(key):
            def call(*args):
                count[key] += 1
                return originals[key](*args)
            return call

        monkeypatch.setattr(solvers, "_sine_basis", counted("basis"))
        for key, attr in (("nodes", "level_nodes"), ("mesh", "build_spatial_mesh")):
            for name, mod in list(sys.modules.items()):
                if name.startswith("snwave") and getattr(mod, attr, None) is originals[key]:
                    monkeypatch.setattr(mod, attr, counted(key))
        return count

    @pytest.mark.parametrize("leader", [False, True])
    def test_one_plan_per_solve(self, small_setup, monkeypatch, leader):
        spec, grid, segs = small_setup
        N = 16
        phi_terminal = None
        if leader:
            mesh_T = build_spatial_mesh(spec, grid.T, N)
            phi_terminal = (np.sin(np.pi * mesh_T.nodes / mesh_T.length), None)
        count = self._count(monkeypatch)
        cfg = SNConfig(sigma=100.0, u2=10.0, segments=segs, phi_terminal=phi_terminal,
                       max_iter=3)
        fixed_point_solve(cfg, spec, grid, N)
        assert count == {"basis": 1, "nodes": 1, "mesh": 0}
        fixed_point_solve(cfg, spec, grid, N)
        assert count == {"basis": 2, "nodes": 2, "mesh": 0}

    def test_nash_gradient_check_builds_one_plan(self, small_setup, monkeypatch):
        spec, grid, segs = small_setup
        cfg = SNConfig(sigma=100.0, u2=10.0, segments=segs)
        w1 = ControlSamples.zeros(segs.sigma1, grid)
        w2 = ControlSamples.zeros(segs.sigma2, grid)
        count = self._count(monkeypatch)
        nash_gradient_check(w1, w2, cfg, spec, grid, 16, n_directions=2)
        assert count == {"basis": 1, "nodes": 1, "mesh": 0}

    def test_trajectories_are_arrays_on_the_plan_meshes(self, small_setup):
        spec, grid, segs = small_setup
        res = fixed_point_solve(SNConfig(sigma=100.0, u2=10.0, segments=segs), spec, grid, 16)
        for traj in (res.u, res.p, res.psi, res.phi):
            assert isinstance(traj.frames, np.ndarray)
            assert traj.frames.shape == (grid.M + 1, 17)
            assert traj.plan is res.u.plan
        assert res.psi is res.phi  # the shared all-zero chain
        with pytest.raises(ValueError, match="read-only"):
            res.phi.frames[3, 1] = 1.0

    def test_plan_is_read_only(self, small_setup):
        spec, grid, _ = small_setup
        plan = _level_plan(spec, grid, 16)
        with pytest.raises(ValueError, match="read-only"):
            plan.nodes[3, 1] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            plan.h[3] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            plan.S[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            plan.cos2[0] = 0.0


class TestNashResidual:
    def test_matches_per_level_loop(self, small_setup):
        spec, grid, segs = small_setup
        sigma = 100.0
        res = fixed_point_solve(SNConfig(sigma=sigma, u2=10.0, segments=segs, max_iter=2),
                                spec, grid, 16)
        got = nash_residual(res.w2, res.p, sigma, segs, grid)
        defect = 0.0
        for m in np.nonzero(segs.follower_mask(grid))[0]:
            flux = boundary_flux_left(res.p.frames[m], res.p.plan.h[m])
            r = sigma * res.w2.values[m] - (-flux)
            defect += grid.dt * r * r
        ref = math.sqrt(defect) / (sigma * control_l2_norm(res.w2, grid))
        assert ref > 1e-6
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0)


class TestNashGradientCheck:
    def test_pairing_grows_linearly_with_bump(self, small_setup):
        spec, grid, segs = small_setup
        N, sigma = 40, 100.0
        cfg = SNConfig(sigma=sigma, u2=10.0, segments=segs)
        res = fixed_point_solve(cfg, spec, grid, N)
        mask = segs.follower_mask(grid)
        idx = np.nonzero(mask)[0]
        s = (grid.levels[idx] - segs.sigma2[0]) / (segs.sigma2[1] - segs.sigma2[0])
        bump = np.zeros(grid.M + 1)
        bump[idx] = np.sin(np.pi * s)

        pairings = []
        for amp in (0.1, 0.2, 0.4):
            w2 = ControlSamples(segment=segs.sigma2, values=res.w2.values + amp * bump)
            chk = nash_gradient_check(res.w1, w2, cfg, spec, grid, N,
                                      n_directions=3, seed=1)
            pairings.append(np.max(np.abs(chk.analytic)))
        assert pairings[1] == pytest.approx(2 * pairings[0], rel=0.02)
        assert pairings[2] == pytest.approx(4 * pairings[0], rel=0.02)

    def test_small_at_converged_point(self, small_setup):
        spec, grid, segs = small_setup
        cfg = SNConfig(sigma=100.0, u2=10.0, segments=segs)
        res = fixed_point_solve(cfg, spec, grid, 40)
        chk = nash_gradient_check(res.w1, res.w2, cfg, spec, grid, 40,
                                  n_directions=5, seed=0)
        assert chk.max_scaled_analytic <= 1e-3
        assert len(chk.fd) == 5

    def test_fd_tracks_pairing_away_from_optimum(self, small_setup):
        # at a visibly non-optimal point both sides are O(1) and must agree
        # to leading order despite the marching pair's adjoint mismatch
        spec, grid, segs = small_setup
        cfg = SNConfig(sigma=100.0, u2=10.0, segments=segs)
        res = fixed_point_solve(cfg, spec, grid, 40)
        mask = segs.follower_mask(grid)
        idx = np.nonzero(mask)[0]
        s = (grid.levels[idx] - segs.sigma2[0]) / (segs.sigma2[1] - segs.sigma2[0])
        bump = np.zeros(grid.M + 1)
        bump[idx] = np.sin(np.pi * s)
        w2 = ControlSamples(segment=segs.sigma2, values=res.w2.values + 0.5 * bump)
        chk = nash_gradient_check(res.w1, w2, cfg, spec, grid, 40,
                                  n_directions=5, seed=3)
        for fd, ana in zip(chk.fd, chk.analytic):
            if abs(fd) > 0.05 * chk.scale:
                assert abs(fd - ana) <= 0.1 * abs(fd)


class TestConfigValidation:
    def test_bad_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            SNConfig(sigma=0.0)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            SNConfig(sigma=1.0, epsilon=0.0)

    def test_bad_cap(self):
        with pytest.raises(ValueError, match="max_iter"):
            SNConfig(sigma=1.0, max_iter=0)
