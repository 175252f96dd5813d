import dataclasses
import gc
import math
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from snwave import (
    BoundarySegments,
    DivergenceError,
    IterationRecord,
    MovingDomainSpec,
    NashCheckResult,
    SNConfig,
    boundary_flux_left,
    build_time_grid,
    compute_Tc,
    control_l2_norm,
    duality_residual,
    evaluate_J,
    evaluate_J2,
    fixed_point_solve,
    nash_gradient_check,
    nash_residual,
    solve_backward,
    solve_forward,
    trajectory_l2_distance,
)
import snwave.game as game
import snwave.geometry as geometry
import snwave.solvers as solvers
import snwave.verification as verification
from snwave.geometry import level_nodes, segment_mask
from snwave.solvers import Trajectory, _level_plan


def stepped_sweeps(cfg, spec, grid, N, n):
    """The first ``n`` sweeps of the solve of ``cfg``, stepped by hand on
    ``game._Sweep``: each sweep's updated bare controls and its psi, phi."""
    sweep = game._Sweep.of(cfg, spec, grid, N)
    state = (np.zeros(grid.M + 1),) * 3
    iterates = []
    for _ in range(n):
        state, (_u, psi, phi) = sweep(*state)
        iterates.append((state[0], state[1], psi, phi))
    return iterates


def follower_rule(p, sigma, segs, grid):
    """The sweep map's follower update: (1/sigma) times p's segment flux."""
    return p.plan.flux(p.frames, np.nonzero(segment_mask(segs.sigma2, grid))[0]) / sigma


def leader_rule(phi, segs, grid):
    """The sweep map's leader update: phi's segment flux."""
    return phi.plan.flux(phi.frames, np.nonzero(segment_mask(segs.sigma1, grid))[0])


def make_trajectory(spec, grid, N, profile):
    plan = _level_plan(spec, grid, N)
    frames = np.array([profile(x) for x in level_nodes(spec, grid.levels, N)[1]])
    return Trajectory(plan=plan, frames=frames)


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
        w2 = follower_rule(p, 100.0, segs, grid)
        assert np.all(w2 == 0.0)

    def test_linear_adjoint_gives_outward_flux_over_sigma(self, small_setup):
        # p = c*x has d/dx = c at the left end, so the outward conormal
        # derivative is -c and the follower samples are -c/sigma.
        spec, grid, segs = small_setup
        c = 5.0
        p = make_trajectory(spec, grid, 20, lambda x: c * x)
        w2 = follower_rule(p, 100.0, segs, grid)
        mask = segment_mask(segs.sigma2, grid)
        np.testing.assert_allclose(w2[mask], -c / 100.0, rtol=1e-12)
        np.testing.assert_array_equal(w2[~mask], 0.0)

    def test_sigma_homogeneity(self, small_setup):
        spec, grid, segs = small_setup
        p = make_trajectory(spec, grid, 20, lambda x: np.sin(x))
        a = follower_rule(p, 10.0, segs, grid)
        b = follower_rule(p, 20.0, segs, grid)
        np.testing.assert_allclose(b, 0.5 * a, rtol=1e-13)

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
            w = scale * d
            u = solve_forward(grid.trace(w), spec, grid, N)
            return evaluate_J2(u, w, segs.sigma2, u2, sigma)

        j0 = j2_at(0.0)
        assert j2_at(0.25) < j0
        assert j2_at(-0.25) > j0


class TestLeaderUpdate:
    def test_zero(self, small_setup):
        spec, grid, segs = small_setup
        phi = make_trajectory(spec, grid, 20, lambda x: np.zeros_like(x))
        assert np.all(leader_rule(phi, segs, grid) == 0.0)

    def test_linear_field(self, small_setup):
        spec, grid, segs = small_setup
        c = 3.0
        phi = make_trajectory(spec, grid, 20, lambda x: c * x)
        w1 = leader_rule(phi, segs, grid)
        mask = segment_mask(segs.sigma1, grid)
        np.testing.assert_allclose(w1[mask], -c, rtol=1e-12)
        np.testing.assert_array_equal(w1[~mask], 0.0)

    def test_sign_flip(self, small_setup):
        spec, grid, segs = small_setup
        phi = make_trajectory(spec, grid, 20, lambda x: np.cos(x) - 1.0)
        neg = make_trajectory(spec, grid, 20, lambda x: 1.0 - np.cos(x))
        a = leader_rule(phi, segs, grid)
        b = leader_rule(neg, segs, grid)
        np.testing.assert_allclose(b, -a, rtol=1e-13)


def stopping_quantity(new, old, grid):
    """The sweep log's stop_qty for the update ``old -> new`` of a bare pair."""
    idx = tuple(np.nonzero(geometry.segment_mask(seg, grid))[0]
                for seg in ((0.5, 1.0), (0.0, 0.5)))
    stop, _ = game._control_change(new, old, idx, grid)
    return stop


class TestStoppingQuantity:
    def test_equal_nonzero_pairs(self):
        grid = build_time_grid(1.0, 10)
        vals = np.zeros(11)
        vals[grid.levels < 0.5] = 2.0
        new = (np.zeros(11), vals)
        assert stopping_quantity(new, new, grid) == 0.0

    def test_from_zero_start(self):
        grid = build_time_grid(1.0, 10)
        vals = np.zeros(11)
        vals[grid.levels < 0.5] = 2.0
        new = (np.zeros(11), vals)
        old = (np.zeros(11), np.zeros(11))
        assert stopping_quantity(new, old, grid) == pytest.approx(1.0, rel=1e-14)

    def test_both_zero_converged(self):
        grid = build_time_grid(1.0, 10)
        z = (np.zeros(11), np.zeros(11))
        assert stopping_quantity(z, z, grid) == 0.0

    def test_collapsing_to_zero_not_converged(self):
        grid = build_time_grid(1.0, 10)
        vals = np.zeros(11)
        vals[grid.levels < 0.5] = 1.0
        old = (np.zeros(11), vals)
        zero = (np.zeros(11), np.zeros(11))
        assert stopping_quantity(zero, old, grid) == math.inf


class TestFunctionals:
    def test_j2_zero_at_target_with_zero_control(self):
        spec = MovingDomainSpec(k=0.0, T=1.0)
        grid = build_time_grid(1.0, 20)
        u = make_trajectory(spec, grid, 20, lambda x: np.full_like(x, 7.0))
        assert evaluate_J2(u, np.zeros(21), (0.0, 0.5), 7.0, 100.0) == 0.0

    def test_j2_constant_misfit_exact_value(self):
        # |u - u2| = 10 over the unit space-time square: J2 = 0.5*100 = 50
        spec = MovingDomainSpec(k=0.0, T=1.0)
        grid = build_time_grid(1.0, 100)
        u = make_trajectory(spec, grid, 100, lambda x: np.zeros_like(x))
        assert evaluate_J2(u, np.zeros(101), (0.0, 0.5), 10.0, 100.0) == pytest.approx(
            50.0, rel=1e-12)

    def test_j2_control_term_quadratic(self):
        spec = MovingDomainSpec(k=0.0, T=1.0)
        grid = build_time_grid(1.0, 20)
        u = make_trajectory(spec, grid, 20, lambda x: np.zeros_like(x))
        vals = np.zeros(21)
        vals[grid.levels < 0.5] = 1.5
        seg, sigma, u2 = (0.0, 0.5), 40.0, 0.0
        base = evaluate_J2(u, np.zeros(21), seg, u2, sigma)
        j1 = evaluate_J2(u, vals, seg, u2, sigma) - base
        j2 = evaluate_J2(u, 2 * vals, seg, u2, sigma) - base
        assert j2 == pytest.approx(4.0 * j1, rel=1e-12)

    def test_j_zero(self):
        grid = build_time_grid(1.0, 10)
        assert evaluate_J(np.zeros(11), (0.5, 1.0), grid) == 0.0

    def test_j_constant_over_segment(self):
        grid = build_time_grid(10.0, 100)
        vals = np.zeros(101)
        vals[(grid.levels >= 5.0) & (grid.levels < 10.0)] = 1.0
        assert evaluate_J(vals, (5.0, 10.0), grid) == pytest.approx(2.5, rel=1e-12)  # L/2 = 5/2

    def test_j_quadratic_homogeneity(self):
        grid = build_time_grid(2.0, 16)
        rng = np.random.default_rng(2)
        vals = np.zeros(17)
        mask = (grid.levels >= 1.0) & (grid.levels < 2.0)
        vals[mask] = rng.standard_normal(mask.sum())
        seg = (1.0, 2.0)
        assert evaluate_J(3 * vals, seg, grid) == pytest.approx(9 * evaluate_J(vals, seg, grid),
                                                               rel=1e-12)


class TestFixedPoint:
    def test_zero_target_exact_fixed_point_first_sweep(self, small_setup):
        spec, grid, segs = small_setup
        cfg = SNConfig(sigma=100.0, u2=0.0, segments=segs)
        res = fixed_point_solve(cfg, spec, grid, 30)
        assert res.converged and res.iterations == 1
        assert np.all(res.w1 == 0.0)
        assert np.all(res.w2 == 0.0)
        assert np.all(res.u.frames == 0.0)

    def test_degenerate_subsystem_exact_zeros_every_sweep(self, small_setup):
        spec, grid, segs = small_setup
        cfg = SNConfig(sigma=100.0, u2=10.0, segments=segs)
        res = fixed_point_solve(cfg, spec, grid, 30)
        assert res.converged
        for w1, _w2, psi, phi in stepped_sweeps(cfg, spec, grid, 30, res.iterations):
            assert np.all(w1 == 0.0)
            assert np.all(psi == 0.0)
            assert np.all(phi == 0.0)

    def test_converges_at_paper_scale(self, spec_quarter, tc_quarter):
        grid = build_time_grid(tc_quarter, 60)
        cfg = SNConfig(sigma=100.0)
        res = fixed_point_solve(cfg, spec_quarter, grid, 60)
        assert res.converged
        assert res.log[-1].stop_qty <= 1e-5
        segs = BoundarySegments.disjoint_halves(tc_quarter)
        assert nash_residual(res.w2, res.p, 100.0, segs) <= 1e-3

    def test_linearity_in_target(self, small_setup):
        spec, grid, segs = small_setup
        base = fixed_point_solve(SNConfig(sigma=100.0, u2=10.0, segments=segs),
                                 spec, grid, 30)
        tripled = fixed_point_solve(SNConfig(sigma=100.0, u2=30.0, segments=segs),
                                    spec, grid, 30)
        assert base.iterations == tripled.iterations
        scale = np.max(np.abs(tripled.w2))
        assert np.max(np.abs(tripled.w2 - 3 * base.w2)) <= 1e-8 * scale
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
        assert np.all(res.w1 == 0.0)
        mask = segment_mask(segs.sigma2, grid)
        assert np.any(res.w2[mask] != 0.0)

    def test_phi_terminal_activates_leader(self, small_setup):
        spec, grid, segs = small_setup
        _, x = level_nodes(spec, grid.T, 30)
        L = x[-1]
        f0 = 4.0 * x * (L - x) / L**2
        cfg = SNConfig(sigma=100.0, u2=10.0, segments=segs,
                       phi_terminal=(f0, None), max_iter=50)
        res = fixed_point_solve(cfg, spec, grid, 30)
        iterates = stepped_sweeps(cfg, spec, grid, 30, res.iterations)
        w1_first, _, psi_first, phi_first = iterates[0]
        # psi lags phi by one sweep, so the first sweep's psi is exactly zero
        assert np.all(psi_first == 0.0)
        assert np.any(phi_first != 0.0)
        assert np.any(w1_first != 0.0)
        if len(iterates) > 1:
            _, _, psi_second, _ = iterates[1]
            assert np.any(psi_second != 0.0)


def bump_terminal(spec, grid, N):
    _, x = level_nodes(spec, grid.T, N)
    L = x[-1]
    return (4.0 * x * (L - x) / L**2, None)


class TestSweepMap:
    """``game._Sweep`` maps the bare state ``(w1, w2, psi_bc)`` to the next
    state and the fields ``(u, psi, phi)``; ``fixed_point_solve`` is
    the loop around it."""

    @pytest.mark.parametrize("leader", [False, True])
    def test_stepping_by_hand_reproduces_the_solve(self, small_setup, leader):
        spec, grid, segs = small_setup
        N = 16
        cfg = SNConfig(sigma=100.0, u2=10.0, segments=segs,
                       phi_terminal=bump_terminal(spec, grid, N) if leader else None)
        res = fixed_point_solve(cfg, spec, grid, N)
        assert res.iterations >= 3

        sweep = game._Sweep.of(cfg, spec, grid, N)
        state = (np.zeros(grid.M + 1),) * 3
        log, u_prev = [], None
        for n in range(cfg.max_iter):
            nxt, (u, _psi, _phi) = sweep(*state)
            u = Trajectory(sweep.plan, u)
            stop, dw = game._control_change(nxt[:2], state[:2], (sweep.leader, sweep.follower),
                                            grid)
            du = 0.0 if u_prev is None else trajectory_l2_distance(u, u_prev)
            log.append(IterationRecord(n, stop, du, dw, evaluate_J(state[0], segs.sigma1, grid),
                                       evaluate_J2(u, state[1], segs.sigma2, 10.0, 100.0)))
            state, u_prev = nxt, u
            if stop <= cfg.epsilon:
                break
        assert tuple(log) == res.log
        assert np.array_equal(res.w1, state[0])
        assert np.array_equal(res.w2, state[1])

    def test_leader_chain_reads_no_control(self, small_setup):
        # psi_bc -> (psi, phi, w1', psi_bc') is the same for any (w1, w2):
        # the map is block lower-triangular
        spec, grid, segs = small_setup
        N = 16
        cfg = SNConfig(sigma=100.0, u2=10.0, segments=segs,
                       phi_terminal=bump_terminal(spec, grid, N))
        sweep = game._Sweep.of(cfg, spec, grid, N)
        zeros = np.zeros(grid.M + 1)
        (_, _, psi_bc), _ = sweep(zeros, zeros, zeros)
        assert np.any(psi_bc != 0.0)

        rng = np.random.default_rng(4)
        w1, w2 = zeros.copy(), zeros.copy()
        w1[sweep.leader] = rng.standard_normal(len(sweep.leader))
        w2[sweep.follower] = rng.standard_normal(len(sweep.follower))
        a_next, (a_u, a_psi, a_phi) = sweep(zeros, zeros, psi_bc)
        b_next, (b_u, b_psi, b_phi) = sweep(w1, w2, psi_bc)
        assert not np.array_equal(a_u, b_u)
        assert not np.array_equal(a_next[1], b_next[1])
        np.testing.assert_array_equal(a_psi, b_psi)
        np.testing.assert_array_equal(a_phi, b_phi)
        np.testing.assert_array_equal(a_next[0], b_next[0])
        np.testing.assert_array_equal(a_next[2], b_next[2])

    @pytest.mark.parametrize("leader", [False, True])
    def test_call_is_its_two_halves(self, small_setup, leader):
        # fixed_point_solve calls the halves itself; the map stays their composition
        spec, grid, segs = small_setup
        N = 16
        cfg = SNConfig(sigma=100.0, u2=10.0, segments=segs,
                       phi_terminal=bump_terminal(spec, grid, N) if leader else None)
        sweep = game._Sweep.of(cfg, spec, grid, N)
        state = (np.zeros(grid.M + 1),) * 3
        for _ in range(3):
            nxt, fields = sweep(*state)
            u, psi = sweep.forward_half(*state)
            half_nxt, half_fields = sweep.backward_half(u, psi)
            assert [a.tobytes() for a in half_nxt] == [a.tobytes() for a in nxt]
            assert [f.tobytes() for f in half_fields] == [f.tobytes() for f in fields]
            assert half_fields[0] is u and half_fields[1] is psi
            state = nxt
        assert np.any(state[0] != 0.0) == leader

    @pytest.mark.parametrize("max_iter", [1, 50])
    def test_segment_masks_computed_once_per_solve(self, small_setup, monkeypatch, max_iter):
        spec, grid, segs = small_setup
        N = 16
        count = [0]
        original = geometry.segment_mask

        def counted(*args):
            count[0] += 1
            return original(*args)

        monkeypatch.setattr(geometry, "segment_mask", counted)
        cfg = SNConfig(sigma=100.0, u2=10.0, segments=segs, max_iter=max_iter,
                       phi_terminal=bump_terminal(spec, grid, N))
        res = fixed_point_solve(cfg, spec, grid, N)
        assert len(res.log) == res.iterations >= min(max_iter, 3)
        assert count[0] == 2


class DensePlan:
    """A linear scheme in dense matrices, a plan of the array contract
    (``solvers`` docstring) and nothing more.  The march is a matrix on the
    Dirichlet data, the backward march one on the source, the flux one
    on the frames; terminal data are not used.  The space-time form
    weights level m by t^{m+1} - t^m, so the grid needs no step dt."""

    def __init__(self, grid, nodes, rng):
        self.grid, self.shape = grid, (grid.M + 1, nodes)
        size = self.shape[0] * nodes
        self._march = rng.standard_normal((size, grid.M + 1))
        self._back = rng.standard_normal((size, size)) / np.sqrt(size)
        self._flux = rng.standard_normal((grid.M + 1, size)) / np.sqrt(size)
        self._steps = np.diff(grid.levels)
        self.zero = np.broadcast_to(0.0, self.shape)

    def forward(self, left, ic0=None, ic1=None, source=None):
        return (self._march @ left).reshape(self.shape)

    def backward(self, frames, terminal0=None, terminal1=None):
        frames[...] = (self._back @ frames.reshape(-1)).reshape(self.shape)
        return frames

    def flux(self, frames, idx):
        out = np.zeros(self.shape[0])
        out[idx] = (self._flux @ frames.reshape(-1))[idx]
        return out

    def squared_distance(self, a, b):
        return float(self._steps @ np.sum((a - b)[:self.grid.M] ** 2, axis=1))


@dataclasses.dataclass(frozen=True)
class UnevenGrid:
    """A time grid with uneven ``levels`` and a control weight per level,
    with only the members the loop may read: ``trace``, ``control_inner``,
    ``control_norm``, ``levels``, ``M`` and ``T``."""

    levels: np.ndarray
    weights: np.ndarray

    M = property(lambda self: len(self.levels) - 1)
    T = property(lambda self: float(self.levels[-1]))
    trace = geometry.TimeGrid.trace  # the scheme's trace reads no step

    def control_inner(self, a, b, idx):
        return float(np.sum(self.weights[idx] * a[idx] * b[idx]))

    def control_norm(self, values, idx):
        return math.sqrt(self.control_inner(values, values, idx))


class TestToyScheme:
    """``fixed_point_solve``'s loop, ``game._iterate``, reaches the scheme
    only through the plan's members and its grid's: on a dense linear plan
    it converges to the fixed point w2 = (1/sigma) flux(p) that
    ``np.linalg.solve`` gives, on a uniform grid and on an uneven one."""

    @staticmethod
    def _solve(grid, seed):
        """The loop's result on a dense plan over ``grid``, the plan, its
        target, sigma and the dense fixed point of the follower's levels."""
        segs = BoundarySegments.disjoint_halves(grid.T)
        leader = geometry._segment_levels("sigma1", segs.sigma1, grid)
        follower = geometry._segment_levels("sigma2", segs.sigma2, grid)
        assert len(follower) == 3
        rng = np.random.default_rng(seed)
        plan = DensePlan(grid, 4, rng)
        target = rng.standard_normal(plan.shape)

        def flux_of(source):  # the follower flux of the backward march of ``source``
            return plan.flux(plan.backward(np.array(source)), follower)[follower]

        K = np.empty((3, 3))
        for j in range(3):
            w = np.zeros(grid.M + 1)
            w[follower[j]] = 1.0
            K[:, j] = flux_of(plan.forward(grid.trace(w)))
        sigma = np.max(np.abs(np.linalg.eigvals(K))) / 0.25  # contraction rate 1/4
        want = np.linalg.solve(np.eye(3) - K / sigma, -flux_of(target) / sigma)

        cfg = SNConfig(sigma=sigma, epsilon=1e-14, max_iter=100, segments=segs)
        sweep = game._Sweep(plan, target, segs, leader, follower, sigma, {})
        res = game._iterate(sweep, cfg)
        assert res.converged and res.iterations < 40
        assert np.all(res.w1 == 0.0) and res.psi is res.phi and res.psi.frames is plan.zero
        np.testing.assert_array_equal(np.delete(res.w2, follower), 0.0)
        err = np.linalg.norm(res.w2[follower] - want) / np.linalg.norm(want)
        assert err < 1e-12
        return res, plan, target, sigma, flux_of

    def test_loop_finds_the_dense_fixed_point(self):
        self._solve(build_time_grid(6.0, 6), 6)

    def test_uneven_grid_and_weights_give_the_weighted_log(self):
        """On uneven levels with random control weights the loop reaches the
        same kind of fixed point, and the log's J and J2 are the weighted
        dense formulas at each sweep's incoming controls."""
        weights = np.random.default_rng(7).uniform(0.2, 3.0, 7)
        grid = UnevenGrid(np.array([0.0, 0.4, 1.5, 3.3, 3.9, 4.1, 6.0]), weights)
        res, plan, target, sigma, flux_of = self._solve(grid, 6)
        follower = np.arange(3)
        w2 = np.zeros(grid.M + 1)
        for rec in res.log:
            u = plan.forward(grid.trace(w2))
            misfit = np.sum((u - target)[:grid.M] ** 2, axis=1) @ np.diff(grid.levels)
            J2 = 0.5 * misfit + 0.5 * sigma * np.sum(weights[follower] * w2[follower] ** 2)
            assert rec.J == 0.0 and rec.J2 == pytest.approx(J2, rel=1e-13, abs=0.0)
            w2 = np.zeros(grid.M + 1)
            w2[follower] = flux_of(u - target) / sigma
        np.testing.assert_array_equal(w2, res.w2)


class TestMarchCounts:
    """Marches per run are deterministic.  A field whose data are all zero
    is not marched: the first sweep's state (zero controls) and psi
    (no previous phi), and phi while psi is zero and its terminal data
    are zero.  With the leader chain live, (u, psi) and (p, phi) are two
    complex marches per sweep.  The final state is marched after the last
    sweep and its adjoint only when ``res.p`` is first read."""

    @staticmethod
    def _count_marches(monkeypatch):
        count = [0]
        for name in ("forward", "backward"):
            march = getattr(solvers._LevelPlan, name)

            def counted(*args, _march=march, **kwargs):
                count[0] += 1
                return _march(*args, **kwargs)

            monkeypatch.setattr(solvers._LevelPlan, name, counted)
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
        res = fixed_point_solve(cfg, spec, grid, N)
        assert res.iterations >= 2
        assert count[0] == 2 * res.iterations
        assert np.all(res.w1 == 0.0)
        assert np.all(res.psi.frames == 0.0)
        assert np.all(res.phi.frames == 0.0)

    def test_nonzero_phi_terminal_marches_the_chain(self, small_setup, monkeypatch):
        spec, grid, segs = small_setup
        N = 16
        _, x = level_nodes(spec, grid.T, N)
        L = x[-1]
        f0 = 4.0 * x * (L - x) / L**2
        count = self._count_marches(monkeypatch)
        cfg = SNConfig(sigma=100.0, u2=10.0, segments=segs,
                       phi_terminal=(f0, None), max_iter=3)
        res = fixed_point_solve(cfg, spec, grid, N)
        assert res.iterations == 3
        assert count[0] == 2 * res.iterations

    def test_adjoint_marched_on_first_read_only(self, small_setup, monkeypatch):
        spec, grid, segs = small_setup
        count = self._count_marches(monkeypatch)
        res = fixed_point_solve(SNConfig(sigma=100.0, u2=10.0, segments=segs),
                                spec, grid, 16)
        solved = count[0]
        p = res.p
        assert count[0] == solved + 1
        assert res.p is p
        assert count[0] == solved + 1

    def test_zero_target_marches_only_the_first_adjoint(self, small_setup, monkeypatch):
        spec, grid, segs = small_setup
        count = self._count_marches(monkeypatch)
        res = fixed_point_solve(SNConfig(sigma=100.0, u2=0.0, segments=segs),
                                spec, grid, 16)
        assert res.iterations == 1
        assert count[0] == 1  # the adjoint of the zero state; u itself is not marched
        assert res.u is res.psi is res.phi


class TestLazyAdjoint:
    """``res.p`` is the backward march of ``res.u - target`` on u's plan."""

    @pytest.mark.parametrize("u2", [10.0, lambda x, t: 10.0 + np.sin(x) * np.cos(t)])
    def test_equals_backward_march_of_final_state(self, small_setup, u2):
        spec, grid, segs = small_setup
        N = 16
        res = fixed_point_solve(SNConfig(sigma=100.0, u2=u2, segments=segs), spec, grid, N)
        plan = res.u.plan
        target = plan.target(u2)
        want = solve_backward(res.u.frames - target, spec, grid, N)
        np.testing.assert_array_equal(res.p.frames, want.frames)
        assert res.p.plan is plan

    def test_verify_follower_best_response_line(self):
        name, ok, detail = verification._check_nash_residual()
        tc = compute_Tc(0.25)
        spec = MovingDomainSpec(k=0.25, T=tc)
        grid = build_time_grid(tc, 50)
        res = fixed_point_solve(SNConfig(sigma=100.0), spec, grid, 50)
        p = solve_backward(res.u.frames - 10.0, spec, grid, 50)
        r = nash_residual(res.w2, p, 100.0, BoundarySegments.disjoint_halves(tc))
        assert (name, ok) == ("follower-best-response", True)
        assert detail == f"residual {r:.2e}, iterations {res.iterations}"

    def test_marched_under_the_sweep_errstate(self, small_setup):
        spec, grid, segs = small_setup
        res = fixed_point_solve(SNConfig(sigma=100.0, u2=10.0, segments=segs), spec, grid, 16)
        res = dataclasses.replace(res, _sweep=dataclasses.replace(
            res._sweep, target=np.full(res.u.frames.shape, np.inf)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                frames = res.p.frames
        assert not np.isfinite(frames).all()


class TestFrozenResult:
    """``SNResult`` cannot disagree with its solve: it is frozen, its log is
    a tuple and its arrays are read-only, ``p`` too once marched."""

    def test_fields_and_arrays_cannot_change(self, small_setup):
        spec, grid, segs = small_setup
        N = 16
        cfg = SNConfig(sigma=100.0, u2=10.0, segments=segs,
                       phi_terminal=bump_terminal(spec, grid, N))
        res = fixed_point_solve(cfg, spec, grid, N)
        assert isinstance(res.log, tuple) and res.iterations == len(res.log) >= 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.u = res.psi
        for a in (res.w1, res.w2, res.u.frames, res.psi.frames, res.phi.frames, res.p.frames):
            with pytest.raises(ValueError, match="read-only"):
                a[:] = 0.0
        assert res.p is res.p

    def test_equality_and_hash_are_identity(self, small_setup):
        """The classes that hold arrays compare and hash by identity:
        field-wise ``==`` would ask numpy for the truth value of an array."""
        spec, grid, segs = small_setup
        N = 16
        cfg = SNConfig(sigma=100.0, u2=10.0, segments=segs,
                       phi_terminal=bump_terminal(spec, grid, N))
        a, b = (fixed_point_solve(cfg, spec, grid, N) for _ in range(2))
        chk = [nash_gradient_check(a.w1, a.w2, cfg, spec, grid, N, n_directions=2)
               for _ in range(2)]
        twins = [(a, b), (a.u, b.u), (a.u.plan, b.u.plan), (a._sweep, b._sweep), tuple(chk),
                 (a.u, Trajectory(a.u.plan, a.u.frames))]
        for x, y in twins:
            assert x == x and x != y and not x == y
            assert hash(x) == hash(x) and len({x, y, x}) == 2


class TestTarget:
    """A callable target u2 gives one value per node, or a scalar."""

    def test_scalar_callable_matches_constant(self, small_setup):
        spec, grid, segs = small_setup
        const = fixed_point_solve(SNConfig(sigma=100.0, u2=10.0, segments=segs),
                                  spec, grid, 16)
        call = fixed_point_solve(SNConfig(sigma=100.0, u2=lambda x, t: 10.0, segments=segs),
                                 spec, grid, 16)
        assert call.iterations == const.iterations
        np.testing.assert_array_equal(call.w2, const.w2)
        np.testing.assert_array_equal(call.u.frames[-1], const.u.frames[-1])
        assert [r.J2 for r in call.log] == [r.J2 for r in const.log]
        assert (evaluate_J2(const.u, const.w2, segs.sigma2, lambda x, t: 10.0, 100.0)
                == evaluate_J2(const.u, const.w2, segs.sigma2, 10.0, 100.0))

    def test_target_evaluated_once_per_solve(self, small_setup):
        spec, grid, segs = small_setup
        calls = [0]

        def u2(x, t):
            calls[0] += 1
            return np.full_like(x, 10.0)

        res = fixed_point_solve(SNConfig(sigma=100.0, u2=u2, segments=segs), spec, grid, 16)
        assert res.iterations >= 2
        assert calls[0] == grid.M + 1

    @pytest.mark.parametrize("N", [100, 300])
    def test_callable_reads_the_level_nodes_rows(self, N):
        """A callable u2 is given level m's nodes, the row of
        ``level_nodes(spec, grid.levels, N)`` bit for bit, at t = t^m."""
        spec = MovingDomainSpec(k=0.25, T=4.0)
        grid = build_time_grid(4.0, 20)
        seen = []

        def u2(x, t):
            seen.append((x.tobytes(), t))
            return np.sin(x)

        target = _level_plan(spec, grid, N).target(u2)
        nodes = level_nodes(spec, grid.levels, N)[1]
        assert seen == [(x.tobytes(), t) for x, t in zip(nodes, grid.levels)]
        np.testing.assert_array_equal(target, np.sin(nodes))

    def test_callable_target_peaks_near_one_frame(self):
        """A callable u2 is given one level's node row at a time: the
        target's build holds its own frames and a few rows, where a whole
        node array beside them made it 2 frames (tracemalloc)."""
        N = M = 300
        spec = MovingDomainSpec(k=0.25, T=4.0)
        plan = _level_plan(spec, build_time_grid(4.0, M), N)
        plan.target(lambda x, t: np.cos(x))  # first calls fill numpy's own caches
        tracemalloc.start()
        try:
            target = plan.target(lambda x, t: np.cos(x))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * target.nbytes

    @pytest.mark.parametrize("bad", [lambda x, t: math.nan if t > 1.0 else 10.0,
                                     lambda x, t: np.where(x > 0.5, math.inf, 10.0),
                                     lambda x, t: np.full_like(x, -math.inf)])
    def test_non_finite_values_name_t(self, small_setup, bad):
        # rejected as an input error, not surfaced as a divergence of the sweep
        spec, grid, segs = small_setup
        msg = r"^target u2 returned a non-finite value at t=\S+$"
        with pytest.raises(ValueError, match=msg):
            fixed_point_solve(SNConfig(sigma=100.0, u2=bad, segments=segs), spec, grid, 16)
        u = make_trajectory(spec, grid, 16, np.zeros_like)
        with pytest.raises(ValueError, match=msg):
            evaluate_J2(u, np.zeros(grid.M + 1), segs.sigma2, bad, 100.0)

    @pytest.mark.parametrize("bad", [lambda x, t: (1 + 1j) * np.ones_like(x),
                                     lambda x, t: 10.0 + 0j])
    def test_complex_values_name_u2(self, small_setup, bad):
        # refused before numpy drops the imaginary part with a ComplexWarning
        spec, grid, segs = small_setup
        msg = r"^u2 is complex, expected real values$"
        u = make_trajectory(spec, grid, 16, np.zeros_like)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=msg):
                fixed_point_solve(SNConfig(sigma=100.0, u2=bad, segments=segs), spec, grid, 16)
            with pytest.raises(ValueError, match=msg):
                evaluate_J2(u, np.zeros(grid.M + 1), segs.sigma2, bad, 100.0)

    @pytest.mark.parametrize("bad", [lambda x, t: np.ones(3),
                                     lambda x, t: np.ones((len(x), 2))])
    def test_wrong_shape_names_u2(self, small_setup, bad):
        spec, grid, segs = small_setup
        with pytest.raises(ValueError, match="u2"):
            fixed_point_solve(SNConfig(sigma=100.0, u2=bad, segments=segs), spec, grid, 16)
        u = make_trajectory(spec, grid, 16, np.zeros_like)
        with pytest.raises(ValueError, match="u2"):
            evaluate_J2(u, np.zeros(grid.M + 1), segs.sigma2, bad, 100.0)


class TestWorkCounts:
    """A solve builds its level plan once: one sine basis, and no node
    stack, neither a ``level_nodes`` call nor a ``_node_rows`` call that
    writes every level's row at once."""

    @staticmethod
    def _count(monkeypatch, M):
        count = {"basis": 0, "nodes": 0, "stacks": 0}
        basis, nodes, rows = solvers._sine_basis, geometry.level_nodes, geometry._node_rows

        def counted_basis(*args):
            count["basis"] += 1
            return basis(*args)

        def counted_nodes(*args):
            count["nodes"] += 1
            return nodes(*args)

        def counted_rows(h, ends, out):
            count["stacks"] += out.ndim == 2 and len(out) == M + 1
            return rows(h, ends, out)

        monkeypatch.setattr(solvers, "_sine_basis", counted_basis)
        fakes = {"level_nodes": (nodes, counted_nodes), "_node_rows": (rows, counted_rows)}
        for name, mod in list(sys.modules.items()):
            for attr, (real, fake) in fakes.items():
                if name.startswith("snwave") and getattr(mod, attr, None) is real:
                    monkeypatch.setattr(mod, attr, fake)
        return count

    @pytest.mark.parametrize("leader", [False, True])
    def test_one_plan_per_solve(self, small_setup, monkeypatch, leader):
        spec, grid, segs = small_setup
        N = 16
        phi_terminal = None
        if leader:
            _, x = level_nodes(spec, grid.T, N)
            phi_terminal = (np.sin(np.pi * x / x[-1]), None)
        count = self._count(monkeypatch, grid.M)
        cfg = SNConfig(sigma=100.0, u2=lambda x, t: np.cos(x), segments=segs,
                       phi_terminal=phi_terminal, max_iter=3)
        res = fixed_point_solve(cfg, spec, grid, N)
        assert count == {"basis": 1, "nodes": 0, "stacks": 0}
        res.p  # the lazy adjoint march makes no node stack either
        fixed_point_solve(cfg, spec, grid, N)
        assert count == {"basis": 2, "nodes": 0, "stacks": 0}

    def test_nash_gradient_check_builds_one_plan(self, small_setup, monkeypatch):
        spec, grid, segs = small_setup
        cfg = SNConfig(sigma=100.0, u2=10.0, segments=segs)
        w1 = np.zeros(grid.M + 1)
        w2 = np.zeros(grid.M + 1)
        count = self._count(monkeypatch, grid.M)
        nash_gradient_check(w1, w2, cfg, spec, grid, 16, n_directions=2)
        assert count == {"basis": 1, "nodes": 0, "stacks": 0}

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
            plan.h[3] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            plan.ends[3] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            plan.ST[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            plan.G[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            plan.lift[0] = 0.0


class TestSolveMemory:
    """A solve holds its level plan and two frames, complex when the leader
    chain is live: the previous sweep's state and the new one while du_l2
    reads them, the new state and the backward march's frames while the
    backward march runs, and one 128 KB block of du_l2's difference.
    Keeping the previous state through the backward march, the previous
    sweep's p, psi or phi into the next sweep, a full-size difference for
    du_l2 or a full-size adjoint source beside the backward frames takes
    a frame more each; at N = 100 the block is a whole real frame, half a
    complex one.  tracemalloc sees numpy's buffers."""

    @staticmethod
    def _plan_bytes(plan) -> int:
        """Bytes of the plan's arrays that own their memory; a view adds none."""
        arrays = [v for v in vars(plan).values() if isinstance(v, np.ndarray)]
        return sum(a.nbytes for a in arrays if a.base is None)

    @pytest.mark.parametrize("N,leader", [(300, False), (100, True)])
    def test_peak_beyond_the_plan(self, N, leader):
        T = compute_Tc(0.25) * (10 if leader else 1)
        spec = MovingDomainSpec(k=0.25, T=T)
        grid = build_time_grid(T, N)
        cfg = SNConfig(sigma=100.0, phi_terminal=bump_terminal(spec, grid, N) if leader else None)
        fixed_point_solve(cfg, spec, grid, N)  # first calls fill numpy's own caches
        tracemalloc.start()
        try:
            res = fixed_point_solve(cfg, spec, grid, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged
        frame = (N + 1) ** 2 * np.dtype(complex if leader else float).itemsize
        assert peak - self._plan_bytes(res.u.plan) < 3 * frame
        if N == 300:
            # with its plan: 4.72 frames with an (M+1, N+1) node array in the plan, 3.72 without
            assert peak < 4.2 * frame

    def test_plan_holds_no_node_array(self):
        # 2.50 frames at N = M = 300 with an (M+1, N+1) node array, 1.51 without
        N = 300
        plan = _level_plan(MovingDomainSpec(k=0.25, T=3.0), build_time_grid(3.0, N), N)
        assert self._plan_bytes(plan) < 2 * (N + 1) ** 2 * 8

    @pytest.mark.parametrize("case", ["default", "leader", "zero-target"])
    def test_result_frees_its_plan_without_the_cycle_collector(self, small_setup, case):
        """A result and its plan make no reference cycle: with the cycle
        collector off, dropping a result whose ``p`` was read frees the plan."""
        spec, grid, _ = small_setup
        N = 16
        cfg = {"default": SNConfig(sigma=100.0),
               "leader": SNConfig(sigma=100.0, phi_terminal=bump_terminal(spec, grid, N)),
               "zero-target": SNConfig(sigma=100.0, u2=0.0)}[case]
        enabled = gc.isenabled()
        gc.disable()
        try:
            res = fixed_point_solve(cfg, spec, grid, N)
            assert res.p.frames.shape == res.u.plan.shape
            plan = weakref.ref(res.u.plan)
            del res
            assert plan() is None
        finally:
            if enabled:
                gc.enable()

    def test_leader_result_owns_psi_and_phi(self, small_setup):
        """A live-leader result's psi and phi are copies of the last sweep's
        imaginary parts, so it holds neither complex array of that sweep."""
        spec, grid, segs = small_setup
        N = 16
        cfg = SNConfig(sigma=100.0, u2=10.0, segments=segs,
                       phi_terminal=bump_terminal(spec, grid, N))
        res = fixed_point_solve(cfg, spec, grid, N)
        sweep = game._Sweep.of(cfg, spec, grid, N)
        state = (np.zeros(grid.M + 1),) * 3
        for _ in range(res.iterations):
            state, (_, psi, phi) = sweep(*state)
        for got, want in ((res.psi, psi), (res.phi, phi)):
            assert want.base.dtype == complex
            assert got.frames.base is None
            np.testing.assert_array_equal(got.frames, want)


class TestNashResidual:
    def test_matches_per_level_loop(self, small_setup):
        spec, grid, segs = small_setup
        sigma = 100.0
        res = fixed_point_solve(SNConfig(sigma=sigma, u2=10.0, segments=segs, max_iter=2),
                                spec, grid, 16)
        got = nash_residual(res.w2, res.p, sigma, segs)
        defect = 0.0
        for m in np.nonzero(segment_mask(segs.sigma2, grid))[0]:
            flux = boundary_flux_left(res.p.frames[m], res.p.plan.h[m])
            r = sigma * res.w2[m] - (-flux)
            defect += grid.dt * r * r
        ref = math.sqrt(defect) / (sigma * control_l2_norm(res.w2, segs.sigma2, grid))
        assert ref > 1e-6
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_zero_control_gives_the_flux_norm(self):
        # sigma ||w2|| = 0: the defect itself, the norm of p's flux on the segment
        spec = MovingDomainSpec(k=0.25, T=4.0)
        grid = build_time_grid(4.0, 20)
        segs = BoundarySegments.disjoint_halves(4.0)
        res = fixed_point_solve(SNConfig(sigma=100.0, u2=10.0, segments=segs), spec, grid, 10)
        assert res.converged
        idx = np.nonzero(segment_mask(segs.sigma2, grid))[0]
        flux = -boundary_flux_left(res.p.frames[idx], res.p.plan.h[idx])
        got = nash_residual(np.zeros(grid.M + 1), res.p, 100.0, segs)
        assert got == pytest.approx(math.sqrt(grid.dt * np.sum(flux ** 2)), rel=1e-14)
        assert got > 1.0


class TestNashGradientCheck:
    def test_pairing_grows_linearly_with_bump(self, small_setup):
        spec, grid, segs = small_setup
        N, sigma = 40, 100.0
        cfg = SNConfig(sigma=sigma, u2=10.0, segments=segs)
        res = fixed_point_solve(cfg, spec, grid, N)
        mask = segment_mask(segs.sigma2, grid)
        idx = np.nonzero(mask)[0]
        s = (grid.levels[idx] - segs.sigma2[0]) / (segs.sigma2[1] - segs.sigma2[0])
        bump = np.zeros(grid.M + 1)
        bump[idx] = np.sin(np.pi * s)

        pairings = []
        for amp in (0.1, 0.2, 0.4):
            w2 = res.w2 + amp * bump
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
        mask = segment_mask(segs.sigma2, grid)
        idx = np.nonzero(mask)[0]
        s = (grid.levels[idx] - segs.sigma2[0]) / (segs.sigma2[1] - segs.sigma2[0])
        bump = np.zeros(grid.M + 1)
        bump[idx] = np.sin(np.pi * s)
        w2 = res.w2 + 0.5 * bump
        chk = nash_gradient_check(res.w1, w2, cfg, spec, grid, 40,
                                  n_directions=5, seed=3)
        for fd, ana in zip(chk.fd, chk.analytic):
            if abs(fd) > 0.05 * chk.scale:
                assert abs(fd - ana) <= 0.1 * abs(fd)

    def test_non_finite_derivatives_raise(self):
        # dt^2 underflows to 0, so every fd and analytic entry is nan
        spec = MovingDomainSpec(k=0.25, T=1e-300)
        grid = build_time_grid(1e-300, 10)
        segs = BoundarySegments.disjoint_halves(1e-300)
        cfg = SNConfig(sigma=100.0, segments=segs)
        w1 = np.zeros(grid.M + 1)
        w2 = np.zeros(grid.M + 1)
        with pytest.raises(DivergenceError) as exc:
            nash_gradient_check(w1, w2, cfg, spec, grid, 10)
        assert exc.value.payload["field"] == "nash_check"

    def test_zero_point_has_zero_discrepancy(self):
        # u2 = 0 and zero controls: fd, analytic and the scale are all exactly 0
        spec = MovingDomainSpec(k=0.25, T=4.0)
        grid = build_time_grid(4.0, 20)
        segs = BoundarySegments.disjoint_halves(4.0)
        cfg = SNConfig(sigma=100.0, u2=0.0, segments=segs)
        w1 = np.zeros(grid.M + 1)
        w2 = np.zeros(grid.M + 1)
        chk = nash_gradient_check(w1, w2, cfg, spec, grid, 20)
        assert chk.scale == 0.0
        assert np.all(chk.fd == 0.0) and np.all(chk.analytic == 0.0)
        assert chk.max_rel_discrepancy == 0.0

    def test_one_level_follower_segment_rejected(self):
        # the directions are sines over the segment's levels, which need two of them
        spec = MovingDomainSpec(k=0.25, T=4.0)
        grid = build_time_grid(4.0, 20)
        segs = BoundarySegments(sigma1=(2.0, 4.0), sigma2=(0.0, 0.1))
        cfg = SNConfig(sigma=100.0, segments=segs)
        w1 = np.zeros(grid.M + 1)
        w2 = np.zeros(grid.M + 1)
        with pytest.raises(ValueError, match="follower segment holds fewer than 2 time levels"):
            nash_gradient_check(w1, w2, cfg, spec, grid, 20)

    @pytest.mark.parametrize("n", [0, -1, 2.5])
    def test_direction_count_must_be_a_positive_integer(self, n):
        spec = MovingDomainSpec(k=0.25, T=4.0)
        grid = build_time_grid(4.0, 20)
        segs = BoundarySegments.disjoint_halves(4.0)
        cfg = SNConfig(sigma=100.0, segments=segs)
        w1 = np.zeros(grid.M + 1)
        w2 = np.zeros(grid.M + 1)
        with pytest.raises(ValueError, match="n_directions"):
            nash_gradient_check(w1, w2, cfg, spec, grid, 20, n_directions=n)


class TestBareControls:
    """The public functionals take bare ``(M+1,)`` controls with their
    segments beside them, check the shape and that every sample is
    finite, and read only the segment's samples."""

    N = 16
    # (entry point, control argument, 0 for the leader's or 1 for the follower's)
    CASES = [("control_l2_norm", "values", 1), ("evaluate_J", "w1", 0),
             ("evaluate_J2", "w2", 1), ("nash_residual", "w2", 1),
             ("nash_gradient_check", "w1", 0), ("nash_gradient_check", "w2", 1),
             ("duality_residual", "control", 1)]

    @pytest.fixture(scope="class")
    def point(self):
        """A solve with both controls nonzero, and each entry point as a
        function of the (leader, follower) pair."""
        spec = MovingDomainSpec(k=0.25, T=4.0)
        grid = build_time_grid(4.0, 20)
        segs = BoundarySegments.disjoint_halves(4.0)
        cfg = SNConfig(sigma=100.0, u2=10.0, segments=segs, max_iter=3,
                       phi_terminal=bump_terminal(spec, grid, self.N))
        res = fixed_point_solve(cfg, spec, grid, self.N)
        assert res.w1.any() and res.w2.any()
        source = res.u.frames - 10.0
        calls = {
            "control_l2_norm": lambda w1, w2: control_l2_norm(w2, segs.sigma2, grid),
            "evaluate_J": lambda w1, w2: evaluate_J(w1, segs.sigma1, grid),
            "evaluate_J2": lambda w1, w2: evaluate_J2(res.u, w2, segs.sigma2, 10.0, 100.0),
            "nash_residual": lambda w1, w2: nash_residual(w2, res.p, 100.0, segs),
            "nash_gradient_check": lambda w1, w2: nash_gradient_check(
                w1, w2, cfg, spec, grid, self.N, n_directions=2),
            "duality_residual": lambda w1, w2: duality_residual(
                w2, segs.sigma2, source, spec, grid, self.N),
        }
        return grid, segs, res, calls

    @staticmethod
    def _bits(out):
        if isinstance(out, NashCheckResult):
            return [np.asarray(getattr(out, f.name)).tobytes() for f in dataclasses.fields(out)]
        return np.float64(out).tobytes()

    @pytest.mark.parametrize("name,arg,slot", CASES)
    def test_wrong_shape_names_the_argument(self, point, name, arg, slot):
        grid, _, res, calls = point
        pair = [res.w1, res.w2]
        pair[slot] = pair[slot][:-1]
        M = grid.M
        with pytest.raises(ValueError, match=rf"^{arg} has shape \({M},\), expected \({M + 1},\)$"):
            calls[name](*pair)

    @pytest.mark.parametrize("name,arg,slot", CASES)
    def test_none_names_the_argument(self, point, name, arg, slot):
        grid, _, res, calls = point
        pair = [res.w1, res.w2]
        pair[slot] = None
        M = grid.M
        with pytest.raises(ValueError, match=rf"^{arg} is None, expected shape \({M + 1},\)$"):
            calls[name](*pair)

    @pytest.mark.parametrize("bad", ["all-nan", "one-inf"])
    @pytest.mark.parametrize("name,arg,slot", CASES)
    def test_non_finite_names_the_argument(self, point, name, arg, slot, bad):
        _, _, res, calls = point
        pair = [res.w1, res.w2]
        if bad == "all-nan":
            pair[slot] = np.full_like(pair[slot], np.nan)
        else:
            pair[slot] = pair[slot].copy()
            pair[slot][3] = -np.inf
        with pytest.raises(ValueError, match=rf"^{arg} holds a non-finite value$"):
            calls[name](*pair)

    @pytest.mark.parametrize("name,arg,slot", CASES)
    def test_complex_names_the_argument(self, point, name, arg, slot):
        _, _, res, calls = point
        pair = [res.w1, res.w2]
        pair[slot] = pair[slot] + 1j
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # raised before numpy drops an imaginary part
            with pytest.raises(ValueError, match=rf"^{arg} is complex, expected real values$"):
                calls[name](*pair)

    @pytest.mark.parametrize("name,arg", [("evaluate_J2", "u"), ("nash_residual", "p"),
                                          ("duality_residual", "source")])
    def test_complex_field_names_the_argument(self, point, name, arg):
        """The field beside the control: a complex trajectory ``u`` or
        ``p``, or a complex ``source``, is a ValueError naming it."""
        grid, segs, res, _ = point
        spec, N = MovingDomainSpec(k=0.25, T=4.0), self.N
        field = res.u.frames + 1j
        calls = {
            "evaluate_J2": lambda: evaluate_J2(Trajectory(res.u.plan, field), res.w2,
                                               segs.sigma2, 10.0, 100.0),
            "nash_residual": lambda: nash_residual(res.w2, Trajectory(res.p.plan, field),
                                                   100.0, segs),
            "duality_residual": lambda: duality_residual(res.w2, segs.sigma2, field,
                                                         spec, grid, N),
        }
        shown = arg if arg == "source" else f"trajectory {arg}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{shown} is complex, expected real values$"):
                calls[name]()

    @pytest.mark.parametrize("name", sorted({name for name, _, _ in CASES}))
    def test_values_off_the_segment_are_ignored(self, point, name):
        grid, segs, res, calls = point
        rng = np.random.default_rng(7)
        noisy = [np.where(segment_mask(seg, grid), w, 5.0 + rng.standard_normal(grid.M + 1))
                 for seg, w in ((segs.sigma1, res.w1), (segs.sigma2, res.w2))]
        assert not np.array_equal(noisy[0], res.w1) and not np.array_equal(noisy[1], res.w2)
        assert self._bits(calls[name](*noisy)) == self._bits(calls[name](res.w1, res.w2))

    def test_result_carries_the_sweep_segments(self, small_setup):
        spec, grid, _ = small_setup
        given = BoundarySegments.additive_overlap(grid.T)
        res = fixed_point_solve(SNConfig(sigma=100.0, segments=given, max_iter=1), spec, grid, 10)
        assert res.segments is given
        res = fixed_point_solve(SNConfig(sigma=100.0, max_iter=1), spec, grid, 10)
        assert res.segments == BoundarySegments.disjoint_halves(grid.T)


class TestConfigValidation:
    def test_bad_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            SNConfig(sigma=0.0)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            SNConfig(sigma=1.0, epsilon=0.0)

    def test_infinite_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            SNConfig(sigma=math.inf)

    def test_infinite_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            SNConfig(sigma=1.0, epsilon=math.inf)

    def test_bad_cap(self):
        with pytest.raises(ValueError, match="max_iter"):
            SNConfig(sigma=1.0, max_iter=0)

    def test_non_integral_cap(self):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            SNConfig(sigma=100.0, max_iter=2.5)
        assert SNConfig(sigma=100.0, max_iter=np.int64(3)).max_iter == 3

    @pytest.mark.parametrize("u2", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
    def test_non_finite_u2(self, u2):
        with pytest.raises(ValueError, match=r"^u2 must be finite, got "):
            SNConfig(sigma=100.0, u2=u2)

    @pytest.mark.parametrize("name,value", [("u2", math.nan), ("sigma", -1.0)])
    def test_config_cannot_change_after_its_check(self, name, value):
        cfg = SNConfig(sigma=100.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
        assert (cfg.sigma, cfg.u2) == (100.0, 10.0)

    @pytest.mark.parametrize("u2", [math.nan, math.inf, np.float64(-math.inf)])
    def test_non_finite_constant_target_in_evaluate_J2(self, small_setup, u2):
        spec, grid, segs = small_setup
        w2 = np.ones(grid.M + 1)
        u = solve_forward(w2, spec, grid, 10)
        with pytest.raises(ValueError, match=r"^u2 must be finite, got "):
            evaluate_J2(u, w2, segs.sigma2, u2, 100.0)

    @pytest.mark.parametrize("u2", [1 + 1j, np.complex128(10.0)])
    def test_complex_constant_u2(self, small_setup, u2):
        spec, grid, segs = small_setup
        w2 = np.ones(grid.M + 1)
        u = solve_forward(w2, spec, grid, 10)
        with pytest.raises(ValueError, match=r"^u2 is complex, expected real values$"):
            SNConfig(sigma=100.0, u2=u2)
        with pytest.raises(ValueError, match=r"^u2 is complex, expected real values$"):
            evaluate_J2(u, w2, segs.sigma2, u2, 100.0)

    @pytest.mark.parametrize("i", [0, 1])
    def test_complex_phi_terminal(self, small_setup, i):
        spec, grid, segs = small_setup
        pair = [None, None]
        pair[i] = (1 + 1j) * np.ones(11)
        cfg = SNConfig(sigma=100.0, segments=segs, phi_terminal=tuple(pair))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before numpy drops the imaginary part
            with pytest.raises(ValueError,
                               match=rf"^phi_terminal\[{i}\] is complex, expected real values$"):
                fixed_point_solve(cfg, spec, grid, 10)

    @pytest.mark.parametrize("i,value", [(0, math.nan), (1, math.inf), (1, -math.inf)])
    def test_non_finite_phi_terminal(self, small_setup, i, value):
        spec, grid, segs = small_setup
        pair = [np.zeros(11), np.zeros(11)]
        pair[i][4] = value
        cfg = SNConfig(sigma=100.0, segments=segs, phi_terminal=tuple(pair))
        with pytest.raises(ValueError, match=rf"^phi_terminal\[{i}\] holds a non-finite value$"):
            fixed_point_solve(cfg, spec, grid, 10)

    @pytest.mark.parametrize("phi_terminal", [
        (np.zeros(11), np.zeros(11), np.zeros(11)),
        (np.ones(11),),
        (),
        np.ones(11),
    ])
    def test_phi_terminal_must_be_a_pair(self, phi_terminal):
        with pytest.raises(ValueError, match="phi_terminal must be None or a"):
            SNConfig(sigma=100.0, phi_terminal=phi_terminal)

    @pytest.mark.parametrize("sigma1,sigma2,name", [
        ((5.0, 6.0), (10.0, 20.0), "sigma1"),  # both beyond T
        ((2.0, 4.0), (10.0, 20.0), "sigma2"),
        ((1.05, 1.15), (0.0, 2.0), "sigma1"),  # between the levels 1.0 and 1.2
    ])
    def test_segment_without_a_level_rejected(self, sigma1, sigma2, name):
        spec = MovingDomainSpec(k=0.25, T=4.0)
        grid = build_time_grid(4.0, 20)
        segs = BoundarySegments(sigma1, sigma2)
        cfg = SNConfig(sigma=100.0, segments=segs)
        with pytest.raises(ValueError, match=rf"{name} .* holds no time level"):
            fixed_point_solve(cfg, spec, grid, 10)
        # the diagnostics and functionals that read the empty segment reject
        # it too, not return 0
        source, seg, w = np.ones((grid.M + 1, 11)), getattr(segs, name), np.ones(grid.M + 1)
        u = solve_forward(w, spec, grid, 10)
        for call in (lambda: duality_residual(w, seg, source, spec, grid, 10),
                     lambda: evaluate_J(w, seg, grid),
                     lambda: evaluate_J2(u, w, seg, 10.0, 100.0),
                     lambda: control_l2_norm(w, seg, grid)):
            with pytest.raises(ValueError, match=rf"^segment \({seg[0]}, .* holds "
                                                 rf"no time level of the grid \(T=4.0, M=20\)$"):
                call()
        if not segment_mask(sigma2, grid).any():
            p = solve_backward(source, spec, grid, 10)
            with pytest.raises(ValueError, match=r"^sigma2 .* holds no time level"):
                nash_residual(np.ones(grid.M + 1), p, 100.0, segs)

    def test_non_integral_elements(self, small_setup):
        spec, grid, segs = small_setup
        cfg = SNConfig(sigma=100.0, segments=segs, max_iter=2)
        with pytest.raises(ValueError, match="N must be an integer"):
            fixed_point_solve(cfg, spec, grid, N=10.5)
        assert fixed_point_solve(cfg, spec, grid, N=np.int64(10)).u.frames.shape[1] == 11


class TestSpecHorizon:
    """Every entry that builds a level plan rejects a spec whose horizon
    T is not the grid's, naming T, before it marches."""

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    @pytest.mark.parametrize("entry", ["solve_forward", "solve_backward", "duality_residual",
                                       "fixed_point_solve", "nash_gradient_check"])
    def test_rejected(self, entry, factor):
        N = 10
        grid = build_time_grid(4.0, 20)
        spec = MovingDomainSpec(k=0.25, T=4.0 * factor)
        segs = BoundarySegments.disjoint_halves(4.0)
        cfg = SNConfig(sigma=100.0, segments=segs)
        w, source = np.ones(grid.M + 1), np.ones((grid.M + 1, N + 1))
        calls = {
            "solve_forward": lambda: solve_forward(w, spec, grid, N),
            "solve_backward": lambda: solve_backward(source, spec, grid, N),
            "duality_residual": lambda: duality_residual(w, segs.sigma2, source, spec, grid, N),
            "fixed_point_solve": lambda: fixed_point_solve(cfg, spec, grid, N),
            "nash_gradient_check": lambda: nash_gradient_check(w, w, cfg, spec, grid, N),
        }
        with pytest.raises(ValueError, match=rf"^spec T={spec.T!r} is not the time grid's "
                                             rf"T=4\.0$"):
            calls[entry]()
