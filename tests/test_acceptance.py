"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion summary lines).  The Table sweeps run at the production
resolution N = M = 100, k = 1/4, u2 = 10, epsilon = 1e-5.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from snwave import (
    BoundarySegments,
    MovingDomainSpec,
    SNConfig,
    build_time_grid,
    compute_Tc,
    duality_residual,
    fixed_point_solve,
    nash_gradient_check,
    nash_residual,
    solve_backward,
    solve_forward,
    trapezoid_stats,
)
from p1_dense import mass_matrix
import snwave.game as game
from snwave.geometry import level_nodes
from snwave.verification import _duality_probe

K = 0.25
N = M = 100
SIGMA = 100.0
U2 = 10.0
EPSILON = 1e-5


def report(criterion, text):
    print(f"criterion {criterion}: {text}")


@pytest.fixture(scope="module")
def tc():
    return compute_Tc(K)


@pytest.fixture(scope="module")
def sigma_sweep(tc):
    """Criterion 3 runs: sigma = 10^1..10^10 at T = T_c."""
    spec = MovingDomainSpec(k=K, T=tc)
    grid = build_time_grid(tc, M)
    out = []
    for expo in range(1, 11):
        cfg = SNConfig(sigma=10.0 ** expo, epsilon=EPSILON, max_iter=100, u2=U2)
        out.append((cfg, spec, grid, fixed_point_solve(cfg, spec, grid, N)))
    return out


@pytest.fixture(scope="module")
def t_sweep(tc):
    """Criterion 4 runs: T = 1..10 x T_c at sigma = 100."""
    out = []
    for mult in range(1, 11):
        T = mult * tc
        spec = MovingDomainSpec(k=K, T=T)
        grid = build_time_grid(T, M)
        cfg = SNConfig(sigma=SIGMA, epsilon=EPSILON, max_iter=100, u2=U2)
        out.append((cfg, spec, grid, fixed_point_solve(cfg, spec, grid, N)))
    return out


def test_criterion_1_control_time_formula():
    """compute_Tc(0.25) against an independent 50-digit evaluation."""
    with mp.workdps(50):
        kk = mp.mpf("0.25")
        oracle = float(mp.e ** (2 * kk * (1 + kk) / (1 - kk) ** 3) / kk)
    got = compute_Tc(0.25)
    assert abs(got - oracle) <= 1e-3
    assert got == pytest.approx(17.5978, abs=1e-3)
    report(1, f"compute_Tc(0.25) = {got:.7f}, oracle {oracle:.7f}")


def test_criterion_2_border_lengths(tc):
    """Trapezoid border lengths match the reference table within 1%."""
    refs = {1: 41.936, 5: 202.484, 10: 403.167}
    gaps = {}
    for mult, ref in refs.items():
        spec = MovingDomainSpec(k=K, T=mult * tc)
        stats = trapezoid_stats(spec, target_edge=mult * tc / 128.0)
        gaps[mult] = abs(stats.border_length - ref) / ref
        assert gaps[mult] < 0.01, f"T={mult}*Tc border {stats.border_length}"
    report(2, "relative gaps " + ", ".join(f"{m}Tc: {g:.4f}" for m, g in gaps.items()))


def test_criterion_3_sigma_trend(sigma_sweep):
    """Iterations non-increasing in sigma; banded at 1e2 and >= 1e7."""
    iters = [res.iterations for _, _, _, res in sigma_sweep]
    assert all(res.converged for _, _, _, res in sigma_sweep)
    assert all(b <= a for a, b in zip(iters, iters[1:])), iters
    assert 4 <= iters[1] <= 10, f"sigma=1e2 iterations {iters[1]}"
    for expo, it in zip(range(1, 11), iters):
        if expo >= 7:
            assert 1 <= it <= 4, f"sigma=1e{expo} iterations {it}"
    assert all(res.log[-1].stop_qty <= EPSILON for _, _, _, res in sigma_sweep)
    report(3, f"iterations {iters}")


def test_criterion_4_horizon_trend(t_sweep):
    """Iterations across T = 1..10 x T_c in [4,12], non-decreasing within 1."""
    iters = [res.iterations for _, _, _, res in t_sweep]
    assert all(res.converged for _, _, _, res in t_sweep)
    assert all(res.log[-1].stop_qty <= EPSILON for _, _, _, res in t_sweep)
    assert all(b >= a - 1 for a, b in zip(iters, iters[1:])), iters
    report(4, f"iterations {iters}")
    assert all(4 <= it <= 12 for it in iters), f"iterations outside [4,12]: {iters}"


def test_criterion_5_nash_optimality(sigma_sweep, t_sweep):
    """Follower characterization and FD-vs-adjoint agreement at every
    converged sweep run."""
    worst_residual = 0.0
    worst_discrepancy = 0.0
    for cfg, spec, grid, res in list(sigma_sweep) + list(t_sweep):
        if not res.converged:
            continue
        segs = BoundarySegments.disjoint_halves(grid.T)
        r = nash_residual(res.w2, res.p, cfg.sigma, segs, grid)
        worst_residual = max(worst_residual, r)
        assert r <= 1e-3, f"sigma={cfg.sigma} T={grid.T}: residual {r:.2e}"
        chk = nash_gradient_check(res.w1, res.w2, cfg, spec, grid, N,
                                  n_directions=5, seed=0)
        worst_discrepancy = max(worst_discrepancy, chk.max_rel_discrepancy)
    report(5, f"max residual {worst_residual:.2e}, "
              f"max FD discrepancy {worst_discrepancy:.4f}")
    assert worst_discrepancy <= 0.01, (
        f"FD vs adjoint pairing discrepancy {worst_discrepancy:.4f} > 1%")


def _manufactured_error(NM):
    spec = MovingDomainSpec(k=0.0, T=1.0)
    grid = build_time_grid(1.0, NM)
    h, x = level_nodes(spec, 0.0, NM)
    traj = solve_forward(np.zeros(NM + 1), spec, grid, NM,
                         ic0=np.sin(np.pi * x), ic1=np.zeros(NM + 1))
    acc = 0.0
    mass = mass_matrix(NM, h)
    for m in range(NM):
        d = traj.frames[m] - np.sin(np.pi * x) * np.cos(np.pi * grid.levels[m])
        acc += grid.dt * float(d @ mass @ d)
    return math.sqrt(acc)


def test_criterion_6_solver_verification():
    """Manufactured-solution refinement and backward/forward reversal."""
    errs = [_manufactured_error(NM) for NM in (50, 100, 200)]
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    assert r1 >= 1.7 and r2 >= 1.7, f"refinement factors {r1:.2f}, {r2:.2f}"

    NM = 64
    spec = MovingDomainSpec(k=0.0, T=1.0)
    grid = build_time_grid(1.0, NM)
    _, x = level_nodes(spec, 0.0, NM)
    src = np.array([np.sin(2 * np.pi * x) * np.cos(3.0 * t) for t in grid.levels])
    back = solve_backward(src, spec, grid, NM)
    fwd = solve_forward(np.zeros(NM + 1), spec, grid, NM,
                        source=np.array([src[NM - m] for m in range(NM + 1)]))
    gap = max(float(np.max(np.abs(back.frames[NM - m] - fwd.frames[m])))
              for m in range(NM + 1))
    assert gap <= 1e-10
    report(6, f"refinement factors {r1:.3f}, {r2:.3f}; reversal gap {gap:.2e}")


def test_criterion_7_degenerate_subsystem(tc):
    """With zero phi terminal data and zero initial leader, psi, phi and
    w1 are exactly zero at every sweep (bit-exact)."""
    spec = MovingDomainSpec(k=K, T=tc)
    grid = build_time_grid(tc, M)
    cfg = SNConfig(sigma=SIGMA, epsilon=EPSILON, max_iter=100, u2=U2)
    res = fixed_point_solve(cfg, spec, grid, N)
    assert res.converged
    # the solve's sweeps, stepped by hand: each updated w1 and its psi, phi
    sweep = game._Sweep.of(cfg, spec, grid, N)
    state = (np.zeros(M + 1),) * 3
    for _ in range(res.iterations):
        state, (_u, psi, phi) = sweep(*state)
        assert np.all(state[0] == 0.0)
        assert np.all(psi.frames == 0.0)
        assert np.all(phi.frames == 0.0)
    report(7, f"{res.iterations} sweeps, psi/phi/w1 bit-zero throughout")


def _duality(NM):
    return duality_residual(*_duality_probe(NM), NM)


def test_criterion_8_duality_residual():
    """Discrete state/adjoint duality gap at k=0, N=M=200, and refinement."""
    r100 = _duality(100)
    r200 = _duality(200)
    assert r200 <= 0.05, f"duality residual {r200:.4f}"
    assert r200 < r100, f"no decrease: {r100:.4f} -> {r200:.4f}"
    report(8, f"residual {r100:.4f} (N=M=100) -> {r200:.4f} (N=M=200)")


def test_follower_cost_decreases_over_the_iteration(t_sweep):
    """For the horizon-sweep configuration the follower cost at the first
    sweep (zero controls) exceeds the converged value."""
    for _, _, _, res in t_sweep:
        assert res.log[-1].J2 < res.log[0].J2


def test_stopping_errors_follow_reference_pattern(sigma_sweep, t_sweep):
    """Final stopping quantities sit below epsilon everywhere and, where
    the iteration count matches the reference tables, within two decades
    of the reported error values."""
    table3 = {1: (34, 7.77814e-6), 2: (6, 8.94080e-6), 3: (4, 2.00607e-6),
              4: (3, 3.10847e-6), 5: (3, 3.10853e-8), 6: (3, 3.10861e-10),
              7: (2, 5.61446e-6), 8: (2, 5.61446e-7), 9: (2, 5.61446e-8),
              10: (2, 2.61444e-8)}
    for (cfg, _, _, res), expo in zip(sigma_sweep, range(1, 11)):
        stop = res.log[-1].stop_qty
        assert stop <= EPSILON
        ref_iters, ref_err = table3[expo]
        if res.iterations == ref_iters:
            ratio = stop / ref_err
            assert 1e-2 <= ratio <= 1e2, (
                f"sigma=1e{expo}: stop {stop:.2e} vs reference {ref_err:.2e}")
    for _, _, _, res in t_sweep:
        assert res.log[-1].stop_qty <= EPSILON
