"""Built-in oracle battery behind the CLI ``verify`` subcommand.

Each check returns (name, passed, detail).  The same properties are
asserted at full size in the test suite; here the heavier ones run at
reduced resolution so the whole battery stays fast.
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    MovingDomainSpec,
    build_time_grid,
    compute_Tc,
    level_nodes,
    trapezoid_stats,
)
from .fem import _mass_pairing
from .solvers import duality_residual, solve_backward, solve_forward
from .game import SNConfig, fixed_point_solve, nash_residual

# Independently computed control-time constant for k = 1/4 (50-digit
# evaluation of exp(32/27)*4, truncated to double precision).
TC_QUARTER = 17.597834287066328


def _check_tc():
    got = compute_Tc(0.25)
    ok = abs(got - TC_QUARTER) <= 1e-3
    return "tc-formula", ok, f"compute_Tc(0.25) = {got:.6f}"


def _check_border():
    tc = compute_Tc(0.25)
    refs = {1: 41.936, 5: 202.484, 10: 403.167}
    worst = 0.0
    for mult, ref in refs.items():
        spec = MovingDomainSpec(k=0.25, T=mult * tc)
        st = trapezoid_stats(spec, target_edge=mult * tc / 128.0)
        worst = max(worst, abs(st.border_length - ref) / ref)
    return "border-length", worst <= 0.01, f"max relative gap {worst:.4f}"


def _manufactured_error(NM):
    spec = MovingDomainSpec(k=0.0, T=1.0)
    grid = build_time_grid(1.0, NM)
    _, x = level_nodes(spec, 0.0, NM)
    traj = solve_forward(np.zeros(NM + 1), spec, grid, NM, ic0=np.sin(np.pi * x))
    d = traj.frames - np.outer(np.cos(np.pi * grid.levels), np.sin(np.pi * x))
    return np.sqrt(grid.dt * _mass_pairing(d, d, traj.plan.h))


def _check_manufactured():
    e1 = _manufactured_error(50)
    e2 = _manufactured_error(100)
    ok = e1 / e2 >= 1.7
    return "manufactured-convergence", ok, f"error ratio 50->100 = {e1 / e2:.3f}"


def _check_reversal():
    NM = 64
    spec = MovingDomainSpec(k=0.0, T=1.0)
    grid = build_time_grid(1.0, NM)
    _, x = level_nodes(spec, 0.0, NM)
    src = np.outer(np.cos(3.0 * grid.levels), np.sin(2 * np.pi * x))
    back = solve_backward(src, spec, grid, NM)
    fwd = solve_forward(np.zeros(NM + 1), spec, grid, NM, source=src[::-1])
    gap = float(np.max(np.abs(back.frames[::-1] - fwd.frames)))
    return "backward-reversal", gap <= 1e-10, f"max frame gap {gap:.2e}"


def _paired(re, im):
    """The data of ``re`` plus i times those of ``im``, two dicts of march arguments."""
    return {name: re[name] + 1j * im[name] for name in re}


def _check_paired_march():
    NM = 32
    spec = MovingDomainSpec(k=0.25, T=4.0)
    grid = build_time_grid(4.0, NM)
    _, x = level_nodes(spec, 0.0, NM)
    t = grid.levels[:, None]

    def problems(a):
        """Forward data with a lift and a source, backward data with terminal data."""
        return (dict(left_boundary=np.sin(0.7 * grid.levels + a),
                     ic0=np.cos(a) * np.sin(np.pi * x), ic1=a * x * (1.0 - x),
                     source=np.cos(t + a) * x),
                dict(source=np.sin(t - a) * (1.0 - x),
                     terminal0=np.sin((2.0 + a) * np.pi * x),
                     terminal1=np.cos(x + a)))

    worst = 0.0
    for solve, re, im in zip((solve_forward, solve_backward), problems(0.3), problems(1.1)):
        got = solve(spec=spec, grid=grid, N=NM, **_paired(re, im)).frames
        for part, data in ((got.real, re), (got.imag, im)):
            ref = solve(spec=spec, grid=grid, N=NM, **data).frames
            worst = max(worst, float(np.max(np.abs(part - ref)) / np.max(np.abs(ref))))
    return "paired-march", worst <= 1e-12, f"max relative gap {worst:.2e}"


def _check_zero_data():
    spec = MovingDomainSpec(k=0.25, T=4.0)
    grid = build_time_grid(4.0, 32)
    traj = solve_forward(np.zeros(33), spec, grid, 32)
    ok = bool(np.all(traj.frames == 0.0))
    return "zero-data-zero-trajectory", ok, "all frames exactly zero" if ok else "nonzero frame"


def _check_dissipative():
    NM = 64
    spec = MovingDomainSpec(k=0.0, T=1.0)
    grid = build_time_grid(1.0, NM)
    h, x = level_nodes(spec, 0.0, NM)
    traj = solve_forward(np.zeros(NM + 1), spec, grid, NM,
                         ic0=np.sin(np.pi * x) + 0.3 * np.sin(3 * np.pi * x),
                         ic1=0.5 * np.sin(2 * np.pi * x))
    energy = []
    for a, b in zip(traj.frames[:-1], traj.frames[1:]):
        d = (b - a)[None] / grid.dt
        # the P1 stiffness pairing of b and a is the cell form sum db da / h
        energy.append(_mass_pairing(d, d, h[None]) + float(np.diff(b) @ np.diff(a)) / h)
    drift = float(np.max(np.diff(energy)))
    ok = drift <= 1e-10 * max(1.0, abs(energy[0]))
    return "implicit-scheme-dissipative", ok, f"max energy increase {drift:.2e}"


def _check_degenerate():
    tc = compute_Tc(0.25)
    spec = MovingDomainSpec(k=0.25, T=tc)
    grid = build_time_grid(tc, 40)
    cfg = SNConfig(sigma=100.0, epsilon=1e-12, max_iter=3)
    res = fixed_point_solve(cfg, spec, grid, 40)
    ok = (np.all(res.w1 == 0.0)
          and np.all(res.psi.frames == 0.0)
          and np.all(res.phi.frames == 0.0))
    return "degenerate-subsystem-zero", ok, "psi, phi, w1 exactly zero"


def _check_zero_target():
    tc = compute_Tc(0.25)
    spec = MovingDomainSpec(k=0.25, T=tc)
    grid = build_time_grid(tc, 40)
    cfg = SNConfig(sigma=100.0, u2=0.0)
    res = fixed_point_solve(cfg, spec, grid, 40)
    ok = (res.converged and res.iterations == 1
          and np.all(res.w2 == 0.0)
          and np.all(res.u.frames == 0.0))
    return "zero-target-fixed-point", ok, f"iterations = {res.iterations}"


def _duality_probe(NM):
    """The duality check's data at k = 0, N = M = NM: a smooth control on
    (0, 0.5) and the source (1 + t) sin(pi x), as ``(control, segment,
    source, spec, grid)``."""
    spec = MovingDomainSpec(k=0.0, T=1.0)
    grid = build_time_grid(1.0, NM)
    _, x = level_nodes(spec, 0.0, NM)
    source = np.outer(1.0 + grid.levels, np.sin(np.pi * x))
    segment = (0.0, 0.5)
    control = np.zeros(NM + 1)
    mask = grid.levels < 0.5
    control[mask] = np.sin(np.pi * grid.levels[mask] / 0.5) ** 2
    return control, segment, source, spec, grid


def _check_duality():
    NM = 100
    res = duality_residual(*_duality_probe(NM), NM)
    return "duality-residual", res <= 0.05, f"relative residual {res:.4f}"


def _check_nash_residual():
    tc = compute_Tc(0.25)
    spec = MovingDomainSpec(k=0.25, T=tc)
    grid = build_time_grid(tc, 50)
    cfg = SNConfig(sigma=100.0)
    res = fixed_point_solve(cfg, spec, grid, 50)
    r = nash_residual(res.w2, res.p, 100.0, res.segments)
    ok = res.converged and r <= 1e-3
    return "follower-best-response", ok, f"residual {r:.2e}, iterations {res.iterations}"


ALL_CHECKS = [
    _check_tc,
    _check_border,
    _check_manufactured,
    _check_reversal,
    _check_zero_data,
    _check_dissipative,
    _check_degenerate,
    _check_zero_target,
    _check_duality,
    _check_nash_residual,
    _check_paired_march,
]


def run_all():
    """Run every check; returns a list of (name, passed, detail)."""
    results = []
    for check in ALL_CHECKS:
        results.append(check())
    return results
