"""Command-line harness: single runs, parameter sweeps and mesh tables.

Subcommands
-----------
run          one fixed-point solve; writes iteration_log.csv and
             final_state.csv (x vs u(x, T)) to the output directory
table-T      sweep T = 1..10 x T_c at fixed sigma -> table_T.csv
table-sigma  sweep sigma = 10^1..10^10 at fixed T -> table_sigma.csv
table-mesh   space-time mesh statistics for T = 1..10 x T_c -> table_mesh.csv
verify       run the built-in oracle battery; one PASS/FAIL line each

CSV columns (full-precision scientific notation, one header row)
-----------------------------------------------------------------
iteration_log.csv   n, stop_qty, du_L2, dw_L2, J, J2
final_state.csv     x, u
u_frames.csv (+p)   m, t, x, value            (with run --dump-frames)
table_T.csv         multiple, T, iterations, converged, stop_final,
                    du_L2_final, dw_L2_final, J, J2
table_sigma.csv     sigma, iterations, converged, stop_final
table_mesh.csv      multiple, T, n_vertices, n_triangles, border_length

Configuration comes from defaults, overridden by an optional flat
``key=value`` file (--config), overridden by command-line flags.  Exit
codes: 0 success, 2 usage error, 3 divergence (non-finite values).
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .geometry import (
    BoundarySegments,
    MovingDomainSpec,
    build_spatial_mesh,
    build_time_grid,
    compute_Tc,
    trapezoid_stats,
)
from .game import DivergenceError, SNConfig, fixed_point_solve
from .verification import run_all

# Border subdivisions per unit of T for mesh tables; tuned so vertex
# counts land near the reference triangulations.
BORDER_SEGMENTS = 128


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """Flat run configuration; field names double as config-file keys."""

    k: float = 0.25
    T_multiple: float = 1.0
    T: float = 0.0          # > 0 overrides T_multiple * T_c(k)
    N: int = 100
    M: int = 100
    sigma: float = 100.0
    epsilon: float = 1e-5
    max_iter: int = 100
    u2: float = 10.0
    segments: str = "disjoint-halves"
    phi_terminal: str = "zero"
    out: str = "."
    target_edge: float = 0.0  # > 0 overrides the T/BORDER_SEGMENTS policy
    dump_frames: bool = False

    def validate(self):
        for name in ("k", "T", "T_multiple", "sigma", "epsilon", "u2", "target_edge"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise UsageError(f"{name}: must be finite, got {value}")
        if not 0.0 <= self.k < 1.0:
            raise UsageError(f"k: must be in [0, 1), got {self.k}")
        if self.sigma <= 0:
            raise UsageError(f"sigma: must be positive, got {self.sigma}")
        if self.epsilon <= 0:
            raise UsageError(f"epsilon: must be positive, got {self.epsilon}")
        if self.N < 2 or self.M < 2:
            raise UsageError(f"N, M: must be at least 2, got N={self.N} M={self.M}")
        if self.max_iter < 1:
            raise UsageError(f"max_iter: must be at least 1, got {self.max_iter}")
        if self.T_multiple <= 0 and self.T <= 0:
            raise UsageError(f"T_multiple: must be positive, got {self.T_multiple}")
        if self.segments not in ("disjoint-halves", "additive-overlap"):
            raise UsageError(f"segments: unknown mode {self.segments!r}")
        if not (self.phi_terminal == "zero" or self.phi_terminal.startswith("bump")):
            raise UsageError(f"phi_terminal: unknown spec {self.phi_terminal!r}")

    def horizon(self) -> float:
        if self.T > 0:
            return self.T
        if self.k == 0.0:
            raise UsageError("T: a fixed domain (k=0) needs an explicit horizon T")
        return self.T_multiple * compute_Tc(self.k)


def _parse_bool(text: str) -> bool:
    word = text.lower()
    if word in ("1", "true", "yes"):
        return True
    if word in ("0", "false", "no"):
        return False
    raise ValueError(f"expected true/false, yes/no or 1/0, got {text!r}")


def load_config_file(path: str) -> dict:
    """Parse a flat key=value file; unknown keys are usage errors.

    Each value is read as the type of its ``RunConfig`` field's default.
    """
    casts = {f.name: _parse_bool if isinstance(f.default, bool) else type(f.default)
             for f in fields(RunConfig)}
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in casts:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = casts[key](val)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17e}"


def write_csv(path: Path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _build_problem(cfg: RunConfig):
    cfg.validate()
    T = cfg.horizon()
    if cfg.k == 0.0:
        warnings.warn("k = 0 is outside the moving-boundary hypothesis; "
                      "validation-only run", stacklevel=2)
    spec = MovingDomainSpec(k=cfg.k, T=T)
    grid = build_time_grid(T, cfg.M)
    if cfg.segments == "disjoint-halves":
        segs = BoundarySegments.disjoint_halves(T)
    else:
        segs = BoundarySegments.additive_overlap(T)

    phi_terminal = None
    if cfg.phi_terminal.startswith("bump"):
        amp = 1.0
        if ":" in cfg.phi_terminal:
            amp = float(cfg.phi_terminal.split(":", 1)[1])
        mesh = build_spatial_mesh(spec, T, cfg.N)
        x = mesh.nodes
        L = mesh.length
        phi_terminal = (amp * 4.0 * x * (L - x) / L**2, np.zeros(cfg.N + 1))

    sn = SNConfig(sigma=cfg.sigma, epsilon=cfg.epsilon, max_iter=cfg.max_iter,
                  u2=cfg.u2, segments=segs, phi_terminal=phi_terminal)
    return spec, grid, sn


def _dump_trajectory(path: Path, traj):
    rows = [(m, t, x, v) for m, t in enumerate(traj.grid.levels)
            for x, v in zip(traj.plan.nodes[m], traj.frames[m])]
    write_csv(path, ("m", "t", "x", "value"), rows)


def _write_table(cfg: RunConfig, name: str, header, rows):
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(outdir / name, header, rows)


def cmd_run(cfg: RunConfig) -> int:
    spec, grid, sn = _build_problem(cfg)
    result = fixed_point_solve(sn, spec, grid, cfg.N)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)

    write_csv(outdir / "iteration_log.csv",
              ("n", "stop_qty", "du_L2", "dw_L2", "J", "J2"),
              [(r.n, r.stop_qty, r.du_l2, r.dw_l2, r.J, r.J2) for r in result.log])
    write_csv(outdir / "final_state.csv", ("x", "u"),
              list(zip(result.u.plan.nodes[-1], result.u.frames[-1])))
    if cfg.dump_frames:
        _dump_trajectory(outdir / "u_frames.csv", result.u)
        _dump_trajectory(outdir / "p_frames.csv", result.p)

    last = result.log[-1]
    print(f"converged={result.converged} iterations={result.iterations} "
          f"stop={last.stop_qty:.3e} J={last.J:.6e} J2={last.J2:.6e} "
          f"T={grid.T:.6f} out={outdir}")
    return 0


def _solve_table(cfg: RunConfig, name: str, header, cases) -> int:
    """Solve each ``(label, sub-config)`` of ``cases``; one progress line, one row each."""
    rows = []
    for label, sub in cases:
        spec, grid, sn = _build_problem(sub)
        res = fixed_point_solve(sn, spec, grid, sub.N)
        last = res.log[-1]
        print(f"{label}: iterations={res.iterations} "
              f"converged={res.converged} stop={last.stop_qty:.3e}")
        row = dict(multiple=int(sub.T_multiple), T=grid.T, sigma=sub.sigma,
                   iterations=res.iterations, converged=res.converged,
                   stop_final=last.stop_qty, du_L2_final=last.du_l2,
                   dw_L2_final=last.dw_l2, J=last.J, J2=last.J2)
        rows.append([row[col] for col in header])
    _write_table(cfg, name, header, rows)
    return 0


def cmd_table_T(cfg: RunConfig) -> int:
    header = ("multiple", "T", "iterations", "converged", "stop_final",
              "du_L2_final", "dw_L2_final", "J", "J2")
    cases = [(f"T={m:2d}*Tc", replace(cfg, T_multiple=float(m), T=0.0)) for m in range(1, 11)]
    return _solve_table(cfg, "table_T.csv", header, cases)


def cmd_table_sigma(cfg: RunConfig) -> int:
    header = ("sigma", "iterations", "converged", "stop_final")
    cases = [(f"sigma=1e{e:02d}", replace(cfg, sigma=10.0 ** e)) for e in range(1, 11)]
    return _solve_table(cfg, "table_sigma.csv", header, cases)


def cmd_table_mesh(cfg: RunConfig) -> int:
    cfg.validate()
    if cfg.k == 0.0:
        raise UsageError("k: mesh table needs k > 0")
    tc = compute_Tc(cfg.k)
    rows = []
    for mult in range(1, 11):
        T = mult * tc
        edge = cfg.target_edge if cfg.target_edge > 0 else T / BORDER_SEGMENTS
        stats = trapezoid_stats(MovingDomainSpec(k=cfg.k, T=T), edge)
        rows.append((mult, T, stats.n_vertices, stats.n_triangles, stats.border_length))
        print(f"T={mult:2d}*Tc: vertices={stats.n_vertices} "
              f"triangles={stats.n_triangles} border={stats.border_length:.3f}")
    _write_table(cfg, "table_mesh.csv",
                 ("multiple", "T", "n_vertices", "n_triangles", "border_length"), rows)
    return 0


def cmd_verify(_cfg: RunConfig) -> int:
    results = run_all()
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snwave",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "run": "single fixed-point solve",
        "table-T": "sweep the horizon T = 1..10 x T_c",
        "table-sigma": "sweep sigma = 10^1..10^10",
        "table-mesh": "space-time mesh statistics table",
        "verify": "run the built-in oracle battery",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--k", type=float, help="boundary speed in [0, 1)")
        p.add_argument("--T-multiple", dest="T_multiple", type=float,
                       help="horizon as a multiple of T_c(k)")
        p.add_argument("--T", type=float, help="explicit horizon (overrides the multiple)")
        p.add_argument("--N", type=int, help="spatial elements per level")
        p.add_argument("--M", type=int, help="time steps")
        p.add_argument("--sigma", type=float, help="follower penalty weight")
        p.add_argument("--epsilon", type=float, help="stopping tolerance")
        p.add_argument("--max-iter", dest="max_iter", type=int, help="sweep cap")
        p.add_argument("--u2", type=float, help="tracking target value")
        p.add_argument("--segments", choices=["disjoint-halves", "additive-overlap"],
                       help="boundary segment split")
        p.add_argument("--phi-terminal", dest="phi_terminal",
                       help="'zero' or 'bump[:amplitude]'")
        p.add_argument("--out", help="output directory for CSV files")
        p.add_argument("--target-edge", dest="target_edge", type=float,
                       help="mesh table edge length (default T/128 per row)")
        if name == "run":
            p.add_argument("--dump-frames", dest="dump_frames", action="store_true",
                           default=None, help="also write per-level trajectory CSVs")
    return parser


def _merge_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg = replace(cfg, **load_config_file(args.config))
    overrides = {}
    for f in fields(RunConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            overrides[f.name] = val
    return replace(cfg, **overrides)


COMMANDS = {
    "run": cmd_run,
    "table-T": cmd_table_T,
    "table-sigma": cmd_table_sigma,
    "table-mesh": cmd_table_mesh,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        return COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc} payload={exc.payload}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
