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
codes: 0 success, 2 usage error, 3 divergence (non-finite values), 4 a
finite ``run`` that reached max_iter without converging (its CSVs are
written).  A table records a case that diverges as a row with
converged=false and nan final values, and goes on to the next case.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .geometry import (
    BoundarySegments,
    MovingDomainSpec,
    build_time_grid,
    compute_Tc,
    level_nodes,
    trapezoid_stats,
)
from .game import DivergenceError, IterationRecord, SNConfig, fixed_point_solve
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
        if self.T < 0:
            raise UsageError(f"T: must be positive, or 0 for T_multiple * T_c, got {self.T}")
        if self.target_edge < 0:
            raise UsageError(f"target_edge: must be positive, or 0 for "
                             f"T/{BORDER_SEGMENTS} per row, got {self.target_edge}")
        if self.T_multiple <= 0 and self.T <= 0:
            raise UsageError(f"T_multiple: must be positive, got {self.T_multiple}")
        if self.segments not in ("disjoint-halves", "additive-overlap"):
            raise UsageError(f"segments: unknown mode {self.segments!r}")
        self.bump_amplitude()

    def bump_amplitude(self):
        """Amplitude of the phi terminal bump, or None for ``zero``.

        The spec is exactly ``zero``, ``bump`` (amplitude 1) or
        ``bump:<finite float>``.
        """
        spec = self.phi_terminal
        if spec == "zero":
            return None
        if spec == "bump":
            return 1.0
        name, sep, text = spec.partition(":")
        if name != "bump" or not sep:
            raise UsageError(f"phi_terminal: unknown spec {spec!r}, "
                             "expected 'zero', 'bump' or 'bump:<amplitude>'")
        try:
            amp = float(text)
        except ValueError:
            amp = math.nan
        if not math.isfinite(amp):
            raise UsageError(f"phi_terminal: bump amplitude must be a finite number, "
                             f"got {text!r}")
        return amp

    def horizon(self) -> float:
        """``T``, or ``T_multiple * T_c(k)``, which must be a positive float."""
        if self.T > 0:
            return self.T
        if self.k == 0.0:
            raise UsageError("T: a fixed domain (k=0) needs an explicit horizon T")
        try:
            tc = compute_Tc(self.k)
        except ValueError as exc:
            raise UsageError(f"k: {exc}; use a smaller k, or give run or table-sigma "
                             "an explicit horizon with --T") from None
        T = self.T_multiple * tc
        if not 0.0 < T < math.inf:
            raise UsageError(f"T_multiple: the horizon {self.T_multiple!r} * T_c(k) = {T!r} "
                             "is not a positive float; use a smaller multiple, or give run "
                             "or table-sigma an explicit horizon with --T")
        return T


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
    amp = cfg.bump_amplitude()
    if amp is not None:
        _, x = level_nodes(spec, T, cfg.N)
        L = x[-1]
        phi_terminal = (amp * 4.0 * x * (L - x) / L**2, np.zeros(cfg.N + 1))

    sn = SNConfig(sigma=cfg.sigma, epsilon=cfg.epsilon, max_iter=cfg.max_iter,
                  u2=cfg.u2, segments=segs, phi_terminal=phi_terminal)
    return spec, grid, sn


def _dump_trajectory(path: Path, traj):
    nodes = traj.plan.nodes
    rows = [(m, t, x, v) for m, t in enumerate(traj.grid.levels)
            for x, v in zip(nodes[m], traj.frames[m])]
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
    _, x = level_nodes(spec, grid.T, cfg.N)
    write_csv(outdir / "final_state.csv", ("x", "u"), list(zip(x, result.u.frames[-1])))
    if cfg.dump_frames:
        _dump_trajectory(outdir / "u_frames.csv", result.u)
        _dump_trajectory(outdir / "p_frames.csv", result.p)

    last = result.log[-1]
    print(f"converged={result.converged} iterations={result.iterations} "
          f"stop={last.stop_qty:.3e} J={last.J:.6e} J2={last.J2:.6e} "
          f"T={grid.T:.6f} out={outdir}")
    return 0 if result.converged else 4


def _solve_table(cfg: RunConfig, name: str, header, cases) -> int:
    """Solve each ``(label, sub-config)`` of ``cases``; one progress line, one row each."""
    rows = []
    for label, sub in cases:
        spec, grid, sn = _build_problem(sub)
        try:
            res = fixed_point_solve(sn, spec, grid, sub.N)
        except DivergenceError as exc:
            # the sweeps run, counting the one that went non-finite
            iterations, converged = exc.payload["iteration"] + 1, False
            last = IterationRecord(iterations - 1, *[math.nan] * 5)
            note = f"diverged: {exc}"
        else:
            iterations, converged, last = res.iterations, res.converged, res.log[-1]
            note = f"stop={last.stop_qty:.3e}"
        print(f"{label}: iterations={iterations} converged={converged} {note}")
        row = dict(multiple=int(sub.T_multiple), T=grid.T, sigma=sub.sigma,
                   iterations=iterations, converged=converged,
                   stop_final=last.stop_qty, du_L2_final=last.du_l2,
                   dw_L2_final=last.dw_l2, J=last.J, J2=last.J2)
        rows.append([row[col] for col in header])
    _write_table(cfg, name, header, rows)
    return 0


def _check_no_horizon(cfg: RunConfig, command: str):
    """The horizon tables set T and T_multiple themselves; an explicit
    horizon or a multiple other than the default is an error, not ignored."""
    if cfg.T != 0.0:
        raise UsageError(f"T: {command} runs the multiples 1..10 of T_c and takes no "
                         f"explicit horizon, got T={cfg.T!r}")
    if cfg.T_multiple != RunConfig.T_multiple:
        raise UsageError(f"T_multiple: {command} runs the multiples 1..10 of T_c and takes no "
                         f"other multiple, got T_multiple={cfg.T_multiple!r}")


def cmd_table_T(cfg: RunConfig) -> int:
    _check_no_horizon(cfg, "table-T")
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
    _check_no_horizon(cfg, "table-mesh")
    if cfg.k == 0.0:
        raise UsageError("k: mesh table needs k > 0")
    rows = []
    for mult in range(1, 11):
        T = replace(cfg, T_multiple=float(mult), T=0.0).horizon()
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: ``parse_args`` returns a
    new namespace each call and leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="snwave",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value configuration file")
    common.add_argument("--k", type=float, help="boundary speed in [0, 1)")
    common.add_argument("--T-multiple", dest="T_multiple", type=float,
                        help="horizon as a multiple of T_c(k) for run and table-sigma")
    common.add_argument("--T", type=float,
                        help="explicit horizon for run and table-sigma (overrides the multiple)")
    common.add_argument("--N", type=int, help="spatial elements per level")
    common.add_argument("--M", type=int, help="time steps")
    common.add_argument("--sigma", type=float, help="follower penalty weight")
    common.add_argument("--epsilon", type=float, help="stopping tolerance")
    common.add_argument("--max-iter", dest="max_iter", type=int, help="sweep cap")
    common.add_argument("--u2", type=float, help="tracking target value")
    common.add_argument("--segments", choices=["disjoint-halves", "additive-overlap"],
                        help="boundary segment split")
    common.add_argument("--phi-terminal", dest="phi_terminal",
                        help="'zero' or 'bump[:amplitude]'")
    common.add_argument("--out", help="output directory for CSV files")
    common.add_argument("--target-edge", dest="target_edge", type=float,
                        help="mesh table edge length (default T/128 per row)")
    specs = {
        "run": "single fixed-point solve",
        "table-T": "sweep the horizon T = 1..10 x T_c",
        "table-sigma": "sweep sigma = 10^1..10^10",
        "table-mesh": "space-time mesh statistics table",
        "verify": "run the built-in oracle battery",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text, parents=[common])
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
