"""Command-line harness: single runs, parameter sweeps and mesh tables.

Usage: snwave <command> [options]

Commands
--------
run          one fixed-point solve; writes iteration_log.csv and
             final_state.csv (x vs u(x, T)) to the output directory
table-T      sweep T = 1..10 x T_c at fixed sigma -> table_T.csv
table-sigma  sweep sigma = 10^1..10^10 at fixed T -> table_sigma.csv
table-mesh   space-time mesh statistics for T = 1..10 x T_c -> table_mesh.csv
verify       run the built-in oracle battery; one PASS/FAIL line each

Every command accepts every option; each option is a ``RunConfig`` field
and its config-file key.  --T and --T-multiple set the horizon of run and
table-sigma; table-T and table-mesh run the multiples 1..10 of T_c and
reject any other horizon.  --target-edge is read by table-mesh alone.
--dump-frames is run's alone; any other command rejects it.  verify reads
no option.

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
from dataclasses import dataclass, field, fields, replace
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
    """Flat run configuration.  Each field is a config-file key and, with
    ``-`` for ``_``, a command-line flag; its metadata holds the flag's help."""

    k: float = field(default=0.25, metadata={"help": "boundary speed in [0, 1)"})
    T_multiple: float = field(default=1.0, metadata={
        "help": "horizon as a multiple of T_c(k) for run and table-sigma"})
    T: float = field(default=0.0, metadata={
        "help": "explicit horizon for run and table-sigma (overrides the multiple)"})
    N: int = field(default=100, metadata={"help": "spatial elements per level"})
    M: int = field(default=100, metadata={"help": "time steps"})
    sigma: float = field(default=100.0, metadata={"help": "follower penalty weight"})
    epsilon: float = field(default=1e-5, metadata={"help": "stopping tolerance"})
    max_iter: int = field(default=100, metadata={"help": "sweep cap"})
    u2: float = field(default=10.0, metadata={"help": "tracking target value"})
    segments: str = field(default="disjoint-halves", metadata={
        "help": "boundary segment split: disjoint-halves or additive-overlap"})
    phi_terminal: str = field(default="zero", metadata={"help": "'zero' or 'bump[:amplitude]'"})
    out: str = field(default=".", metadata={"help": "output directory for CSV files"})
    target_edge: float = field(default=0.0, metadata={
        "help": "mesh table edge length (default T/128 per row)"})
    dump_frames: bool = field(default=False, metadata={
        "help": "run only: also write per-level trajectory CSVs"})

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
    """Write ``traj``'s ``(m, t, x, value)`` rows, making one level's node row at a time."""
    spec, N = MovingDomainSpec(traj.plan.k, traj.grid.T), traj.plan.shape[1] - 1
    rows = ((m, t, x, v) for m, t in enumerate(traj.grid.levels)
            for x, v in zip(level_nodes(spec, t, N)[1], traj.frames[m]))
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


COMMANDS = {
    "run": cmd_run,
    "table-T": cmd_table_T,
    "table-sigma": cmd_table_sigma,
    "table-mesh": cmd_table_mesh,
    "verify": cmd_verify,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process from ``RunConfig``'s fields:
    ``parse_args`` returns a new namespace each call and leaves the parser
    as it was.  A flag left out parses to None, so it overrides nothing."""
    parser = argparse.ArgumentParser(
        prog="snwave",
        usage="%(prog)s <command> [options]",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="flat key=value configuration file")
    for f in fields(RunConfig):
        flag, help_text = "--" + f.name.replace("_", "-"), f.metadata["help"]
        if isinstance(f.default, bool):
            parser.add_argument(flag, dest=f.name, action="store_true", default=None,
                                help=help_text)
        else:
            parser.add_argument(flag, dest=f.name, type=type(f.default), help=help_text)
    return parser


def _merge_config(args) -> RunConfig:
    values = load_config_file(args.config) if args.config else {}
    for f in fields(RunConfig):
        if (flag := getattr(args, f.name)) is not None:
            values[f.name] = flag
    return RunConfig(**values)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        if cfg.dump_frames and args.command != "run":
            raise UsageError(f"dump_frames: {args.command} writes no per-level frames; "
                             "only run takes dump_frames")
        return COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc} payload={exc.payload}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
