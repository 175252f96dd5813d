"""snwave benchmark: closed-loop `snwave run` solves, checked against a scaled reference.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/`` and nowhere else.  One client drives
``snwave.cli.main`` in this process, each solve starting when the
previous one has finished (a closed loop), with BLAS threads capped at
the number of usable cores.

The seed draws a scale ``s`` in [0.5, 2] for every solve.  The workload
passes ``--u2 10s`` and, on run-leader, ``--phi-terminal bump:s``.  The
problem is affine with zero initial data, so the final state must be
``s`` times the stored reference (taken at s = 1) and every J2 in the
iteration log ``s**2`` times it, with the same sweep count.  A solve
that raises, exits nonzero or misses that oracle counts as failed.

``--trace 0`` prints the end-to-end metrics, with times in CPU seconds at
nominal machine speed (see speed.py); ``--trace 1`` prints the per-layer
metrics of a traced run (see tracer.py).  README.md describes them all.  The last line of
standard output is the JSON result; the line before it holds the run's
details and environment.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedSampler
from tracer import MARCHES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference"
NPROC = len(os.sched_getaffinity(0))

# Workload name -> (CLI arguments for scale s, time steps M).  Why each
# exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "run-default": (lambda s: [], 100),
    "run-leader": (lambda s: ["--phi-terminal", f"bump:{s!r}", "--T-multiple", "10"], 100),
    "run-fine": (lambda s: ["--N", "300", "--M", "300"], 300),
}
OUTPUTS = ("iteration_log.csv", "final_state.csv")

# Relative tolerance of the scaled-reference oracle.  Roundoff moves the
# outputs by under 1e-13 (7e-14 measured at s = 1.7; 6e-15 per step for a
# sine-basis step solve); the N = 100 and N = 300 final states differ by
# 0.7 of their maximum, so discretization changes land far above this.
TOLERANCE = 1e-9
SETUP_REPEATS = 15
FIRST_SOLVE_PROBES = 1  # plus this process's own first solve
# The timed loop runs for --seconds and for at least this many solves, so
# that run-fine (about 9 s a solve) still reports a median of three.
MIN_SOLVES = 3
PROBE_TIMEOUT_S = 170

MACHINE_NOTE = ("unpinned run on a shared machine: other tenants' load is not "
                "controlled, so compare medians over several runs")


def read_csv(path: Path) -> list:
    return [[float(v) for v in line.split(",")]
            for line in path.read_text().splitlines()[1:]]


def _rel_gap(got: list, want: list) -> float:
    scale = max((abs(w) for w in want), default=0.0)
    gap = max((abs(g - w) for g, w in zip(got, want)), default=0.0)
    return gap / scale if scale > 0 else gap


class Oracle:
    """The seed-commit reference outputs of one workload, scaled per solve."""

    def __init__(self, workload: str):
        ref = REFERENCE / workload
        self.log = read_csv(ref / "iteration_log.csv")
        self.final = read_csv(ref / "final_state.csv")

    def check(self, outdir: Path, s: float):
        """Return None when the outputs match the reference scaled by s, else why not."""
        try:
            log = read_csv(outdir / "iteration_log.csv")
            final = read_csv(outdir / "final_state.csv")
        except (OSError, ValueError) as exc:
            return f"unreadable outputs: {exc}"
        if len(log) != len(self.log):
            return f"{len(log)} sweeps, reference has {len(self.log)}"
        if len(final) != len(self.final):
            return f"{len(final)} final-state nodes, reference has {len(self.final)}"
        gaps = {
            "x": _rel_gap([r[0] for r in final], [r[0] for r in self.final]),
            "u": _rel_gap([r[1] for r in final], [s * r[1] for r in self.final]),
            "J2": max(_rel_gap([a[5]], [s * s * b[5]]) for a, b in zip(log, self.log)),
        }
        bad = {k: v for k, v in gaps.items() if not v <= TOLERANCE}
        return f"relative gaps {bad} above {TOLERANCE}" if bad else None


class Client:
    """Closed-loop client: one solve at a time, each checked by the oracle."""

    def __init__(self, workload: str, seed: int):
        self.args, self.M = WORKLOADS[workload]
        self.oracle = Oracle(workload)
        self.rng = random.Random(seed)
        self.scales: list = []
        self.attempted = 0
        self.failures: list = []

    def next_scale(self) -> float:
        s = self.rng.uniform(0.5, 2.0)
        self.scales.append(s)
        return s

    def _argv(self, s: float, outdir: Path) -> list:
        """Clear outdir of earlier outputs; return the CLI arguments for scale s."""
        outdir.mkdir(parents=True, exist_ok=True)
        for name in OUTPUTS:
            (outdir / name).unlink(missing_ok=True)
        return ["run", *self.args(s), "--u2", repr(10.0 * s), "--out", str(outdir)]

    def _record(self, outdir: Path, s: float, rc):
        self.attempted += 1
        why = f"exit {rc}" if rc != 0 else self.oracle.check(outdir, s)
        if why is not None:
            self.failures.append(f"s={s!r}: {why}")

    def solve(self, cli, outdir: Path, s: float, speed: SpeedSampler = None):
        """Run one solve in this process.

        Returns its wall and CPU seconds, and with a speed sampler also its
        CPU seconds at nominal speed (else None).
        """
        argv = self._argv(s, outdir)
        rc = None
        with contextlib.redirect_stdout(io.StringIO()), speed or contextlib.nullcontext():
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                rc = cli.main(argv)
            except Exception:
                traceback.print_exc()
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self._record(outdir, s, rc)
        return wall, cpu, speed.normalized(cpu) if speed else None

    def probe(self, outdir: Path = None) -> dict:
        """Run probe.py in a fresh interpreter; with outdir it also does one solve."""
        cmd = [sys.executable, str(BENCH / "probe.py"), str(SRC)]
        if outdir is not None:
            s = self.next_scale()
            cmd += self._argv(s, outdir)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"probe exited with {proc.returncode}")
        out = json.loads(proc.stdout.splitlines()[-1])
        check_module(out["module"])
        if outdir is not None:
            self._record(outdir, s, out["rc"])
        return out


def check_module(path: str):
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"snwave imported from {path}, not from {SRC}")


def tail(samples: list):
    """Highest whole percentile with at least ten samples beyond it (nearest rank).

    Below 20 samples no percentile from 50 up qualifies; the median is
    reported and the percentile given as 50.
    """
    n = len(samples)
    if n < 20:
        return statistics.median(samples), 50
    q = 100 * (n - 10) // n
    return sorted(samples)[-(-q * n // 100) - 1], q


def environment(seed: int, numpy_version: str) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": NPROC,
        "cpu_model": cpu,
        "blas_threads": NPROC,
        "git_commit": git_commit(),
        "seed": seed,
        "note": MACHINE_NOTE,
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    with contextlib.suppress(OSError):
        return (git / ref).read_text().strip()
    with contextlib.suppress(OSError):
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def run_end_to_end(client: Client, cli, seconds: float, detail: dict) -> dict:
    client.probe()  # untimed: the first import in a fresh checkout compiles bytecode
    setup = [client.probe() for _ in range(SETUP_REPEATS)]
    first = [client.probe(WORK / f"first{i}") for i in range(FIRST_SOLVE_PROBES)]
    speed = SpeedSampler()
    # This process has imported snwave but not solved yet, so its own first
    # solve is one more first-solve sample, and it warms up the timed loop.
    firsts = [(p["first_solve_s"], p["first_solve_cpu_s"], p["first_solve_ncpu_s"])
              for p in first]
    firsts.append(client.solve(cli, WORK / "first", client.next_scale(), speed))

    loop = []
    deadline = time.perf_counter() + seconds
    while len(loop) < MIN_SOLVES or time.perf_counter() < deadline:
        loop.append(client.solve(cli, WORK / "loop", client.next_scale(), speed))

    solve = [n for _, _, n in loop]
    solve_tail, tail_q = tail(solve)
    walls = [w for w, _, _ in loop]
    detail.update(
        solve_samples=len(loop), tail_percentile=tail_q, solve_ncpu_s=solve,
        solve_cpu_s=[c for _, c, _ in loop], solve_s=walls,
        solve_s_p50=statistics.median(walls), solve_s_tail=tail(walls)[0],
        setup_s=[p["setup_s"] for p in setup], setup_cpu_s=[p["setup_cpu_s"] for p in setup],
        setup_wall_s=[p["setup_wall_s"] for p in setup],
        first_solve_ncpu_s=[n for _, _, n in firsts], first_solve_cpu_s=[c for _, c, _ in firsts],
        first_solve_s=[w for w, _, _ in firsts], maxrss_kb=[p["maxrss_kb"] for p in first])
    return {
        "solve_ncpu_s.p50": (statistics.median(solve), "s"),
        "solve_ncpu_s.tail": (solve_tail, "s"),
        "setup_s": (statistics.median(detail["setup_s"]), "s"),
        "first_solve_ncpu_s": (statistics.median(detail["first_solve_ncpu_s"]), "s"),
        "peak_mem_mb": (statistics.median(detail["maxrss_kb"]) / 1024.0, "MB"),
    }


def _outputs(outdir: Path) -> list:
    return [(outdir / name).read_bytes() if (outdir / name).exists() else b""
            for name in OUTPUTS]


def run_traced(client: Client, cli, seconds: float, detail: dict) -> tuple:
    """Traced run; returns the per-layer metrics and the failed self-checks."""
    tracer = Tracer()
    client.solve(cli, WORK / "warm", client.next_scale())  # untimed warm-up
    plain, traced, identical = [], [], True
    deadline = time.perf_counter() + seconds
    pair = 0
    while True:
        # One scale is solved untraced and traced, alternating which goes first.
        s = client.next_scale()
        for traced_turn in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced_turn:
                tracer.solve = pair
                with tracer.installed():
                    traced.append(client.solve(cli, WORK / "traced", s)[:2])
            else:
                plain.append(client.solve(cli, WORK / "plain", s)[:2])
        identical &= _outputs(WORK / "traced") == _outputs(WORK / "plain")
        pair += 1
        if time.perf_counter() >= deadline:
            break
    tracer.write(WORK / "spans.csv")

    sums = [tracer.summary(k) for k in range(pair)]
    calls = sums[0]["calls"]

    def n_calls(*names):
        return sum(calls.get(n, 0) for n in names)

    def self_s(*names):
        return statistics.median(sum(sm["self_s"].get(n, 0.0) for n in names) for sm in sums)

    log = read_csv(WORK / "traced" / "iteration_log.csv")
    sweeps = len(log)
    dw = [row[3] for row in log]
    marches = n_calls(*MARCHES)
    march_s = [t for sm in sums for t in sm["march_s"]]
    steps = n_calls("fem.solve_tridiagonal")

    checks = {
        "traced_outputs_byte_identical": identical,
        "self_time_nonnegative": min(sm["min_self_s"] for sm in sums) >= -1e-9,
        "self_sum_within_inclusive": all(
            sum(sm["self_s"].values()) <= sm["inclusive_s"] * (1 + 1e-9) + 1e-6 for sm in sums),
        "counts_repeat": all(sm["calls"] == calls for sm in sums),
    }
    # At the seed commit every march makes M - 1 step solves.  Reported, not
    # gating: a later step-solve kernel may legitimately stop calling this function.
    detail.update(self_checks=checks,
                  step_solves_per_march=steps / marches if marches else 0.0,
                  step_solves_match_seed=steps == marches * (client.M - 1),
                  traced_pairs=pair, traced_solve_s=[w for w, _ in traced],
                  plain_solve_s=[w for w, _ in plain],
                  calls=calls)

    metrics = {
        "fem.solve_tridiagonal.calls": (steps, "count"),
        "fem.solve_tridiagonal.self_s": (self_s("fem.solve_tridiagonal"), "s"),
        "fem.interpolate.calls": (n_calls("fem.interpolate"), "count"),
        "fem.interpolate.self_s": (self_s("fem.interpolate"), "s"),
        "fem.assemble.calls": (n_calls("fem.assemble_mass", "fem.assemble_stiffness"), "count"),
        "fem.assemble.self_s": (self_s("fem.assemble_mass", "fem.assemble_stiffness"), "s"),
        "fem.boundary_flux_left.calls": (n_calls("fem.boundary_flux_left"), "count"),
        "geometry.build_spatial_mesh.calls": (n_calls("geometry.build_spatial_mesh"), "count"),
        "geometry.build_spatial_mesh.self_s": (self_s("geometry.build_spatial_mesh"), "s"),
        "solvers.marches": (marches, "count"),
        "solvers.march_s.p50": (statistics.median(march_s) if march_s else 0.0, "s"),
        "solvers.solve_forward.self_s": (self_s("solvers.solve_forward"), "s"),
        "solvers.solve_backward.self_s": (self_s("solvers.solve_backward"), "s"),
        "solvers.useful_march_ratio": (sums[0]["useful_marches"] / marches if marches else 0.0,
                                       "ratio"),
        "solvers.trajectory_l2_distance.self_s": (self_s("solvers.trajectory_l2_distance"), "s"),
        "game.sweeps": (sweeps, "count"),
        "game.marches_per_sweep": (marches / sweeps if sweeps else 0.0, "count"),
        "game.contraction": (dw[-1] / dw[-2] if sweeps > 1 and dw[-2] else 0.0, "ratio"),
        "game.fixed_point_solve.self_s": (self_s("game.fixed_point_solve"), "s"),
        "game.evaluate_J2.self_s": (self_s("game.evaluate_J2"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.write_csv.self_s": (self_s("cli.write_csv"), "s"),
        "cli.csv_bytes": (sum(len(b) for b in _outputs(WORK / "traced")), "B"),
        # CPU time of the two solves of a pair, which run back to back.
        "trace.overhead_frac": (statistics.median(t[1] / p[1] for t, p in zip(traced, plain))
                                - 1.0, "ratio"),
    }
    return metrics, [name for name, ok in checks.items() if not ok]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "snwave" / "__init__.py").is_file():
        print(f"error: no snwave package under {SRC}", file=sys.stderr)
        return 1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(NPROC)  # before numpy loads, here and in every probe
    sys.path.insert(0, str(SRC))
    import numpy
    import snwave.cli as cli
    check_module(cli.__file__)

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    client = Client(args.workload, args.seed)
    detail = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args.seed, numpy.__version__)}
    failed_checks = []
    if args.trace:
        metrics, failed_checks = run_traced(client, cli, args.seconds, detail)
    else:
        metrics = run_end_to_end(client, cli, args.seconds, detail)
    detail.update(scales=client.scales, failures=client.failures + failed_checks,
                  failed_frac=len(client.failures) / client.attempted)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not client.failures and not failed_checks,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
