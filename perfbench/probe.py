"""Fresh-interpreter probe: the import, and optionally one first solve.

Usage: python3 perfbench/probe.py SRC_DIR [snwave CLI arguments...]

Prints one JSON object:

- ``setup_cpu_s`` and ``setup_wall_s``: thread CPU and wall seconds of
  importing ``snwave`` and ``snwave.cli``;
- ``setup_s``: that CPU time at nominal speed (see speed.py), from speed
  samples taken right after the import, since numpy is not loaded before;

and, with CLI arguments, of one first solve:

- ``first_solve_s`` and ``first_solve_cpu_s``: its wall and process CPU
  seconds, and ``first_solve_ncpu_s`` the CPU time at nominal speed;
- ``rc``: the CLI exit code, or the exception the solve raised;
- ``maxrss_kb``: the process's peak resident set size after the solve.
"""

import contextlib
import io
import json
import resource
import sys
import time

SETUP_SPEED_SAMPLES = 20


def main(argv):
    sys.path.insert(0, argv[0])
    t0, h0 = time.perf_counter(), time.thread_time()
    import snwave
    import snwave.cli
    setup_cpu, setup_wall = time.thread_time() - h0, time.perf_counter() - t0

    from speed import SpeedSampler

    speed = SpeedSampler()
    for _ in range(SETUP_SPEED_SAMPLES):
        speed.sample()
    out = {"setup_s": speed.normalized(setup_cpu), "setup_cpu_s": setup_cpu,
           "setup_wall_s": setup_wall, "module": snwave.__file__}
    if len(argv) > 1:
        with contextlib.redirect_stdout(io.StringIO()), speed:
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                rc = snwave.cli.main(argv[1:])
            except Exception as exc:
                rc = f"{type(exc).__name__}: {exc}"
            cpu, wall = time.process_time() - c0, time.perf_counter() - t0
        out["first_solve_cpu_s"] = cpu
        out["first_solve_s"] = wall
        out["first_solve_ncpu_s"] = speed.normalized(cpu)
        out["rc"] = rc
        out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
