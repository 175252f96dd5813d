"""Machine-speed sampling, to take the machine's changing speed out of CPU times.

On a shared virtual machine the CPU time of a fixed piece of work varies
by up to a factor of two within seconds, as other tenants load the host.
``SpeedSampler`` measures that speed during the timed work itself: every
``PERIOD_S`` of process CPU time a SIGPROF handler runs a fixed loop and
records its thread CPU time.  The work's CPU time, less the samples', is
then scaled to a nominal machine on which one sample takes
``NOMINAL_SAMPLE_S``.  Samples land uniformly in CPU time, so their mean
is the work's average cost per unit of speed.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
SWEEPS = 10
NOMINAL_SAMPLE_S = 0.001


class SpeedSampler:
    def __init__(self):
        import numpy as np  # here, so that importing this module leaves numpy unloaded

        n = 99
        self._arrays = (np.full(n, -1.0), np.full(n, 4.0), np.full(n, -1.0), np.ones(n),
                        np.empty(n), np.empty(n))
        self.samples: list = []
        self.inside_s = 0.0

    def sample(self):
        """Time a Thomas-style scalar loop: the kind of work a solve does today."""
        lo, di, up, rhs, cp, dp = self._arrays
        t0 = time.thread_time()
        for _ in range(SWEEPS):
            cp[0] = up[0] / di[0]
            dp[0] = rhs[0] / di[0]
            for i in range(1, len(di)):
                piv = di[i] - lo[i - 1] * cp[i - 1]
                cp[i] = up[i] / piv
                dp[i] = (rhs[i] - lo[i - 1] * dp[i - 1]) / piv
        self.samples.append(time.thread_time() - t0)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGPROF, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        self.inside_s = sum(self.samples)
        if not self.samples:  # work shorter than one period: sample right after it
            self.sample()

    def normalized(self, cpu_s: float) -> float:
        """CPU seconds of the sampled region, less the sampling, at nominal speed."""
        return (cpu_s - self.inside_s) * NOMINAL_SAMPLE_S / statistics.fmean(self.samples)
