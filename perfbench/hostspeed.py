"""Host speed, sampled while a repetition runs.

The benchmark runs on a few virtual CPUs of a shared host.  When the
host is busy, every instruction of a single-threaded process takes
longer, by as much as 1.8x within a minute, and the process's own CPU
time grows with its wall time, so no clock inside the process can tell
host load from a slower program.  HostSpeed measures the host instead:
every INTERVAL_S of wall time a SIGALRM handler times one run of a fixed
calibration kernel.  The kernel is part of the benchmark, so a change to
rhflow cannot change it.

For a window of the repetition, ``window`` gives the window's wall time
net of the time spent in samples, and its slowdown: the mean sample time
over NOMINAL_S.  Net time over slowdown is the window's time in
reference seconds.  NOMINAL_S is the kernel's time when the host was
quiet (2 vCPUs of an Intel Xeon, the host of the seed-commit numbers),
so a reference second is roughly a wall second on that host unloaded.

Over 90 repetitions of three workloads on a host whose load moved their
wall time by a standard deviation of 15-17% (in log), wall time over
slowdown varied by 3.7-4.2%.  Heavier load still slows rhflow somewhat
more than the kernel (wall time grew as slowdown^1.03-1.12).

The handler only computes on its own arrays, so it cannot change what
the program computes; it re-arms a one-shot timer after each sample, so
samples never overlap.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.025
ITERATIONS = 20
NOMINAL_S = 0.8e-3

_X = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)


def kernel() -> float:
    """The calibration kernel: explicit steps of a 1-d diffusion on 256
    points, small numpy arrays in a Python loop like rhflow's per-step
    work.  Adding JSON and regex work or a pure-Python loop to it tracked
    rhflow's wall time no better; adding a pass over 2 MB tracked it worse."""
    f = 1.0 + 0.05 * np.sin(_X)
    total = 0.0
    for _ in range(ITERATIONS):
        d = (np.roll(f, -1) - np.roll(f, 1)) * 0.5
        dd = np.roll(f, -1) - 2.0 * f + np.roll(f, 1)
        f = f + 1e-6 * (dd - d * d / f)
        total += float(np.sqrt(np.abs(f)).sum())
    return total


class HostSpeed:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter() - start))
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self):
        kernel()  # allocate and warm up before the first timed sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def window(self, begin: float, end: float) -> tuple[float, float]:
        """Wall seconds of [begin, end) net of sampling, and the slowdown
        over that window (over every sample if none fell inside)."""
        inside = [d for s, d in self.samples if begin <= s < end]
        net = end - begin - sum(inside)
        durations = inside or [d for _, d in self.samples]
        if not durations:
            raise RuntimeError("no host-speed sample was taken")
        return net, statistics.fmean(durations) / NOMINAL_S
