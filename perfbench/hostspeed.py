"""Host speed, sampled with fixed probes: a burst of Python work, a start.

A shared 2-vCPU VM was seen to change speed by 25-50 % for seconds to
minutes at a time, for every process alike, and CPU time moves with wall
time, so neither clock alone gives steady figures.  The same burst of
benchmark-owned work, timed next to each operation, tracks that speed: over
ten-second windows of one run, raw fusion-query times spread 19 % (IQR over
median) while their ratio to the burst time spread 1.5 %.

Starting a Python process that imports numpy drifts apart from that: over
ten-second windows, `python -m verkit.cli report` took 202-321 ms while its
ratio to the burst spread 29 % (range over median) and its ratio to
START_PROBE, an interpreter importing verkit's own dependencies, 5 %.  So
CLI invocations are normalised by START_PROBE and in-process work by the
burst.

A latency is normalised by multiplying it by the probe's reference time over
the median probe time sampled around it: it reads as the latency on a host
that runs the probe in its reference time.  verkit's code never runs inside
a probe, so a change to verkit moves normalised latencies as it moves raw
ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import subprocess
import sys
import time

# Probe times on a 2-vCPU Xeon VM at its usual speed: the units of the scale.
REF_BURST_S = 0.005
REF_START_S = 0.2
START_PROBE = [sys.executable, "-c", "import numpy, mpmath, click"]


def burst() -> int:
    """About 5 ms of dict, int and sort work; never changes."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(15000):
        k = (i * 7919) % 1021
        table[k] = table.get(k, 0) + i
        acc += (i * i) % 13
    return acc + len(sorted(table.values()))


def start_probe(env: dict, cwd: str):
    """A probe that runs START_PROBE in a child with the given environment."""

    def probe() -> None:
        subprocess.run(START_PROBE, env=env, cwd=cwd, stdout=subprocess.DEVNULL, check=True, timeout=60)

    return probe


class HostSpeed:
    """Probe samples (start, end), taken on demand or every `period` seconds.

    Samples within `window` seconds of an operation set its scale.  Periodic
    samples come from SIGALRM, so they also land inside long operations;
    `net` takes the time of the samples inside an interval out of it again.
    """

    def __init__(self, probe=burst, ref_s: float = REF_BURST_S, window: float = 0.5):
        self.probe, self.ref_s, self.window = probe, ref_s, window
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # a SIGALRM arrived during a sample
            return
        self._busy = True
        try:
            start = time.perf_counter()
            self.probe()
            self.starts.append(start)
            self.ends.append(time.perf_counter())
        finally:
            self._busy = False

    def start_periodic(self, period: float) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop_periodic(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, t0: float, t1: float) -> float:
        """Seconds of samples that started inside [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return sum(min(e, t1) - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))

    def net(self, t0: float, t1: float) -> float:
        return t1 - t0 - self.spent(t0, t1)

    def scale(self, t0: float, t1: float) -> float:
        """The reference time over the median sample time near [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0 - self.window)
        hi = bisect.bisect_right(self.starts, t1 + self.window)
        if hi - lo < 2:  # too few near it: the two nearest on each side
            lo, hi = max(0, lo - 2), min(len(self.starts), hi + 2)
        if hi <= lo:
            raise RuntimeError("no host-speed samples were taken")
        times = [e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi])]
        return self.ref_s / statistics.median(times)

    def normalise(self, t0: float, t1: float) -> float:
        """The net time of [t0, t1] at the reference host speed.

        The samples inside cut the interval into segments, and each segment
        is scaled by the samples near its midpoint, so a long operation
        follows the host's speed as it changes.  Over eight cold builds of
        Ver_125, one scale for the whole build left a spread of 11 % (IQR
        over median), per segment 5 %; the raw times spread 17 %.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        cuts = [t0]
        for start, end in zip(self.starts[lo:hi], self.ends[lo:hi]):
            cuts += [start, min(end, t1)]
        cuts.append(t1)
        total = 0.0
        for a, b in zip(cuts[0::2], cuts[1::2]):
            mid = (a + b) / 2
            total += (b - a) * self.scale(mid, mid)
        return total
