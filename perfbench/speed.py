"""Host-speed normalisation of CPU times.

The benchmark runs on shared hosts whose speed swings by tens of percent
over seconds to minutes (measured: the same pass took 2.5 s in one minute and
3.8 s in another, in CPU time, with nothing else running in the container).
A fixed probe of mixed work (no ``qsp`` code) is timed every INTERVAL_S of
wall time from a timer signal.  The CPU time of the measured region is cut
into segments at the probes, and each segment is scaled by REF_PROBE_S over
the mean of the two probes around it.  The probes' own CPU time is left out.

The probe must read the host's speed, not the state the measured program
leaves behind, so it keeps its working set small and fixed: about 50 KB of
preallocated arrays (inside L1/L2), numpy products written into those arrays
(no allocation, so no page faults or heap growth), the garbage collector
off while it runs (a collection would walk the program's objects), and a
short untimed warm-up before the timed part.
The worker times probes on their own right before and right after the timed
region, and reports the ratio of the in-pass probes to those; run.py prints
its median for every run, so a shift caused by the program shows.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

# median CPU time of one probe taken on its own on the machine that produced
# the reference figures in README.md
REF_PROBE_S = 0.0080
INTERVAL_S = 0.2

_N = 32
_TH = np.linspace(0.1, 2.0, _N)
# a unitary matrix, so that its powers stay bounded
_U = np.linalg.qr(np.cos(np.outer(_TH, 3 * _TH))
                  + 1j * np.sin(np.outer(_TH, _TH)))[0]
_A = np.empty_like(_U)
_B = np.empty_like(_U)
_V = np.empty(_N, dtype=complex)


def _work(n_int, n_frac, n_mm, n_uf):
    acc = 0
    for i in range(n_int):
        acc += i * i % 7
    f = Fraction(1, 3)
    for i in range(1, n_frac):
        f = (f * Fraction(i, i + 1) + Fraction(1, i)) % 7
    np.copyto(_A, _U)
    for _ in range(n_mm):
        np.matmul(_U, _A, out=_B)
        np.matmul(_U, _B, out=_A)
    for _ in range(n_uf):
        np.multiply(_U, 1.0000001, out=_B)
        np.add(_B, _U, out=_B)
        np.matmul(_B, _U[0], out=_V)


def probe():
    """CPU seconds of a fixed piece of mixed work, in four parts of similar
    length: Python integer loop, ``Fraction`` arithmetic, 32x32 complex
    matrix products and small in-place ufuncs.  A twelfth of it runs first,
    untimed, to bring the probe's code and data back into the caches."""
    enabled = gc.isenabled()
    gc.disable()
    _work(2000, 17, 10, 25)
    start = time.process_time()
    _work(24000, 200, 120, 300)
    spent = time.process_time() - start
    if enabled:
        gc.enable()
    return spent


def speed_now(samples=3):
    """Median probe time, after one warm-up probe."""
    probe()
    return statistics.median(probe() for _ in range(samples))


class SpeedClock:
    """Normalised CPU time of a ``with`` block; uses SIGALRM."""

    def __init__(self):
        self.segments = []      # (cpu seconds, probe before, probe after)
        self._busy = False

    def __enter__(self):
        self._last = probe()
        self._mark = time.process_time()
        self._old = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._cut()
        return False

    def _on_timer(self, signum, frame):
        if not self._busy:
            self._busy = True
            try:
                self._cut()
            finally:
                self._busy = False

    def _cut(self):
        seg = time.process_time() - self._mark
        now = probe()
        self.segments.append((seg, self._last, now))
        self._last = now
        self._mark = time.process_time()

    def cpu_seconds(self):
        return sum(seg for seg, _, _ in self.segments)

    def seconds(self):
        return sum(seg * REF_PROBE_S * 2 / (a + b)
                   for seg, a, b in self.segments)

    def probe_median(self):
        """Median of the probes taken inside the block."""
        return statistics.median(after for _, _, after in self.segments)
