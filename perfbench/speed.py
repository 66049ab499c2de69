"""Host-speed probe: times a fixed task while the program runs.

The benchmark runs on a few cores of a shared host, where the same work
can take 1.5x as long from one minute to the next.  That slowdown comes
from the host, not from the program, and it is seen alike by any pure
Python code running at the same moment.  ``SpeedProbe`` therefore
interrupts the round every ``INTERVAL_S`` seconds (SIGALRM, handled in the
main thread between bytecodes) and times ``probe_task``, a fixed piece of
pure-Python rational and big-integer arithmetic that touches nothing of
the program.  A stretch of program time is then scaled by

    NOMINAL_S / (probe time around that stretch)

which gives the seconds it would have taken on a host where the probe
takes ``NOMINAL_S`` (``SpeedProbe.factor`` says how the probes around a
stretch are combined).  Time spent in the probe itself is kept out of the
program's time: ``SpeedProbe.clock`` is ``perf_counter`` minus probe time.
"""
from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction
from statistics import median

from mpmath import mp, mpf

INTERVAL_S = 0.05       # one probe every 50 ms of wall time
NOMINAL_S = 1.6e-3      # probe time at the reference speed: inside a round, a quiet 2.1 GHz Xeon VM
MIN_SAMPLES = 7         # a stretch is scaled by at least this many probes

_BIG = 3 ** 2500


def probe_task():
    """About 1-2 ms of the kinds of work the program does: mpmath arithmetic
    at 180 digits in the pattern of a direct series sum, Fraction sums
    (interpreter and small gcds) and 4000-bit products and quotients."""
    with mp.workdps(180):
        acc, term = mpf(0), mpf(1) / 3
        for t in range(40, 64):
            tm = mpf(t)
            term *= ((tm - 7) / (tm - 35)) ** 3 * ((tm - 7) / (tm + 8)) ** 13
            acc += term
    s = Fraction(0)
    for k in range(1, 60):
        s += Fraction(1, k)
    x = _BIG
    for k in range(8):
        x = (x * _BIG) // (_BIG - k)
    return acc, s, x


class SpeedProbe:
    def __init__(self):
        self.stamps: list[float] = []   # perf_counter at the middle of each probe
        self.times: list[float] = []    # probe durations, in stamp order
        self.spent = 0.0                # wall time taken by probes so far
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, _signum, _frame) -> None:
        if self._busy:                  # a late tick arrived while probing
            return
        self._busy = True
        t0 = time.perf_counter()
        probe_task()
        t1 = time.perf_counter()
        self.stamps.append((t0 + t1) / 2)
        self.times.append(t1 - t0)
        self.spent += time.perf_counter() - t0
        self._busy = False

    def sample(self, count: int) -> None:
        """Take ``count`` probes now, for stretches too short to get enough."""
        for _ in range(count):
            self._tick(None, None)

    def clock(self) -> float:
        """Program time: ``perf_counter`` without the time spent probing."""
        return time.perf_counter() - self.spent

    def factor(self, t0: float, t1: float) -> float:
        """How much faster than nominal the host ran over the wall-time
        stretch [t0, t1]: the mean of NOMINAL_S / probe time over the
        probes in it, each probe time first replaced by the median of it
        and its two neighbours so that one interrupted probe does not
        count.  Probes are evenly spaced in wall time, so the mean weighs
        every part of the stretch alike.  The stretch is widened on both
        sides until it holds MIN_SAMPLES probes."""
        n = len(self.times)
        if n == 0:
            raise RuntimeError("the speed probe took no samples")
        lo = bisect.bisect_left(self.stamps, t0)
        hi = bisect.bisect_right(self.stamps, t1)
        while hi - lo < min(MIN_SAMPLES, n):
            if lo > 0 and (hi == n or t0 - self.stamps[lo - 1] <= self.stamps[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return sum(NOMINAL_S / median(self.times[max(0, i - 1):i + 2])
                   for i in range(lo, hi)) / (hi - lo)
