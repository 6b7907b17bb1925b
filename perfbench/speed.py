"""The host's current speed, sampled while a workload runs.

On a shared host the same Python code runs up to twice as slowly in one
minute as in the next, in CPU time as well as in wall time, because
neighbours contend for the core and its caches.  A fixed pure-Python
probe that does not touch cupcalc runs every PERIOD_S from a timer
signal.  Each measured interval is scaled by REFERENCE_S over the mean
time of the probes run during it, widened to at least WINDOW_S, so it
reads as seconds on a host where the probe takes REFERENCE_S.  Probe
time is left out of every measured interval.
"""

import bisect
import gc
import signal
import time

PERIOD_S = 0.025
WINDOW_S = 1.0
# Close to the mean probe time on a 2-vCPU Xeon VM at its fastest, Python 3.11;
# it fixes the unit of the scaled times and must not change between runs
# that are compared.
REFERENCE_S = 0.0002


def probe():
    """A fraction of a millisecond of dict, tuple and str work, without the
    collector, whose cost grows with the program's heap."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    table = {}
    for i in range(1000):
        table[i % 61] = (i, str(i))
    seconds = time.perf_counter() - start
    if enabled:
        gc.enable()
    return seconds


class Speed:
    def __init__(self):
        self.stamps = []        # perf_counter at each probe's start
        self.probes = []        # each probe's duration
        self.busy = 0.0

    def _on_alarm(self, signum, frame):
        self.sync()

    def sync(self):
        """Run one probe now."""
        self.stamps.append(time.perf_counter())
        seconds = probe()
        self.probes.append(seconds)
        self.busy += seconds

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def clock(self):
        """perf_counter minus the time spent in probes."""
        return time.perf_counter() - self.busy

    def factor(self, start=None, seconds=0.0):
        """Measured seconds times this factor are reference seconds.

        Uses the probes within WINDOW_S (or the interval, if longer)
        centred on the interval that began at perf_counter ``start``;
        all probes when ``start`` is None."""
        lo, hi = 0, len(self.probes)
        if start is not None:
            centre, half = start + seconds / 2, max(seconds, WINDOW_S) / 2
            lo = bisect.bisect_left(self.stamps, centre - half)
            hi = bisect.bisect_right(self.stamps, centre + half)
            if lo == hi:
                lo, hi = 0, len(self.probes)
        window = self.probes[lo:hi]
        return REFERENCE_S * len(window) / sum(window)
