"""Host-speed reference for the benchmark's timings.

The benchmark runs on a few vCPUs of a shared host whose speed moves by up
to 2x within tens of seconds as other tenants come and go: the same
analysis request, repeated for a minute in one process, took between 0.35 s
and 0.73 s (median of every five), so its wall time mostly measures the
neighbours.  CPU time moves just as much.

So while a pass runs, a timer interrupts the benchmark's thread every
INTERVAL_S seconds and runs a small fixed reference computation -- exact
rational elimination and permutation composition, the two kinds of work
the package does, written here without tamecount -- and records how long
it took.  The *reference time* of a span is its program time (the time
spent in the timer's handler taken out) integrated against the moving
median of the nearby reference durations: the span's length in units of
"one reference computation on this host at that moment".  A change to the
program moves it; a change of host speed mostly cancels out.  Over the same
minute the reference time of that request stayed within 91-97 ref for most
blocks of five.
"""
from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.2
NEIGHBOURS = 3   # the local reference duration is the median of 2*3+1 samples

_rng = random.Random(20260217)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(9)]
           for _ in range(9)]
_P = tuple(_rng.sample(range(1, 17), 16))
_Q = tuple(_rng.sample(range(1, 17), 16))


def reference_computation():
    """Fixed work: eliminate a 9x9 rational matrix, walk 1500 permutations."""
    rows = [row[:] for row in _MATRIX]
    n = len(rows)
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    x, seen = _P, {_P}
    for i in range(1500):
        g = _Q if i % 3 else _P
        x = tuple(g[j - 1] for j in x)
        seen.add(x)
    return rows[-1][-1], len(seen)


class SpeedSampler:
    """Times the reference computation every INTERVAL_S seconds of a `with`
    block, on the block's own thread (the main thread)."""

    def __init__(self):
        self.starts = []
        self.durations = []

    def _sample(self, *_):
        t0 = time.perf_counter()
        reference_computation()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self._sample()   # every span then has a sample at or before it
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def ref_time(self, a, b):
        """Program time in [a, b], in units of the local reference duration."""
        local = [statistics.median(self.durations[max(0, k - NEIGHBOURS):k + NEIGHBOURS + 1])
                 for k in range(len(self.durations))]
        k = max(0, bisect.bisect_right(self.starts, a) - 1)
        total, t = 0.0, a
        while t < b:
            end = min(self.starts[k + 1], b) if k + 1 < len(self.starts) else b
            busy_end = self.starts[k] + self.durations[k]
            busy = max(0.0, min(end, busy_end) - max(t, self.starts[k]))
            total += (end - t - busy) / local[k]
            t, k = end, min(k + 1, len(self.starts) - 1)
        return total

    def handler_time(self, a, b):
        """Time in [a, b] spent in the sampler instead of the program."""
        return sum(max(0.0, min(b, s + d) - max(a, s))
                   for s, d in zip(self.starts, self.durations))

    def summary(self):
        return {"samples": len(self.durations),
                "reference_median_s": statistics.median(self.durations)}
