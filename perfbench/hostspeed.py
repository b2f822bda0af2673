"""Timing that holds still on a host whose speed drifts.

On a shared host the same call can take half as long again from one
minute to the next, because other guests come and go.  A fixed
pure-Python loop, timed just before and just after each call, measures
the host's speed at that moment; the call's duration over the loop's
stays put while the duration alone does not.  A metric is the median of
those ratios times REFERENCE_LOOP_S: the call's duration, in seconds, on
a host that runs the loop in that time.

Nothing here imports numpy or the package under test, so the numpy
import itself can be timed this way.
"""

import time
from collections import defaultdict

PROBE_ITERATIONS = 3000
# the fastest the loop runs, typically, on the 2-core x86-64 VM (Xeon,
# 2.0 GHz, Python 3.11) where the README's figures were measured; the
# fastest loop of a run moves by 5-10% with the host's load, so it is
# printed but not used
REFERENCE_LOOP_S = 0.00028
WARM_UP = 5


def _probe_loop():
    total, seen = 0, {}
    for i in range(PROBE_ITERATIONS):
        total += i * i & 7
        seen[i & 63] = total
    return total


class HostSpeed:
    def __init__(self):
        self.ratios = defaultdict(list)
        self.loop_s = []
        for _ in range(WARM_UP):
            _probe_loop()   # a first, cold loop would read as a slow host

    def probe(self):
        t0 = time.perf_counter()
        _probe_loop()
        elapsed = time.perf_counter() - t0
        self.loop_s.append(elapsed)
        return elapsed

    def call(self, key, fn, *args, **kwargs):
        """fn's result and duration; records the duration over the mean
        of the loops around it under key."""
        before = self.probe()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        after = self.probe()
        self.ratios[key].append(2.0 * elapsed / (before + after))
        return result, elapsed
