"""Build a synchronizing set, inspect its guarantees, then try to break it."""

import numpy as np

from sst.packed_text import pack
from sst.sync_set import (SyncSet, compute_q_and_b, construct,
                          validate_sync_set)

rng = np.random.default_rng(7)
n, tau = 400, 4
arr = rng.integers(0, 4, size=n)
# splice in a long periodic run so Q is not empty
arr[150:230] = np.tile([1, 2], 40)
pt = pack(arr, 4)

psets = compute_q_and_b(pt, tau)
print("n=%d tau=%d" % (n, tau))
print("|Q|=%d highly periodic window starts" % len(psets.q_positions))
print("|B|=%d boundary positions (bound 6n/tau = %d)"
      % (len(psets.b_positions), 6 * n // tau))

# two constructions, same guarantees
for mode in ("det", "random"):
    s = construct(pt, tau, mode=mode, seed=11)
    report = validate_sync_set(pt, tau, s)
    print("%-6s |S|=%-4d  bound 30n/tau=%d  valid=%s"
          % (mode, len(s), 30 * n // tau, report.ok))

# density: every length-tau window outside the periodic run hits S
s = construct(pt, tau, mode="det")
gaps = np.diff(np.concatenate([[0], s.positions]))
print("largest gap between consecutive positions:", int(gaps.max()))

# tampering: drop two adjacent positions and the validator objects
keep = np.ones(len(s), dtype=bool)
keep[len(s) // 2: len(s) // 2 + 2] = False
report = validate_sync_set(pt, tau, SyncSet(tau, n, s.positions[keep]))
print("after dropping two positions:", report.condition, report.witness)
print(report.message)
