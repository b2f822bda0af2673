"""Constant-time longest common extension queries.

The index stores the packed text, a synchronizing set with rank support,
and a suffix-array index of the reduced string over the synchronizing
positions.  A query compares at most 3tau packed symbols directly, hops
to the successors inside the synchronizing set, translates the remaining
work to one LCE query in the reduced string, and finishes with another
bounded packed comparison.  Highly periodic stretches never contain
synchronizing positions; the successor offsets alone determine the
answer there.
"""

import math

from .packed_text import lcp_fragments
from .sync_set import construct_packed_fast
from .sync_sort import sort_sync_suffixes


def default_tau(n, sigma):
    """Window parameter from the packing density, an eighth of the
    symbols that fit in a machine word, at least 1 and at most n // 2."""
    bits = max(1, int(sigma - 1).bit_length())
    if n < 2:
        return 1
    guess = max(1, int(math.log2(n) / (8 * bits)))
    return max(1, min(guess, n // 2))


class LceIndex:
    """LCE queries over a fixed text."""

    def __init__(self, pt, tau=None, sync=None, order=None):
        self.pt = pt
        n = pt.n
        if tau is None:
            tau = default_tau(n, pt.sigma)
        if tau < 1:
            raise ValueError("tau must be positive")
        self.tau = tau
        self.direct = n == 1 or 2 * tau > n
        if self.direct:
            if sync is not None:
                raise ValueError("tau too large for a synchronizing set")
            self.sync = None
            self.order = None
            self._pos = []
            return
        self.sync = sync if sync is not None else construct_packed_fast(pt, tau)
        self.order = order if order is not None else sort_sync_suffixes(
            pt, self.sync)
        self._rank1 = self.sync.rank_structure().rank1
        self._pos = self.sync.positions.tolist()

    def query(self, i, j):
        """LCE of the suffixes starting at 1-based positions i and j."""
        pt = self.pt
        n = pt.n
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexError("positions out of range [1..%d]" % n)
        if i == j:
            return n - i + 1
        if self.direct:
            return lcp_fragments(pt, i, j, n)
        tau = self.tau
        cap = 3 * tau
        head = lcp_fragments(pt, i, j, cap)
        if head < cap:
            return head
        rank = self._rank1
        pos = self._pos
        nprime = len(pos)
        sent = self.sync.sentinel
        ir = rank(i - 1)
        jr = rank(j - 1)
        si = pos[ir] if ir < nprime else sent
        sj = pos[jr] if jr < nprime else sent
        if si - i != sj - j:
            return min(si - i, sj - j) + 2 * tau - 1
        if ir == nprime or jr == nprime:
            ell = 0
        else:
            ell = self.order.suffix_index.lce(ir + 1, jr + 1)
        ai = ir + ell
        bi = jr + ell
        a = pos[ai] if ai < nprime else sent
        b = pos[bi] if bi < nprime else sent
        tail = lcp_fragments(pt, a, b, cap)
        if tail < cap:
            return a - i + tail
        ga = (pos[ai + 1] if ai + 1 < nprime else sent) - a
        gb = (pos[bi + 1] if bi + 1 < nprime else sent) - b
        return a - i + min(ga, gb) + 2 * tau - 1

