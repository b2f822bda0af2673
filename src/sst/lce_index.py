"""Constant-time longest common extension queries.

The index stores the packed text, the sorted members of a synchronizing
set, and, for the reduced string over the synchronizing positions, the
rank of each suffix and a sparse table of range minima over its LCP
array.  The set is the randomized construction with seed 0: valid for
every seed, fully vectorised, and the same on every run.  A query
compares at most 3tau packed symbols directly, hops to the successors
inside the synchronizing set, translates the remaining work to one LCE
query in the reduced string, the minimum of the LCP array between the
two ranks, and finishes with another bounded packed comparison.  The
successor of i is found by a binary search of the members, which a
directory of 64-position buckets bounds to the at most 64 members in
the bucket of i - 1.  Highly periodic stretches never contain
synchronizing positions; the successor offsets alone determine the
answer there.  Each bounded comparison reads one 64-bit window a side
from the packed words and takes the lowest set bit of their xor; past
64 bits, which no default tau reaches, matching windows lead to the
next ones.  The build binds the state a scalar query reads to a
closure, self.query, so that a call reads no attribute.
"""

from bisect import bisect_right
from fractions import Fraction
from operator import index

import numpy as np

from .packed_text import _bits_for, lcp_fragments_many, window_keys
from .suffix_core import _build_sparse_min, _range_min, _range_min_many
from .sync_set import SyncSet, check_tau, construct
from .sync_sort import sort_sync_suffixes

# pairs per numpy pass of query_many: a block's temporaries take about
# 1 MB, and each block adds a fixed cost of about a hundred numpy calls
QUERY_BLOCK = 1 << 13


# |S| * tau / n of the random construction, measured at 1.8-1.9 on
# random and mosaic texts; default_tau sizes the emission key's
# successor-rank field with it
SYNC_DENSITY = Fraction(19, 10)


def default_tau(n, sigma):
    """Window parameter from the word budget: the largest tau <= n // 2
    (at least 1) that meets two bounds.

    - 3tau * bits <= 62, so a 3tau-symbol window packs into one int64
      key and the synchronizing-set pipeline applies;
    - the emission sort key of build_bwt fits one int64 column:
      (3tau-1) * bits + bit_length(3tau-1)
      + bit_length(ceil(SYNC_DENSITY * n / tau)) <= 62, the window, its
      length and the successor rank among about SYNC_DENSITY * n / tau
      members.  Past it the emission sort becomes a lexsort of two
      columns, several times slower.

    The paper's tau = Theta(log_sigma n) sets the same scale.  An
    explicit tau passed to build_bwt or LceIndex overrides the rule.

    >>> default_tau(1 << 20, 2), default_tau(1 << 14, 4), default_tau(6, 2)
    (13, 7, 3)
    """
    bits = _bits_for(sigma)
    num, den = SYNC_DENSITY.as_integer_ratio()

    def fits(tau):
        cap = 3 * tau - 1
        members = -(-num * n // (den * tau))
        return (3 * tau * bits <= 62 and cap * bits + cap.bit_length()
                + members.bit_length() <= 62)

    tau = 1
    while tau < n // 2 and fits(tau + 1):
        tau += 1
    return tau


def resolve_tau(tau, n, sigma):
    """default_tau(n, sigma) for None, else tau as a positive int."""
    return default_tau(n, sigma) if tau is None else check_tau(tau)


def _int_positions(i, j):
    """i and j as ints: NumPy integers convert, while floats, bools and
    strings raise ValueError."""
    if isinstance(i, bool) or isinstance(j, bool):
        raise ValueError("positions must be integers")
    try:
        return index(i), index(j)
    except TypeError:
        raise ValueError("positions must be integers") from None


class LceIndex:
    """LCE queries over a fixed text."""

    def __init__(self, pt, tau=None):
        self.pt = pt
        n = pt.n
        tau = resolve_tau(tau, n, pt.sigma)
        self.tau = tau
        # when 2tau > n the set is empty and the head compare answers
        # every query: its limit 3tau exceeds every common extension
        if 2 * tau > n:
            self.sync = SyncSet(tau, n, np.zeros(0, dtype=np.int64))
            keys = None
        elif 3 * tau * pt.bits_per_symbol <= 62:
            # one encoding serves the set's tau-window keys and the
            # reduced string's symbols; the n keys go before its sort
            keys = window_keys(pt, 3 * tau, n)
            self.sync = construct(pt, tau, mode="random", seed=0, keys=keys)
            keys = keys[self.sync.positions - 1]
        else:
            self.sync = construct(pt, tau, mode="random", seed=0)
            keys = None
        reduced = sort_sync_suffixes(pt, self.sync, keys=keys)[1]
        # _rank[t]: the 0-based rank of the reduced suffix of member t
        self._rank = reduced.isa0
        lcp = reduced.lcp
        # sa, unread by queries, and the member keys go before the table
        del reduced, keys
        self._rmq = _build_sparse_min(lcp)
        # _succ[r]: the member of rank r, the sentinel for r >= |S|
        sent = self.sync.sentinel
        self._succ = np.append(self.sync.positions, [sent, sent])
        self.sync.positions = self._succ[:-2]
        self._succ_list = self._succ.tolist()
        # _first[b]: the number of members below 64b, so the members at
        # 64b..64b+63, at most 64, have ranks _first[b].._first[b + 1] - 1
        self._first = np.searchsorted(self.sync.positions,
                                      np.arange(0, n + 64, 64)).tolist()
        # the packed words as plain ints, faster than numpy scalars in
        # the scalar query, and two zero words for its reads at the end
        self._wlist = pt.words.tolist() + [0, 0]
        self.query = self._bind_query()

    def _bind_query(self):
        """The scalar query, with the index's read-only state bound once
        as closure variables, so that a call reads no attribute."""
        pt = self.pt
        n, b, wl = pt.n, pt.bits_per_symbol, self._wlist
        tau = self.tau
        cap = 3 * tau
        # starts <= last have all cap symbols, which full masks up to 64 bits
        last = n - cap + 1
        full = (1 << min(cap * b, 64)) - 1
        succ, first = self._succ_list, self._first
        rank, rmq = self._rank.item, self._rmq
        nprime = len(self.sync)
        reach = 2 * tau - 1

        def lcp(i, j):
            """T[i..] vs T[j..], i != j, capped at cap: one 64-bit window
            a side from bit (i - 1) * b, the trailing zero words of _wlist
            covering the text end, then the lowest set bit of the xor."""
            p = (i - 1) * b
            k = p >> 6
            x = (wl[k] | wl[k + 1] << 64) >> (p & 63)
            q = (j - 1) * b
            k = q >> 6
            x ^= (wl[k] | wl[k + 1] << 64) >> (q & 63)
            if i <= last and j <= last:
                x &= full
                lim = cap
            else:
                lim = n + 1 - (i if i > j else j)
                x &= (1 << lim * b) - 1 & full
            if x:
                return ((x & -x).bit_length() - 1) // b
            # the first 64 of lim * b > 64 bits match; full keeps all 64
            end = p + lim * b
            while p + 64 < end:
                p += 64
                q += 64
                k = p >> 6
                x = (wl[k] | wl[k + 1] << 64) >> (p & 63)
                k = q >> 6
                x = (x ^ (wl[k] | wl[k + 1] << 64) >> (q & 63)) & full
                if x:
                    p += (x & -x).bit_length() - 1
                    return p // b - i + 1 if p < end else lim
            return lim

        def query(i, j):
            """LCE of the suffixes starting at 1-based positions i and j."""
            if type(i) is not int or type(j) is not int:
                i, j = _int_positions(i, j)
            if not (1 <= i <= n and 1 <= j <= n):
                raise IndexError("positions out of range [1..%d]" % n)
            if i == j:
                return n - i + 1
            head = lcp(i, j)
            if head < cap:
                return head
            # the rank of the successor of i: the number of members below i
            k = (i - 1) >> 6
            ir = bisect_right(succ, i - 1, first[k], first[k + 1])
            k = (j - 1) >> 6
            jr = bisect_right(succ, j - 1, first[k], first[k + 1])
            di = succ[ir] - i
            dj = succ[jr] - j
            if di != dj:
                return (di if di < dj else dj) + reach
            if ir == nprime or jr == nprime:
                ell = 0
            else:
                # ir != jr here: one successor would give di != dj
                ra = rank(ir)
                rb = rank(jr)
                ell = _range_min(rmq, ra, rb) if ra < rb else \
                    _range_min(rmq, rb, ra)
            ai = ir + ell
            bi = jr + ell
            a = succ[ai]
            c = succ[bi]
            tail = lcp(a, c)
            if tail < cap:
                return a - i + tail
            gap = min(succ[ai + 1] - a, succ[bi + 1] - c)
            return a - i + gap + reach

        return query

    def query_many(self, i, j):
        """query over 1-D arrays of 1-based positions, as an int64 array.

        Every step of query runs on whole blocks of QUERY_BLOCK pairs,
        which bounds the temporaries; np.searchsorted over the sorted
        members finds the successors.
        """
        n = self.pt.n
        i = np.asarray(i)
        j = np.asarray(j)
        if i.ndim != 1 or i.shape != j.shape:
            raise ValueError("positions must be two 1-D arrays of one length")
        if i.size and (i.dtype.kind not in "iu" or j.dtype.kind not in "iu"):
            raise ValueError("positions must be integers")
        i = i.astype(np.int64, copy=False)
        j = j.astype(np.int64, copy=False)
        if np.any((i < 1) | (i > n) | (j < 1) | (j > n)):
            raise IndexError("positions out of range [1..%d]" % n)
        out = np.empty(len(i), dtype=np.int64)
        for lo in range(0, len(i), QUERY_BLOCK):
            hi = lo + QUERY_BLOCK
            out[lo:hi] = self._query_block(i[lo:hi], j[lo:hi])
        return out

    def _query_block(self, i, j):
        cap = 3 * self.tau
        out = lcp_fragments_many(self.pt, i, j, cap)
        hop = np.flatnonzero(out == cap)
        # i == j would reach the range minimum with equal ranks
        same = i[hop] == j[hop]
        out[hop[same]] = self.pt.n + 1 - i[hop[same]]
        hop = hop[~same]
        out[hop] = self._hop_many(i[hop], j[hop])
        return out

    def _hop_many(self, i, j):
        """Answers of query for i, j whose heads match 3tau."""
        tau = self.tau
        cap = 3 * tau
        pos = self.sync.positions
        nprime = len(pos)
        succ = self._succ
        ir = np.searchsorted(pos, i - 1, side="right")
        jr = np.searchsorted(pos, j - 1, side="right")
        di = succ[ir] - i
        dj = succ[jr] - j
        out = np.minimum(di, dj) + 2 * tau - 1
        go = np.flatnonzero(di == dj)
        i, ir, jr = i[go], ir[go], jr[go]
        ell = np.zeros(len(go), dtype=np.int64)
        both = np.flatnonzero((ir < nprime) & (jr < nprime))
        ra = self._rank[ir[both]]
        rb = self._rank[jr[both]]
        ell[both] = _range_min_many(self._rmq, np.minimum(ra, rb),
                                    np.maximum(ra, rb))
        ai = ir + ell
        bi = jr + ell
        a = succ[ai]
        b = succ[bi]
        tail = lcp_fragments_many(self.pt, a, b, cap)
        gap = np.minimum(succ[ai + 1] - a, succ[bi + 1] - b)
        out[go] = a - i + np.where(tail < cap, tail, gap + 2 * tau - 1)
        return out
