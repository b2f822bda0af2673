"""Suffix arrays with LCP support for in-memory integer sequences.

Positions and ranks are 1-based to match the rest of the package.  No
sentinel is appended: a suffix that is a proper prefix of another sorts
first, which the doubling comparison realizes by ranking absent symbols
below every real rank.

Prefix doubling (Manber and Myers, SIAM J. Comput. 1993) ranks the
2^k-symbol prefixes of all suffixes in round k.  An index built with
LCP support keeps those rank arrays until the LCP array is built from
them by binary lifting: two distinct starts with equal round-k ranks
begin with equal, complete 2^k-symbol blocks, so the common prefix of
two suffixes is the sum of the block lengths that match, tried from the
longest down.  The ranks are dropped once the LCP array exists.  An
index built without LCP support keeps no ranks, and its LCP queries
raise.
"""

import numpy as np

from .packed_text import dense_ranks, doubled_classes


class SuffixArrayIndex:
    """Suffix array and inverse.  With LCP support (with_lcp) the LCP
    array and its sparse-table minimum are built on first use, or at
    once by prepare_lce."""

    __slots__ = ("n", "sa", "isa", "_ranks", "_lcp", "_rmq")

    def __init__(self, seq, with_lcp=True):
        if isinstance(seq, str):
            seq = [ord(c) for c in seq]
        arr = np.asarray(seq, dtype=np.int64)
        n = arr.size
        self.n = n
        # None: built without LCP support
        self._ranks = [] if with_lcp else None
        self._lcp = None
        self._rmq = None
        narrow = next(t for t in (np.int16, np.int32, np.int64)
                      if n <= np.iinfo(t).max)
        rank = dense_ranks([arr])
        for nxt in doubled_classes(rank, 1):
            if with_lcp:
                # -1 at index n stands for a block that runs past the end
                self._ranks.append(np.full(n + 1, -1, dtype=narrow))
                self._ranks[-1][:n] = rank
            rank = nxt
        sa0 = np.empty(n, dtype=np.int64)
        sa0[rank] = np.arange(n)
        self.sa = sa0 + 1
        self.isa = rank + 1

    @property
    def lcp(self):
        """lcp[r]: common prefix of the suffixes of ranks r+1 and r+2."""
        if self._lcp is None:
            if self._ranks is None:
                raise ValueError("suffix array built without LCP support")
            self._lcp = _lcp_by_lifting(self._ranks, self.sa - 1)
            self._ranks = None
        return self._lcp

    def prepare_lce(self):
        """Build the LCP array and its range-minimum table now."""
        if self._rmq is None:
            self._rmq = _build_sparse_min(self.lcp)

    def lce(self, i, j):
        """Longest common extension of the suffixes at 1-based i and j."""
        n = self.n
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexError("suffix index out of range")
        if i == j:
            return n - i + 1
        a = int(self.isa[i - 1]) - 1
        b = int(self.isa[j - 1]) - 1
        if a > b:
            a, b = b, a
        if self._rmq is None:
            self.prepare_lce()
        return _range_min(self._rmq, a, b)

    def lce_many(self, i, j):
        """lce over arrays of 1-based suffix indices, as an int64 array."""
        n = self.n
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        if np.any((i < 1) | (i > n) | (j < 1) | (j > n)):
            raise IndexError("suffix index out of range")
        a = self.isa[i - 1] - 1
        b = self.isa[j - 1] - 1
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        out = n - i + 1
        apart = np.flatnonzero(lo != hi)
        if self._rmq is None:
            self.prepare_lce()
        out[apart] = _range_min_many(self._rmq, lo[apart], hi[apart])
        return out


def _lcp_by_lifting(ranks, sa0):
    """Common prefix of the suffixes at sa0[r] and sa0[r+1], 0-based.

    ranks[k] holds the round-k rank of every start plus -1 at index n.
    The final round's ranks are distinct, so every common prefix is
    shorter than 2^len(ranks) and one pass from the top round down
    finds it.  A start plus the prefix found so far is at most n, and
    at most one of the two reaches n, where -1 matches no rank.
    """
    a = sa0[:-1]
    b = sa0[1:]
    h = np.zeros(len(a), dtype=np.int64)
    for k in range(len(ranks) - 1, -1, -1):
        rk = ranks[k]
        h += (rk[a + h] == rk[b + h]) << k
    return h


def _build_sparse_min(vals):
    m = len(vals)
    table = [np.asarray(vals, dtype=np.int64)]
    j = 1
    while (1 << j) <= m:
        prev = table[-1]
        half = 1 << (j - 1)
        table.append(np.minimum(prev[:m - (1 << j) + 1], prev[half:m - half + 1]))
        j += 1
    return table

def _range_min(table, a, b):
    """Minimum of the underlying array over [a..b-1], 0-based, a < b."""
    k = (b - a).bit_length() - 1
    row = table[k]
    return int(min(row[a], row[b - (1 << k)]))


def _range_min_many(table, a, b):
    """_range_min over arrays of bounds, one table level at a time."""
    # frexp's exponent minus one is floor(log2) of a positive integer
    k = np.frexp((b - a).astype(np.float64))[1] - 1
    out = np.empty(len(a), dtype=np.int64)
    for level in np.flatnonzero(np.bincount(k)).tolist():
        sel = np.flatnonzero(k == level)
        row = table[level]
        out[sel] = np.minimum(row[a[sel]], row[b[sel] - (1 << level)])
    return out


def build_suffix_array(seq, with_lcp=True):
    """Index a sequence (or string) for suffix-order queries, and for
    LCE queries unless with_lcp is False.

    >>> build_suffix_array("banana").sa.tolist()
    [6, 4, 2, 1, 5, 3]
    """
    return SuffixArrayIndex(seq, with_lcp)

