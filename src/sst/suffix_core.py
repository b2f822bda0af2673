"""Suffix arrays with LCP support for in-memory integer sequences.

Positions and ranks are 1-based to match the rest of the package.  No
sentinel is appended: a suffix that is a proper prefix of another sorts
first, which the doubling comparison realizes by ranking absent symbols
below every real rank.
"""

import numpy as np

from .packed_text import dense_ranks, pack_columns


class SuffixArrayIndex:
    """Suffix array and inverse; the LCP array and its sparse-table
    minimum are built on first use, or at once by prepare_lce."""

    __slots__ = ("n", "sa", "isa", "_seq", "_lcp", "_rmq")

    def __init__(self, seq):
        if isinstance(seq, str):
            seq = [ord(c) for c in seq]
        arr = np.asarray(seq, dtype=np.int64)
        n = arr.size
        self.n = n
        self._seq = arr
        self._lcp = None
        self._rmq = None
        if n == 0:
            self.sa = np.zeros(0, dtype=np.int64)
            self.isa = np.zeros(0, dtype=np.int64)
            return
        rank = dense_ranks([arr])
        k = 1
        while int(rank.max()) < n - 1:
            nxt = np.zeros(n, dtype=np.int64)
            nxt[:n - k] = rank[k:] + 1
            rank = dense_ranks(pack_columns([(rank, n), (nxt, n + 1)], n))
            k *= 2
        sa0 = np.empty(n, dtype=np.int64)
        sa0[rank] = np.arange(n)
        self.sa = sa0 + 1
        self.isa = rank + 1

    @property
    def lcp(self):
        """lcp[r]: common prefix of the suffixes of ranks r+1 and r+2."""
        if self._lcp is None:
            self._lcp = _kasai(self._seq, self.sa - 1, self.isa - 1)
            self._seq = None
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


def _kasai(arr, sa0, rank):
    n = arr.size
    lcp = np.zeros(max(n - 1, 0), dtype=np.int64)
    if n < 2:
        return lcp
    seq = arr.tolist()
    rk = rank.tolist()
    sa = sa0.tolist()
    h = 0
    for i in range(n):
        r = rk[i]
        if r == n - 1:
            h = 0
            continue
        j = sa[r + 1]
        while i + h < n and j + h < n and seq[i + h] == seq[j + h]:
            h += 1
        lcp[r] = h
        if h:
            h -= 1
    return lcp


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


def build_suffix_array(seq):
    """Index a sequence (or string) for suffix-order and LCE queries.

    >>> build_suffix_array("banana").sa.tolist()
    [6, 4, 2, 1, 5, 3]
    """
    return SuffixArrayIndex(seq)

