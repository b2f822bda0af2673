"""Suffix arrays with LCP support for in-memory integer sequences.

Positions and ranks are 1-based to match the rest of the package.  No
sentinel is appended: a suffix that is a proper prefix of another sorts
first, which the doubling comparison realizes by ranking absent symbols
below every real rank.
"""

import numpy as np


class SuffixArrayIndex:
    """Suffix array, inverse, LCP array and a sparse-table minimum."""

    __slots__ = ("n", "sa", "isa", "lcp", "_rmq")

    def __init__(self, seq):
        if isinstance(seq, str):
            seq = [ord(c) for c in seq]
        arr = np.asarray(seq, dtype=np.int64)
        n = arr.size
        self.n = n
        if n == 0:
            self.sa = np.zeros(0, dtype=np.int64)
            self.isa = np.zeros(0, dtype=np.int64)
            self.lcp = np.zeros(0, dtype=np.int64)
            self._rmq = []
            return
        rank = np.unique(arr, return_inverse=True)[1].astype(np.int64)
        k = 1
        while int(rank.max()) < n - 1:
            key2 = np.full(n, -1, dtype=np.int64)
            key2[:n - k] = rank[k:]
            order = np.lexsort((key2, rank))
            r1, r2 = rank[order], key2[order]
            bump = np.zeros(n, dtype=np.int64)
            bump[1:] = (r1[1:] != r1[:-1]) | (r2[1:] != r2[:-1])
            rank = np.empty(n, dtype=np.int64)
            rank[order] = np.cumsum(bump)
            k *= 2
        sa0 = np.empty(n, dtype=np.int64)
        sa0[rank] = np.arange(n)
        self.sa = sa0 + 1
        self.isa = rank + 1
        self.lcp = _kasai(arr, sa0, rank)
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

