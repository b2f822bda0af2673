"""Suffix arrays and LCP arrays of in-memory integer sequences.

Positions and ranks are 1-based to match the rest of the package.  No
sentinel is appended: a suffix that is a proper prefix of another sorts
first, which the doubling comparison realizes by ranking absent symbols
below every real rank.

Prefix doubling (Manber and Myers, SIAM J. Comput. 1993) starts from one
int64 key column of c symbols and ranks the c*2^k-symbol prefixes of all
suffixes in round k.  With the LCP array requested, the constructor
keeps those rank arrays until it has built the LCP array by binary
lifting: two distinct starts with equal round-k ranks begin with equal,
complete c*2^k-symbol blocks, so the common prefix of two suffixes is
the sum of the block lengths that match, tried from the longest down,
plus the equal leading symbols of the keys where they stop.  The sparse
table of range minima over an LCP array answers the common prefix of any
two suffixes, the minimum between their ranks.
"""

import numpy as np

from .packed_text import (_doubled_keys, _int_values, dense_ranks,
                          doubled_classes)


class SuffixArrayIndex:
    """Suffix array, its inverse, and with with_lcp the LCP array."""

    __slots__ = ("n", "sa", "isa", "lcp")

    def __init__(self, seq, with_lcp=True):
        if isinstance(seq, str):
            seq = [ord(c) for c in seq]
        arr = _int_values(seq)
        if arr.dtype == np.uint64 and arr.size and arr.max() >= 1 << 63:
            raise ValueError("values must lie below 2**63")
        arr = arr.astype(np.int64, copy=False)
        n = arr.size
        self.n = n
        narrow = next(t for t in (np.int16, np.int32, np.int64)
                      if n <= np.iinfo(t).max)
        # symbols 1..u, shifted values or dense ranks, then zeros
        lo, hi = (int(arr.min()), int(arr.max())) if n else (0, -1)
        sym = np.zeros(n + 64, dtype=narrow)
        sym[:n] = arr - lo if hi - lo < n else dense_ranks([arr])
        sym[:n] += 1
        b = int(sym.max()).bit_length()
        # a permutation of lo..hi ranks as arr - lo, without a sort; else
        # c symbols of b bits and the row index fit _sort's 63 bits
        perm = hi - lo + 1 == n and np.bincount(sym[:n]).max(initial=0) < 2
        c = 1 if perm else min(n, (63 - (n - 1).bit_length()) // b)
        key = _doubled_keys(sym[:n + c], c, 1 << b)[:n]
        sym = sym[:n + c] if with_lcp else None
        rank = key - 1 if perm else dense_ranks([key])
        del key
        ranks = []
        for nxt in doubled_classes(rank, c):
            if with_lcp:
                # -1 at index n stands for a block that runs past the end
                ranks.append(np.full(n + 1, -1, dtype=narrow))
                ranks[-1][:n] = rank
            rank = nxt
        sa0 = np.empty(n, dtype=np.int64)
        sa0[rank] = np.arange(n)
        self.sa = sa0 + 1
        self.isa = rank + 1
        # lcp[r]: common prefix of the suffixes of ranks r+1 and r+2
        self.lcp = (_lcp_by_lifting(ranks, sa0, sym, c, b) if with_lcp
                    else None)


def _lcp_by_lifting(ranks, sa0, sym, c, b):
    """Common prefix of the suffixes at sa0[r] and sa0[r+1], 0-based.

    ranks[k] holds the round-k rank of every start plus -1 at index n.
    The final round's ranks are distinct, so every common prefix is
    shorter than c*2^len(ranks), and one pass from the top round down,
    each round freed once read, finds it to a multiple h of c.  A start
    plus h is at most n, and at most one of the two reaches n, where -1
    matches no rank.  The rest is the equal leading b-bit digits of the
    keys at the two starts plus h, rebuilt from sym (the symbols, then
    c zeros); key n reads 0, below every other.
    """
    a, z = sa0[:-1], sa0[1:]
    h = np.zeros(len(a), dtype=np.int64)
    for k in range(len(ranks) - 1, -1, -1):
        h += (ranks[k][a + h] == ranks[k][z + h]) * (c << k)
        ranks[k] = None
    key = _doubled_keys(sym, c, 1 << b)
    x = key[a + h]
    x ^= key[z + h]
    del key
    return h + (c * b - _bit_length(x)) // b


def _bit_length(x):
    """bit_length of every int64 x > 0: frexp's exponent, less one where
    the float64 rounded x up to a power of two (x near 2^k, k > 53)."""
    e = np.frexp(x)[1]
    e -= (x >> (e - 1)) == 0
    return e


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
    """Suffix array of a sequence (or string), with its LCP array unless
    with_lcp is False.

    seq is a str, whose characters map through ord, or a 1-D sequence of
    integers (negative, bool and unsigned too) below 2**63; anything
    else raises ValueError.

    >>> build_suffix_array("banana").sa.tolist()
    [6, 4, 2, 1, 5, 3]
    """
    return SuffixArrayIndex(seq, with_lcp)

