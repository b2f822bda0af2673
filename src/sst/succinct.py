"""Rank bitvectors.

The rank structure keeps the raw bits in 64-bit words plus a two-level
count directory: cumulative counts per 512-bit superblock and 16-bit
offsets per word.
"""

import numpy as np


def _to_bit_array(bits):
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("bits must be one-dimensional")
    if arr.size and arr.max() > 1:
        raise ValueError("bit values must be 0 or 1")
    return arr


class RankBitvector:
    """Static bitvector with constant-time prefix rank.

    >>> rb = RankBitvector([1, 0, 1, 1, 0])
    >>> [rb.rank1(i) for i in range(6)]
    [0, 1, 1, 2, 3, 3]
    """

    __slots__ = ("n", "words", "_super", "_offsets", "_wlist")

    def __init__(self, bits):
        arr = _to_bit_array(bits)
        self.n = arr.size
        pad = (-arr.size) % 64
        if pad:
            arr = np.concatenate([arr, np.zeros(pad, dtype=np.uint8)])
        words = np.packbits(arr, bitorder="little").view("<u8")
        self.words = words
        pc = np.bitwise_count(words).astype(np.int64)
        cum = np.zeros(len(words) + 1, dtype=np.int64)
        np.cumsum(pc, out=cum[1:])
        nsuper = len(words) // 8 + 1
        sup = cum[np.minimum(np.arange(nsuper + 1) * 8, len(words))]
        self._super = sup.tolist()
        off = cum - sup[np.arange(len(cum)) >> 3]
        self._offsets = off.astype(np.uint16).tolist()
        self._wlist = [int(w) for w in words]

    def __len__(self):
        return self.n

    def get(self, i):
        """Bit at 1-based position i."""
        if not 1 <= i <= self.n:
            raise IndexError("bit index out of range")
        return (self._wlist[(i - 1) >> 6] >> ((i - 1) & 63)) & 1

    def rank1(self, i):
        """Number of ones among the first i bits; rank1(0) = 0."""
        if not 0 <= i <= self.n:
            raise IndexError("rank argument out of range [0..%d]" % self.n)
        w, r = i >> 6, i & 63
        base = self._super[w >> 3] + self._offsets[w]
        if r:
            base += (self._wlist[w] & ((1 << r) - 1)).bit_count()
        return base

    def rank0(self, i):
        return i - self.rank1(i)

    @property
    def aux_bits(self):
        """Directory size in bits, excluding the raw payload."""
        return 64 * len(self._super) + 16 * len(self._offsets)


def count_inversions_bits(bits):
    """Number of pairs i < j with bits[i] = 1 and bits[j] = 0.

    >>> count_inversions_bits([1, 0, 1, 0, 0])
    5
    """
    arr = _to_bit_array(bits)
    if arr.size == 0:
        return 0
    ones = np.cumsum(arr, dtype=np.int64)
    return int(ones[arr == 0].sum())
