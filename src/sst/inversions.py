"""Counting array inversions through the transform of a bit encoding.

Each array entry becomes a fixed bit block whose suffixes sort like the
wavelet tree order of the values.  The transform of the encoded text
then contains every wavelet bitvector as a contiguous slice, located by
substring frequencies alone, and the inversion total of the array
equals the sum of inversions over those bitvectors.  The small variant
handles narrow values with a short traversal; the general variant
covers values up to the array length with a linear prefix scan.
"""

from collections import defaultdict

import numpy as np

from .bwt_builder import build_bwt, count_freq
from .packed_text import pack, window_keys
from .succinct import count_inversions_bits


class ReductionText:
    """Bit encoding of an array, padded to a power-of-two length."""

    __slots__ = ("bits", "m", "k", "variant")

    def __init__(self, bits, m, k, variant):
        self.bits = bits
        self.m = int(m)
        self.k = int(k)
        self.variant = variant


def _next_pow2(m):
    p = 1
    while p < m:
        p *= 2
    return p


def _bin_bits(x, width):
    return [(x >> (width - 1 - t)) & 1 for t in range(width)]


def _pad_zeros(bits):
    out = []
    for b in bits:
        out.append(0)
        out.append(b)
    return out


def _padded(a, domain):
    vals = [int(v) for v in a]
    if any(v < 0 or v >= domain for v in vals):
        raise ValueError("value outside the encoding domain")
    m = _next_pow2(max(2, len(vals)))
    # appended maxima sit at the end and exceed nothing, so the
    # inversion count of the padded array stays unchanged
    vals.extend([domain - 1] * (m - len(vals)))
    return vals, m


def build_reduction_small(a, k):
    """Encode narrow values: per entry rev(value) 01 1^k padded index 0."""
    if k < 1:
        raise ValueError("width must be positive")
    vals, m = _padded(a, 1 << k)
    logm = m.bit_length() - 1
    if k > logm:
        raise ValueError("width exceeds the index width")
    bits = []
    for i, v in enumerate(vals, 1):
        bits.extend(_bin_bits(v, k)[::-1])
        bits.extend((0, 1))
        bits.extend([1] * k)
        bits.extend(_pad_zeros(_bin_bits(i - 1, logm)))
        bits.append(0)
    if len(bits) != m * (3 + 2 * logm + 2 * k):
        raise AssertionError("small encoding has a wrong length")
    return ReductionText(pack(bits, 2), m, k, "small")


def build_reduction_general(a):
    """Encode full-range values: rev(value) 01 1^w 0 index 0 1^w 0."""
    m = _next_pow2(max(2, len(a)))
    vals, m = _padded(a, m)
    logm = m.bit_length() - 1
    bits = []
    for i, v in enumerate(vals, 1):
        bits.extend(_bin_bits(v, logm)[::-1])
        bits.extend((0, 1))
        bits.extend([1] * logm)
        bits.append(0)
        bits.extend(_bin_bits(i - 1, logm))
        bits.append(0)
        bits.extend([1] * logm)
        bits.append(0)
    if len(bits) != m * (4 * logm + 5):
        raise AssertionError("general encoding has a wrong length")
    return ReductionText(pack(bits, 2), m, logm, "general")


def _label_string(wval, wlen):
    # wavelet node label, most significant encoded bit written last
    return format(wval, "0%db" % wlen)[::-1] if wlen else ""


def _blocks_small(rt, force_naive):
    pt = rt.bits
    n, k = pt.n, rt.k
    res = build_bwt(pt, force_naive=force_naive)
    bwt = np.asarray(res.bwt, dtype=np.int64)
    depth = 2 * k + 1
    fts = {d: count_freq(pt, d) for d in range(1, depth + 1)}
    # the last d bits are the tail window's key mod 2**d
    tail = int(window_keys(pt, depth, [n - depth + 1])[0][0])
    suffix_val = {d: tail & ((1 << d) - 1) for d in range(1, depth)}
    mask = (1 << (k + 2)) - 1
    want = (1 << (k + 1)) - 1
    blocks = {}
    cur = 0
    stack = [(1, 1), (0, 1)]
    while stack:
        v, d = stack.pop()
        f = fts[d].get(v)
        if f == 0:
            continue
        if d >= k + 2 and (v & mask) == want:
            blocks[_label_string(v >> (k + 2), d - k - 2)] = \
                np.array(bwt[cur:cur + f], dtype=np.uint8)
            cur += f
            continue
        if d == depth:
            cur += f
            continue
        if suffix_val[d] == v:
            # a suffix equal to the label sorts first in its range and
            # belongs to no bitvector; step over its slot
            cur += 1
        stack.append((v * 2 + 1, d + 1))
        stack.append((v * 2, d + 1))
    if cur != n:
        raise AssertionError("cursor drifted off the transform")
    return blocks


def _blocks_general(rt, force_naive):
    pt = rt.bits
    n = pt.n
    logm = rt.k
    res = build_bwt(pt, force_naive=force_naive)
    bwt = np.asarray(res.bwt, dtype=np.int64)
    ft_log = count_freq(pt, logm)
    ft_ext = {ell: count_freq(pt, ell)
              for ell in range(logm + 2, 2 * logm + 2)}
    bump = defaultdict(int)
    tail = int(window_keys(pt, logm, [n - logm + 1])[0][0])
    for ell in range(1, logm):
        bump[(tail & ((1 << ell) - 1)) << (logm - ell)] += 1
    ones = (1 << logm) - 1
    blocks = {}
    cur = 0
    for x in range(1 << logm):
        cur += bump.get(x, 0)
        f = ft_log.get(x)
        if x != ones:
            s = ((x + 1) & -(x + 1)).bit_length() - 1
            wlen = logm - s - 1
            wval = x >> (s + 1)
            extval = (((wval << 2) | 1) << logm) | ones
            fe = ft_ext[wlen + 2 + logm].get(extval)
            if fe:
                blocks[_label_string(wval, wlen)] = \
                    np.array(bwt[cur + f - fe:cur + f], dtype=np.uint8)
        cur += f
    if cur != n:
        raise AssertionError("cursor drifted off the transform")
    return blocks


def default_small_width(m):
    """Default value width for the narrow variant."""
    return max(1, (_next_pow2(max(2, m)).bit_length() - 1) // 8)


def extract_wavelet_blocks(a, variant="small", k=None, force_naive_bwt=False):
    """Wavelet bitvectors of the array, read out of the encoded transform.

    Returns a dict from node label strings to bit arrays.  Labels absent
    from the dict have empty bitvectors.
    """
    if variant == "small":
        if k is None:
            k = default_small_width(len(a))
        rt = build_reduction_small(a, k)
        return _blocks_small(rt, force_naive_bwt)
    if variant == "general":
        rt = build_reduction_general(a)
        return _blocks_general(rt, force_naive_bwt)
    raise ValueError("unknown variant %r" % (variant,))


def count_inversions_via_bwt(a, variant="small", k=None,
                             force_naive_bwt=False):
    """Inversion count of the array through the transform pipeline.

    >>> count_inversions_via_bwt([2, 0, 3, 1], variant="general")
    3
    >>> count_inversions_via_bwt([1, 0, 1, 0])
    3
    """
    if len(a) <= 1:
        return 0
    blocks = extract_wavelet_blocks(a, variant=variant, k=k,
                                    force_naive_bwt=force_naive_bwt)
    return sum(count_inversions_bits(b) for b in blocks.values())
