"""Counting array inversions through the transform of a bit encoding.

Each array entry becomes a fixed bit block whose suffixes sort like the
wavelet tree order of the values.  The transform of the encoded text
then contains every wavelet bitvector as a contiguous slice: the node
with label w owns the suffixes that start with one pattern P(w), and
all those ranges are read out of one sorted array of window keys.  The
inversion total of the array equals the sum of inversions over the
bitvectors.  The small variant handles values below 2^k; the general
variant covers values up to the padded array length.
"""

import numpy as np

from .bwt_builder import build_bwt
from .packed_text import (_int_values, _low_bits, _unsigned_dtype, pack,
                          window_keys)


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


def count_inversions_bits(bits):
    """Number of pairs i < j with bits[i] = 1 and bits[j] = 0.

    >>> count_inversions_bits([1, 0, 1, 0, 0])
    5
    """
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("bits must be one-dimensional")
    if arr.size and arr.max() > 1:
        raise ValueError("bit values must be 0 or 1")
    ones = np.cumsum(arr, dtype=np.int64)
    return int(ones[arr == 0].sum())


def _padded(a, domain=None):
    """The values padded to m entries; the domain defaults to [0..m)."""
    vals = _int_values(a).astype(np.int64)
    m = _next_pow2(max(2, len(vals)))
    domain = m if domain is None else domain
    if vals.size and (vals.min() < 0 or vals.max() >= domain):
        raise ValueError("value outside the encoding domain")
    # appended maxima sit at the end and exceed nothing, so the
    # inversion count of the padded array stays unchanged
    return np.concatenate([vals, np.full(m - len(vals), domain - 1)]), m


def _const(m, bit, width):
    return np.full((m, width), bit, dtype=np.uint8)


def build_reduction_small(a, k):
    """Encode narrow values: per entry rev(value) 01 1^k padded index 0."""
    if k < 1:
        raise ValueError("width must be positive")
    vals, m = _padded(a, 1 << k)
    logm = m.bit_length() - 1
    if k > logm:
        raise ValueError("width exceeds the index width")
    index = _low_bits(np.arange(m), logm)[:, ::-1]
    rows = np.hstack([_low_bits(vals, k), _const(m, 0, 1),
                      _const(m, 1, k + 1),
                      np.dstack([np.zeros_like(index), index]).reshape(m, -1),
                      _const(m, 0, 1)])
    if rows.shape[1] != 3 + 2 * logm + 2 * k:
        raise AssertionError("small encoding has a wrong length")
    return ReductionText(pack(rows.reshape(-1), 2), m, k, "small")


def build_reduction_general(a):
    """Encode full-range values: rev(value) 01 1^w 0 index 0 1^w 0."""
    vals, m = _padded(a)
    logm = m.bit_length() - 1
    rows = np.hstack([_low_bits(vals, logm), _const(m, 0, 1),
                      _const(m, 1, logm + 1), _const(m, 0, 1),
                      _low_bits(np.arange(m), logm)[:, ::-1], _const(m, 0, 1),
                      _const(m, 1, logm), _const(m, 0, 1)])
    if rows.shape[1] != 4 * logm + 5:
        raise AssertionError("general encoding has a wrong length")
    return ReductionText(pack(rows.reshape(-1), 2), m, logm, "general")


def _label_string(wval, wlen):
    # wavelet node label, most significant encoded bit written last
    return format(wval, "0%db" % wlen)[::-1] if wlen else ""


def _blocks_small(rt, force_naive):
    """Cut every wavelet bitvector out of the transform of rt.bits, for
    both variants: the levels are the k = rt.k value bits (log m in the
    general variant), and each entry continues 0 1 1^k.

    The node whose label w has d < k bits owns the suffixes that start
    with P(w) = w' 0 1^(k+1), w' being w reversed since values are
    written least significant bit first.  Those suffixes sort by the
    entry index that follows, and the symbols before them are bit d of
    the values under the node, so the node's bitvector is the transform
    over P(w)'s suffix range.  One sort of the windows of length 2k + 1,
    with the window length as a tie break, holds every such range: a
    shorter suffix that is a prefix of P(w) sorts before the range.
    """
    pt = rt.bits
    n = pt.n
    depth, run = rt.k, rt.k + 1
    L = depth + run
    if (L + 1) << L > 1 << 62:
        raise ValueError("pattern keys limited to 62 bits")
    bwt = np.asarray(build_bwt(pt, force_naive=force_naive).bwt,
                     dtype=np.uint8)
    # window * (L + 1) + length in place, the length min(L, n - i) short
    # of L only on the last L - 1 rows, then sorted in the narrowest
    # dtype that holds every key and every bound searched below
    keys = window_keys(pt, L, n)
    keys *= L + 1
    keys += L
    tail = min(L - 1, n)
    keys[n - tail:] -= np.arange(L - tail, L)
    keys = keys.astype(_unsigned_dtype((L + 1) << L))
    keys.sort()
    d = np.repeat(np.arange(depth), 1 << np.arange(depth))
    w = np.arange(len(d)) - ((1 << d) - 1)
    ell = d + 1 + run
    pat = (w << (run + 1)) | ((1 << run) - 1)
    lo = np.searchsorted(keys, ((pat << (L - ell)) * (L + 1) + ell).astype(
        keys.dtype))
    hi = np.searchsorted(keys, (((pat + 1) << (L - ell)) * (L + 1)).astype(
        keys.dtype))
    if int((hi - lo).sum()) != rt.m * depth:
        raise AssertionError("block sizes do not cover the array")
    full = np.flatnonzero(hi > lo)
    full = full[np.argsort(lo[full])]
    return {_label_string(wval, wlen): bwt[a:b] for wval, wlen, a, b in zip(
        w[full].tolist(), d[full].tolist(), lo[full].tolist(),
        hi[full].tolist())}


def _check_variant(variant, k):
    if variant not in ("small", "general"):
        raise ValueError("unknown variant %r" % (variant,))
    if variant == "general" and k is not None:
        raise ValueError("k sets the small variant's width only")


def extract_wavelet_blocks(a, variant="small", k=None, force_naive_bwt=False):
    """Wavelet bitvectors of the array, read out of the encoded transform.

    Returns a dict from node label strings to bit arrays.  Labels absent
    from the dict have empty bitvectors.  The small variant's width k
    defaults to the bit length of the largest value, at least 1; the
    general variant takes no k.
    """
    _check_variant(variant, k)
    if variant == "small":
        if k is None:
            k = max(1, int(_int_values(a).max(initial=0)).bit_length())
        rt = build_reduction_small(a, k)
    else:
        rt = build_reduction_general(a)
    return _blocks_small(rt, force_naive_bwt)


def count_inversions_via_bwt(a, variant="small", k=None,
                             force_naive_bwt=False):
    """Inversion count of the array through the transform pipeline.

    >>> count_inversions_via_bwt([2, 0, 3, 1], variant="general")
    3
    >>> count_inversions_via_bwt([1, 0, 1, 0])
    3
    >>> count_inversions_via_bwt([2, 0, 3, 1])
    3
    """
    _check_variant(variant, k)
    if len(_int_values(a)) <= 1:
        return 0
    blocks = list(extract_wavelet_blocks(
        a, variant=variant, k=k, force_naive_bwt=force_naive_bwt).values())
    sizes = np.array([len(b) for b in blocks], dtype=np.int64)
    bits = np.concatenate(blocks)
    ones = np.add.reduceat(bits, np.cumsum(sizes) - sizes, dtype=np.int64)
    # counted over the joined blocks, every one also pairs with each zero
    # of the blocks after its own
    across = int((sizes - ones) @ (np.cumsum(ones) - ones))
    return count_inversions_bits(bits) - across
