"""Counting array inversions through the transform of a bit encoding.

Each array entry becomes a fixed bit block whose suffixes sort like the
wavelet tree order of the values.  The transform of the encoded text
then contains every wavelet bitvector as a contiguous slice: the node
with label w owns the suffixes that start with one pattern P(w), and
backward search over that same transform finds all those ranges.  The
inversion total of the array equals the sum of inversions over the
bitvectors.  The small variant handles values below 2^k; the general
variant covers values up to the padded array length.
"""

import numpy as np

from .bwt_builder import build_bwt
from .packed_text import _int_values, _low_bits, pack


class ReductionText:
    """Bit encoding of an array, padded to a power-of-two length."""

    __slots__ = ("bits", "m", "k", "variant")

    def __init__(self, bits, m, k, variant):
        self.bits = bits
        self.m = int(m)
        self.k = int(k)
        self.variant = variant


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
    m = 1 << (max(2, len(vals)) - 1).bit_length()
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


def _blocks_small(rt, force_naive):
    """Locate every wavelet bitvector in the transform of rt.bits, for
    both variants: the levels are the k = rt.k value bits (log m in the
    general variant), and each entry continues 0 1 1^k.

    The node whose label w has d < k bits owns the suffixes that start
    with P(w) = w' 0 1^(k+1), w' being w reversed since values are
    written least significant bit first.  Those suffixes sort by the
    entry index that follows, and the symbols before them are bit d of
    the values under the node, so the node's bitvector is the transform
    over P(w)'s suffix range.  Backward search finds every range:
    prepending 1 k + 1 times and 0 once to all rows gives the root's.
    The patterns of depth below j sort as those of depth below j - 1
    after a 0, then the root's, then those after a 1, so each pass
    prepends 0 and 1 to every non-empty range of the last pass and puts
    the root's between them: the ranges come out in order.  Returns the
    transform, then per non-empty node in range order 2^d + w (w read as
    a binary number) and the range [lo, hi).
    """
    n, depth = rt.bits.n, rt.k
    res = build_bwt(rt.bits, force_naive=force_naive)
    bwt, p = res.bwt, res.primary_index - 1
    last = int(bwt[p])
    # ones[x]: the ones in the rows below x but the primary row, which
    # holds T[n] and no predecessor; T[n] alone heads its symbol's rows
    ones = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(bwt, out=ones[1:])
    ones[p + 1:] -= last
    base0, base1 = 1 - last, n - int(ones[-1])

    def children(x):
        # a row bound x of the suffixes S gives those of 0 S and of 1 S
        occ1 = ones[x]
        return base0 + x - (x > p) - occ1, base1 + occ1

    lo, hi = 0, n
    for bit in [1] * (depth + 1) + [0]:
        lo, hi = children(lo)[bit], children(hi)[bit]
    root = np.array([[1], [lo], [hi]])
    nodes = root
    for _ in range(depth - 1):
        zero, one = children(nodes[1:])
        v = 2 * nodes[:1]
        nodes = np.concatenate([np.concatenate([v, zero]), root,
                                np.concatenate([v + 1, one])], axis=1)
        nodes = nodes.compress(nodes[1] < nodes[2], axis=1)
    node, lo, hi = nodes
    if int((hi - lo).sum()) != rt.m * depth:
        raise AssertionError("block sizes do not cover the array")
    return bwt, node, lo, hi


def _reduction(a, variant, k):
    """The array's encoding in the variant, k defaulting as below."""
    _check_variant(variant, k)
    if variant == "general":
        return build_reduction_general(a)
    if k is None:
        k = max(1, int(_int_values(a).max(initial=0)).bit_length())
    return build_reduction_small(a, k)


def _check_variant(variant, k):
    if variant not in ("small", "general"):
        raise ValueError("unknown variant %r" % (variant,))
    if variant == "general" and k is not None:
        raise ValueError("k sets the small variant's width only")


def extract_wavelet_blocks(a, variant="small", k=None, force_naive_bwt=False):
    """Wavelet bitvectors of the array, padded with its domain's maximum
    to a power-of-two length as the encoding pads it ([3, 1, 2] in the
    general variant has the root bits 1011), read out of the transform.

    Returns a dict from node labels to bit arrays in the order of their
    ranges; absent labels have empty bitvectors.  The small variant's
    width k defaults to the bit length of the largest value, at least 1;
    the general variant takes no k.
    """
    bwt, node, lo, hi = _blocks_small(_reduction(a, variant, k),
                                      force_naive_bwt)
    return {format(v, "b")[1:]: bwt[s:e] for v, s, e in zip(
        node.tolist(), lo.tolist(), hi.tolist())}


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
    if len(_int_values(a)) <= 1:
        _check_variant(variant, k)
        return 0
    bwt, _, lo, hi = _blocks_small(_reduction(a, variant, k),
                                   force_naive_bwt)
    sizes = hi - lo
    starts = np.cumsum(sizes) - sizes
    bits = bwt[np.arange(sizes.sum()) + np.repeat(lo - starts, sizes)]
    ones = np.add.reduceat(bits, starts, dtype=np.int64)
    # counted over the joined blocks, every one also pairs with each zero
    # of the blocks after its own
    across = int((sizes - ones) @ (np.cumsum(ones) - ones))
    return count_inversions_bits(bits) - across
