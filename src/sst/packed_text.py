"""Bit-packed texts over small integer alphabets.

A text T[1..n] over [0..sigma) is stored with ceil(log2 sigma) bits per
symbol, packed into 64-bit words.  The first symbol occupies the least
significant bits of the first word.  All positions in the public API are
1-based; substring keys are base-sigma integers whose most significant
digit is the first symbol, so comparing keys of equal-length substrings
is the same as comparing the substrings lexicographically.
"""

from dataclasses import dataclass

import numpy as np

WORD_BITS = 64


def _bits_for(sigma):
    return max(1, int(sigma - 1).bit_length())


class PackedText:
    """Packed representation of a text plus small derived caches."""

    __slots__ = ("words", "n", "sigma", "bits_per_symbol", "symbols",
                 "_wlist")

    def __init__(self, words, n, sigma, bits_per_symbol, symbols):
        self.words = words
        self.n = n
        self.sigma = sigma
        self.bits_per_symbol = bits_per_symbol
        # unpacked copy kept for vectorised helpers; uint8 covers byte texts
        self.symbols = symbols
        # plain ints are faster than numpy scalars in the query hot paths
        self._wlist = [int(w) for w in words] + [0, 0]

    def __len__(self):
        return self.n

    @property
    def key_cap(self):
        """Longest substring extractable as a single key."""
        return 128 // self.bits_per_symbol

    def char_at(self, i):
        """Symbol at 1-based position i."""
        if not 1 <= i <= self.n:
            raise IndexError("position %d out of range [1..%d]" % (i, self.n))
        b = self.bits_per_symbol
        pos = (i - 1) * b
        w, off = pos >> 6, pos & 63
        chunk = self._wlist[w] >> off
        if off + b > WORD_BITS:
            chunk |= self._wlist[w + 1] << (WORD_BITS - off)
        return chunk & ((1 << b) - 1)

    def to_list(self):
        return self.symbols[:self.n].tolist()


def pack(symbols, sigma):
    """Pack a symbol sequence into a PackedText.

    >>> pt = pack([0, 1, 0, 0, 1], 2)
    >>> (pt.n, pt.bits_per_symbol, len(pt.words))
    (5, 1, 1)
    >>> [pt.char_at(i) for i in range(1, 6)]
    [0, 1, 0, 0, 1]
    """
    if sigma < 2:
        raise ValueError("sigma must be at least 2")
    arr = np.asarray(symbols, dtype=np.int64)
    n = len(arr)
    if n == 0:
        raise ValueError("empty text")
    if arr.min() < 0 or arr.max() >= sigma:
        raise ValueError("symbol out of range [0..%d)" % sigma)
    bits = _bits_for(sigma)
    # bit k of the stream is bit (k mod bits) of symbol k // bits
    shifts = np.arange(bits, dtype=np.uint64)
    bitmat = (arr.astype(np.uint64)[:, None] >> shifts[None, :]) & np.uint64(1)
    stream = bitmat.reshape(-1).astype(np.uint8)
    pad = (-len(stream)) % WORD_BITS
    if pad:
        stream = np.concatenate([stream, np.zeros(pad, dtype=np.uint8)])
    words = np.packbits(stream, bitorder="little").view("<u8")
    store = arr.astype(np.uint8 if sigma <= 256 else np.int64)
    return PackedText(words, n, sigma, bits, store)


@dataclass(frozen=True)
class SubstringKey:
    """Base-sigma integer encoding of a fixed-length substring."""

    value: int
    length: int
    sigma: int

    def _check(self, other):
        if self.length != other.length or self.sigma != other.sigma:
            raise ValueError("keys of different shape are not comparable")

    def __lt__(self, other):
        self._check(other)
        return self.value < other.value

    def __le__(self, other):
        self._check(other)
        return self.value <= other.value


def extract(pt, i, length):
    """Key of T[i..i+length), most significant digit first.

    Requires 1 <= i and i + length - 1 <= n and length <= key_cap.
    """
    if length < 0 or i < 1 or i + length - 1 > pt.n:
        raise IndexError("substring [%d..%d) out of range" % (i, i + length))
    if length > pt.key_cap:
        raise ValueError("substring longer than key capacity %d" % pt.key_cap)
    value = 0
    sigma = pt.sigma
    for t in range(length):
        value = value * sigma + pt.char_at(i + t)
    return SubstringKey(value, length, sigma)


def _read_bits(wlist, pos, k):
    w, off = pos >> 6, pos & 63
    val = wlist[w] >> off
    got = WORD_BITS - off
    if got < k:
        val |= wlist[w + 1] << got
    return val & ((1 << k) - 1)


def lcp_fragments(pt, i, j, cap):
    """Length of the longest common prefix of T[i..] and T[j..], capped.

    The comparison runs on the packed words a chunk at a time, so the cost
    is proportional to the number of words inspected rather than to the
    number of matching symbols.
    """
    n = pt.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError("positions out of range")
    limit = min(cap, n - i + 1, n - j + 1)
    if limit <= 0:
        return 0
    if i == j:
        return limit
    b = pt.bits_per_symbol
    wl = pt._wlist
    p1 = (i - 1) * b
    p2 = (j - 1) * b
    remaining = limit * b
    matched = 0
    while remaining > 0:
        take = WORD_BITS if remaining > WORD_BITS else remaining
        c1 = _read_bits(wl, p1, take)
        c2 = _read_bits(wl, p2, take)
        if c1 != c2:
            diff = c1 ^ c2
            low = (diff & -diff).bit_length() - 1
            return (matched + low) // b
        matched += take
        p1 += take
        p2 += take
        remaining -= take
    return limit


def lcp_fragments_many(pt, i, j, cap):
    """lcp_fragments over arrays of 1-based positions, as an int64 array.

    cap is one bound or an array of them.  Each round reads the next 64
    bits of every pair that still matches, so the rounds number the most
    words any one pair spans.
    """
    n = pt.n
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    if np.any((i < 1) | (i > n) | (j < 1) | (j > n)):
        raise IndexError("positions out of range")
    limit = np.maximum(np.minimum(n + 1 - np.maximum(i, j), cap), 0)
    out = np.where(i == j, limit, 0)
    act = np.flatnonzero((i != j) & (limit > 0))
    b = pt.bits_per_symbol
    words = pt.words
    last = len(words) - 1
    p1 = (i[act] - 1) * b
    p2 = (j[act] - 1) * b
    bits = limit[act] * b
    rem = bits.copy()
    while act.size:
        diff = _read_words(words, last, p1) ^ _read_words(words, last, p2)
        # trailing zeros, the bits matched in this word; 64 when it all
        # matched.  Bits past rem, garbage at the text's end included,
        # never count.
        low = np.bitwise_count(~diff & (diff - np.uint64(1)))
        rem -= np.minimum(low, rem)
        more = (low == WORD_BITS) & (rem > 0)
        out[act[~more]] = (bits[~more] - rem[~more]) // b
        act, bits, rem = act[more], bits[more], rem[more]
        p1 = p1[more] + WORD_BITS
        p2 = p2[more] + WORD_BITS
    return out


def _read_words(words, last, pos):
    """The 64 bits of the packed stream from each bit offset in pos.  Bits
    past the end of the last word are unspecified; callers ignore them."""
    w = pos >> 6
    off = (pos & 63).astype(np.uint64)
    hi = words[np.minimum(w + 1, last)]
    # two shifts, so that off == 0 shifts hi out instead of by 64 bits
    return (words[w] >> off) | (hi << (np.uint64(63) - off) << np.uint64(1))


def short_periods(pt, starts, length, pmax):
    """Smallest period p <= pmax of each T[i..i+length), 0 if none.

    A period of X is the smallest p >= 1 with X[t] = X[t+p] wherever
    both sides exist, and every X has period |X|.  One pass per
    candidate p compares the packed words of T[i..i+length-p) and
    T[i+p..i+length) for all starts at once.

    >>> pt = pack([0, 1, 0, 1, 0, 1, 1, 0], 2)
    >>> short_periods(pt, [1, 2, 4, 5], 4, 2).tolist()
    [2, 2, 0, 0]
    """
    starts = np.asarray(starts, dtype=np.int64)
    if length < 1:
        raise ValueError("empty fragments have no period")
    if np.any((starts < 1) | (starts + length - 1 > pt.n)):
        raise IndexError("fragment out of range")
    b = pt.bits_per_symbol
    words, last = pt.words, len(pt.words) - 1
    pos = (starts - 1) * b
    out = np.zeros(len(starts), dtype=np.int64)
    # descending, so that the smallest period is written last
    for p in range(min(pmax, length - 1), 0, -1):
        same = np.ones(len(starts), dtype=bool)
        bits = (length - p) * b
        for off in range(0, bits, WORD_BITS):
            diff = (_read_words(words, last, pos + off)
                    ^ _read_words(words, last, pos + p * b + off))
            if bits - off < WORD_BITS:
                diff &= np.uint64((1 << (bits - off)) - 1)
            same &= diff == 0
        out[same] = p
    if pmax >= length:
        out[out == 0] = length
    return out


def bulk_keys(pt, length, start=1, stop=None):
    """int64 array of keys of T[p..p+length) for p = start .. stop.

    Only valid while length * bits <= 62.  Returned array index 0
    corresponds to position `start`.
    """
    if stop is None:
        stop = pt.n - length + 1
    if length * pt.bits_per_symbol > 62:
        raise ValueError("bulk keys limited to 62 bits")
    if stop < start:
        return np.zeros(0, dtype=np.int64)
    if start < 1 or stop + length - 1 > pt.n:
        raise IndexError("range out of bounds")
    count = stop - start + 1
    sym = pt.symbols[start - 1:stop + length - 1].astype(np.int64)
    return pack_columns(((sym[t:t + count], pt.sigma)
                         for t in range(length)), count)[0]


def pack_columns(fields, count):
    """Mixed-radix keys of `count` rows as a list of int64 columns; count
    may also be an array shape that the values broadcast to.

    fields yields (values, radix) pairs, most significant first, with
    0 <= values < radix.  Consecutive fields share a column while the
    product of their radices stays at most 2**62, so the columns compare
    lexicographically exactly like the field tuples, and a column of
    symbol fields alone is the base-sigma key that extract returns.

    >>> [c.tolist() for c in pack_columns([([1, 0], 2), ([2, 1], 3)], 2)]
    [[5, 1]]
    >>> len(pack_columns([(0, 1 << 40), (0, 1 << 40)], 3))
    2
    """
    cols = [np.zeros(count, dtype=np.int64)]
    span = 1
    for vals, radix in fields:
        if span * radix > 1 << 62:
            cols.append(np.zeros(count, dtype=np.int64))
            span = 1
        cols[-1] *= radix
        cols[-1] += vals
        span *= radix
    return cols


def sort_rows(cols):
    """Row order of packed columns, first column most significant; equal
    rows come in any order, since argsort beats lexsort on one column."""
    return np.argsort(cols[0]) if len(cols) == 1 else np.lexsort(cols[::-1])


def dense_ranks(cols):
    """Dense 0-based ranks of the rows of packed columns.

    >>> dense_ranks([np.array([7, 3, 7, 5])]).tolist()
    [2, 0, 2, 1]
    """
    order = sort_rows(cols)
    new = np.zeros(len(order), dtype=bool)
    for col in cols:
        ks = col[order]
        new[1:] |= ks[1:] != ks[:-1]
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[order] = np.cumsum(new)
    return ranks
