"""Bit-packed texts over small integer alphabets.

A text T[1..n] over [0..sigma) is stored with ceil(log2 sigma) bits per
symbol, packed into 64-bit words.  The first symbol occupies the least
significant bits of the first word.  All positions in the public API are
1-based.  pack and the inversion reduction share one bit encoder,
_low_bits.  window_keys is the one encoder of substrings as keys:
base-sigma integers of the windows at starts 1..count, the first
symbol most significant and zeros past the text end, one int64 key
column of at most 2**62, so the keys of equal-length windows compare
like the windows, lexicographically.  A caller that needs a wider
fragment joins consecutive windows of one column each.
"""

import numpy as np

WORD_BITS = 64


def _bits_for(sigma):
    return max(1, int(sigma - 1).bit_length())


class PackedText:
    """Packed representation of a text plus its unpacked symbols."""

    __slots__ = ("words", "n", "sigma", "bits_per_symbol", "symbols")

    def __init__(self, words, n, sigma, bits_per_symbol, symbols):
        self.words = words
        self.n = n
        self.sigma = sigma
        self.bits_per_symbol = bits_per_symbol
        # unpacked copy kept for vectorised helpers; uint8 covers byte texts
        self.symbols = symbols

    def __len__(self):
        return self.n

    def to_list(self):
        return self.symbols[:self.n].tolist()


def _int_values(a):
    """a as a 1-D integer array, bools and unsigned included."""
    vals = np.asarray(a)
    if vals.ndim != 1 or (vals.size and vals.dtype.kind not in "biu"):
        raise ValueError("values must be a 1-D sequence of integers")
    return vals


def _low_bits(x, w):
    """Bits 0..w-1 of each integer x >= 0, least significant first, as
    one uint8 row per integer, read off its little-endian bytes."""
    x = np.ascontiguousarray(x, dtype=x.dtype.newbyteorder("<"))
    bits = np.unpackbits(x.view(np.uint8), bitorder="little")
    return bits.reshape(len(x), -1)[:, :w]


def pack(symbols, sigma):
    """Pack a symbol sequence into a PackedText.

    symbols is a non-empty 1-D sequence of integers (bools and unsigned
    too) in [0..sigma), 2 <= sigma <= 2**62; anything else raises
    ValueError.  The unpacked copy is the narrowest of uint8, uint16 and
    uint32 that holds sigma - 1, else int64.

    >>> pt = pack([0, 1, 0, 0, 1], 2)
    >>> (pt.n, pt.bits_per_symbol, len(pt.words))
    (5, 1, 1)
    >>> pt.to_list()
    [0, 1, 0, 0, 1]
    """
    if not 2 <= sigma <= 1 << 62:
        raise ValueError("sigma must lie in [2..2**62]")
    arr = _int_values(symbols)
    n = len(arr)
    if n == 0:
        raise ValueError("empty text")
    if arr.min() < 0 or arr.max() >= sigma:
        raise ValueError("symbol out of range [0..%d)" % sigma)
    bits = _bits_for(sigma)
    store = arr.astype(np.uint8 if sigma <= 1 << 8 else
                       np.uint16 if sigma <= 1 << 16 else
                       np.uint32 if sigma <= 1 << 32 else np.int64)
    # bit k of the stream is bit (k mod bits) of symbol k // bits
    stream = np.packbits(_low_bits(store, bits), bitorder="little")
    words = np.zeros(-(-n * bits // WORD_BITS), dtype="<u8")
    words.view(np.uint8)[:len(stream)] = stream
    return PackedText(words, n, sigma, bits, store)


def lcp_fragments_many(pt, i, j, cap):
    """Longest common prefixes of T[i..] and T[j..], capped at cap, over
    arrays of 1-based positions, as an int64 array.

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


def _column_symbols(sigma):
    """The most symbols c with sigma**c <= 2**62, one key column's worth."""
    return next(c for c in range(62 // _bits_for(sigma), 63)
                if sigma ** (c + 1) > 1 << 62)


def _doubled_keys(sym, w, sigma):
    """Keys of every w-symbol window of sym, by key_{a+b}(i) =
    key_a(i) * sigma**b + key_b(i+a) over the lengths 1, 2, 4, ... that
    the binary digits of w name: floor(log2 w) + popcount(w) passes."""
    key, got, m = None, 0, 1
    part = sym.astype(np.int64)
    while True:
        if w & m:
            key = part if key is None else key[:-m] * sigma ** m + part[got:]
            got += m
        if 2 * m > w:
            return key
        part = part[:-m] * sigma ** m + part[m:]
        m *= 2


def window_keys(pt, length, count):
    """Base-sigma keys of the windows T[i..i+length) at the starts
    1..count, as one int64 array built by one key doubling.

    The first symbol is the most significant and symbols past n read
    as 0, so equal-length keys compare like the windows.  length lies
    in 1..c, c the most symbols with sigma**c <= 2**62, one key
    column's worth; anything else raises ValueError.

    >>> pt = pack([1, 0, 2, 2], 3)
    >>> window_keys(pt, 2, 4).tolist()
    [3, 2, 8, 6]
    """
    c = _column_symbols(pt.sigma)
    if not 1 <= length <= c:
        raise ValueError("window length must lie in [1..%d]" % c)
    if count <= 0:
        return np.zeros(0, dtype=np.int64)
    sym = np.zeros(count + length - 1, dtype=pt.symbols.dtype)
    text = pt.symbols[:len(sym)]
    sym[:len(text)] = text
    return _doubled_keys(sym, length, pt.sigma)


def _drop_digits(keys, sigma, count, out):
    """Base-sigma keys without their last count digits, keys //
    sigma**count, written to out: a right shift when sigma is a power
    of two."""
    bits = _bits_for(sigma)
    if sigma == 1 << bits:
        return np.right_shift(keys, count * bits, out=out, casting="unsafe")
    return np.floor_divide(keys, sigma ** count, out=out, casting="unsafe")


def _unsigned_dtype(top):
    """The narrowest unsigned dtype whose maximum is at least top."""
    return next(dt for dt in (np.uint8, np.uint16, np.uint32, np.uint64)
                if top <= np.iinfo(dt).max)


def pack_columns(fields, count):
    """Mixed-radix keys of `count` rows as a list of int64 columns.

    fields yields (values, radix) pairs, most significant first, with
    0 <= values < radix.  Consecutive fields share a column while the
    product of their radices stays at most 2**62, so the columns compare
    lexicographically exactly like the field tuples.  A window key
    of w symbols enters as one field of radix sigma**w.

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


def _sort(cols):
    """sort_rows' order and, where the rows sorted by value, the sorted
    keys (else None).  The value sort is one in-place np.sort of
    key << b | row, b = bit_length(m - 1), 3-4x faster than np.argsort
    of the keys: the low b bits give the order, the high bits the keys.
    cols must be a list or a tuple: a bare array would read as columns
    of one row each.
    """
    if not isinstance(cols, (list, tuple)):
        raise ValueError("cols must be a list or a tuple of columns")
    if len(cols) > 1:
        return np.lexsort(cols[::-1]), None
    col = cols[0]
    m = len(col)
    b = (m - 1).bit_length()
    if m == 0 or col.min() < 0 or int(col.max()).bit_length() + b > 63:
        return np.argsort(col), None
    packed = col.astype(np.int64)
    packed <<= b
    packed |= np.arange(m)
    packed.sort()
    order = packed & ((1 << b) - 1)
    packed >>= b
    return order, packed


def sort_rows(cols):
    """Row order of packed columns, first column most significant.

    Equal rows come in any order.  One column of m keys >= 0 with
    bit_length(max key) + bit_length(m - 1) <= 63 sorts by value, each
    row's index in the low bits; any other column by np.argsort, which
    beats lexsort on one column, and several columns by np.lexsort.

    >>> sort_rows([np.array([7, 3, 5])]).tolist()
    [1, 2, 0]
    >>> sort_rows([np.array([7, -3, 5])]).tolist()
    [1, 2, 0]
    """
    return _sort(cols)[0]


def dense_ranks(cols):
    """Dense 0-based ranks of the rows of packed columns.

    The rows sort as in sort_rows; where they sort by value, the sorted
    keys come from the sorted values, without a gather of the column.

    >>> dense_ranks([np.array([7, 3, 7, 5])]).tolist()
    [2, 0, 2, 1]
    >>> dense_ranks([np.array([7, -3, 7, 5])]).tolist()
    [2, 0, 2, 1]
    """
    order, ks = _sort(cols)
    sorted_cols = (col[order] for col in cols) if ks is None else [ks]
    new = np.zeros(len(order), dtype=bool)
    for ks in sorted_cols:
        new[1:] |= ks[1:] != ks[:-1]
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[order] = np.cumsum(new)
    return ranks


def doubled_classes(cls, got, length=None):
    """Prefix doubling (Karp, Miller and Rosenberg, STOC 1972) of the
    dense classes cls of the got-symbol fragments at every start, folding
    k class columns into each round.

    A round ranks, at each start i, the classes at i, i + got, ...,
    i + (k-1)got as the digits of one int64 in base C + 1, C the class
    count: the first digit is the class, the others the class + 1, or 0
    past the end, below every class.  k is the most digits of
    bit_length(C) bits that fit the value sort's 63 bits beside the row
    index of m starts, (63 - bit_length(m - 1)) // bit_length(C), no
    more than ceil(m / got), past which every digit reads 0, and at
    least 2, whose key fits one int64 below 3e9 starts.  Each round
    yields the new classes and its k, and got grows k-fold.  With
    length given, k is cut to ceil(length / got) and the last offset to
    length - got, so that got ends at length.  The rounds stop at length
    or once every class is distinct.

    >>> [(c.tolist(), k) for c, k in doubled_classes(np.array([1, 0, 1, 0]), 1)]
    [([3, 1, 2, 0], 4)]
    """
    m = len(cls)
    row_bits = (m - 1).bit_length()
    while (length is None or got < length) and \
            (count := int(cls.max(initial=-1)) + 1) < m:
        k = max(2, min((63 - row_bits) // count.bit_length(), -(-m // got)))
        offsets = [j * got for j in range(k)]
        if length is not None and length < k * got:
            k = -(-length // got)
            offsets = offsets[:k - 1] + [length - got]
        # in place over one copy: a fresh n-row array costs more than a pass
        key = cls.astype(np.int64)
        for off in offsets[1:]:
            key *= count + 1
            key[:m - off] += cls[off:]
            key[:m - off] += 1
        cls = dense_ranks([key])
        got = k * got if length is None else min(k * got, length)
        yield cls, k
