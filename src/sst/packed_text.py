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
                 "_wlist", "_period_memo")

    def __init__(self, words, n, sigma, bits_per_symbol, symbols):
        self.words = words
        self.n = n
        self.sigma = sigma
        self.bits_per_symbol = bits_per_symbol
        # unpacked copy kept for vectorised helpers; uint8 covers byte texts
        self.symbols = symbols
        # plain ints are faster than numpy scalars in the query hot paths
        self._wlist = [int(w) for w in words] + [0, 0]
        self._period_memo = {}

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

    def to_symbols(self):
        """Decode back to the symbol sequence (first symbol first)."""
        out = []
        v = self.value
        for _ in range(self.length):
            v, d = divmod(v, self.sigma)
            out.append(d)
        out.reverse()
        return out


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


def substring_period(pt, i, length):
    """Smallest period of T[i..i+length).

    The period p of a string X is the smallest p >= 1 with X[t] = X[t+p]
    for all valid t; per("aabaab") = 3, per("abc") = 3, per("aaaa") = 1.
    """
    if length < 1 or i < 1 or i + length - 1 > pt.n:
        raise IndexError("substring [%d..%d) out of range" % (i, i + length))
    memo_key = None
    if length * pt.bits_per_symbol <= 22:
        memo_key = (length, extract(pt, i, length).value)
        hit = pt._period_memo.get(memo_key)
        if hit is not None:
            return hit
    frag = pt.symbols[i - 1:i - 1 + length]
    per = period_of(frag)
    if memo_key is not None:
        pt._period_memo[memo_key] = per
    return per


def period_of(seq):
    """Smallest period of an explicit symbol sequence (failure function)."""
    m = len(seq)
    if m == 0:
        raise ValueError("empty string has no period")
    fail = [0] * m
    k = 0
    for q in range(1, m):
        c = seq[q]
        while k > 0 and seq[k] != c:
            k = fail[k - 1]
        if seq[k] == c:
            k += 1
        fail[q] = k
    return m - fail[m - 1]


def bulk_keys(pt, length, start=1, stop=None):
    """int64 array of keys of T[p..p+length) for p = start .. stop.

    Vectorised Horner evaluation; only valid while length * bits <= 62.
    Returned array index 0 corresponds to position `start`.
    """
    if stop is None:
        stop = pt.n - length + 1
    if length * pt.bits_per_symbol > 62:
        raise ValueError("bulk keys limited to 62 bits")
    if stop < start:
        return np.zeros(0, dtype=np.int64)
    if start < 1 or stop + length - 1 > pt.n:
        raise IndexError("range out of bounds")
    sym = pt.symbols.astype(np.int64)
    count = stop - start + 1
    keys = np.zeros(count, dtype=np.int64)
    base = start - 1
    for t in range(length):
        keys *= pt.sigma
        keys += sym[base + t:base + t + count]
    return keys
