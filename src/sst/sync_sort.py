"""Sorting the suffixes that start at synchronizing positions.

Each synchronizing position contributes one symbol of a reduced string:
the fragment of length up to 3tau starting there, ordered by its
symbols zero-padded past the text end and then by its length, plus a
tie-breaking integer d that accounts for long highly periodic runs.
Sorting the suffixes of the reduced string then sorts the original
suffixes at the synchronizing positions.
"""

from dataclasses import dataclass

import numpy as np

from .packed_text import dense_ranks, pack_columns, substring_period
from .suffix_core import SuffixArrayIndex, build_suffix_array


@dataclass
class TPrimeString:
    """Reduced string: one rank-reduced symbol per synchronizing position."""

    tau: int
    n: int
    positions: np.ndarray
    symbols: np.ndarray
    d_values: np.ndarray

    @property
    def sentinel(self):
        return self.n - 2 * self.tau + 2

    def __len__(self):
        return len(self.symbols)


def compute_d_values(pt, tau, positions):
    """Tie-breaker d for each position, given the next one in the set."""
    n = pt.n
    sp = np.asarray(positions, dtype=np.int64)
    m = len(sp)
    d = np.zeros(m, dtype=np.int64)
    if m == 0:
        return d
    nxt = np.empty(m, dtype=np.int64)
    nxt[:-1] = sp[1:]
    nxt[-1] = n - 2 * tau + 2
    gaps = nxt - sp
    for i in np.nonzero(gaps > tau)[0]:
        s = int(sp[i])
        p = substring_period(pt, s + 1, 3 * tau - 1)
        if 3 * p > tau:
            raise AssertionError(
                "gap > tau outside a highly periodic run at %d" % s)
        c = int(nxt[i]) + 2 * tau - 1
        if c <= n and pt.char_at(c) > pt.char_at(c - p):
            d[i] = n - int(gaps[i])
        else:
            d[i] = int(gaps[i]) - n
    return d


def build_tprime(pt, s):
    """Encode the reduced string for a synchronizing set.

    Members rank by the fragment T[i..i+3tau) zero-padded past the text
    end, then by the fragment length, then by d; equal triples share a
    symbol.  The three are packed as mixed-radix fields into as few
    int64 columns as they need, so one sort covers every tau and
    alphabet.
    """
    n, tau = pt.n, s.tau
    sp = np.asarray(s.positions, dtype=np.int64)
    m = len(sp)
    d = compute_d_values(pt, tau, sp)
    if m == 0:
        return TPrimeString(tau, n, sp, np.zeros(0, dtype=np.int64), d)
    width = 3 * tau
    sym = np.concatenate([pt.symbols.astype(np.int64),
                          np.zeros(width, dtype=np.int64)])

    def fields():
        for t in range(width):
            yield sym[sp - 1 + t], pt.sigma
        yield np.minimum(width, n + 1 - sp), width + 1
        yield d + n, 2 * n + 1
    reduced = dense_ranks(pack_columns(fields(), m))
    return TPrimeString(tau, n, sp, reduced, d)


@dataclass
class SortedSyncOrder:
    """Suffix order of the reduced string, mapped back to text positions."""

    tprime: TPrimeString
    suffix_index: SuffixArrayIndex
    order: np.ndarray
    sorted_positions: np.ndarray
    rank_of_index: np.ndarray

    def __len__(self):
        return len(self.order)


def sort_sync_suffixes(pt, s):
    """Sort the text suffixes starting at synchronizing positions.

    Returns the order as indices into s.positions (1-based), the
    positions themselves in suffix order, and the inverse permutation.
    """
    tp = build_tprime(pt, s)
    idx = build_suffix_array(tp.symbols)
    order = idx.sa
    m = len(order)
    if m:
        sorted_positions = tp.positions[order - 1]
    else:
        sorted_positions = np.zeros(0, dtype=np.int64)
    return SortedSyncOrder(tp, idx, order, sorted_positions, idx.isa)
