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

from .packed_text import dense_ranks, pack_columns, short_periods
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


def find_runs(pt, tau, positions):
    """The highly periodic runs across gaps longer than tau, as arrays.

    Consecutive members a < b of the set, with 0 before the first and
    the sentinel n-2tau+2 after the last, more than tau apart bound a
    run T[j..e) with j = a+1 and e = b+2tau-1: by density T[j..j+3tau-1)
    has period p <= tau/3, and p extends to the break at e.  Returns
    (prev, j, e, p, type), one entry per run: prev is the index of
    member a in the set, -1 for the run before the first member, and
    type is +1 when T[e] > T[e-p] and -1 when e > n or T[e] < T[e-p].
    """
    n = pt.n
    sp = np.asarray(positions, dtype=np.int64)
    prev = np.concatenate([[0], sp])
    nxt = np.concatenate([sp, [n - 2 * tau + 2]])
    row = np.flatnonzero(nxt - prev > tau)
    if not len(row):
        return (row,) * 5
    j = prev[row] + 1
    e = nxt[row] + 2 * tau - 1
    p = short_periods(pt, j, 3 * tau - 1, tau // 3)
    if np.any(p == 0):
        raise AssertionError("gap > tau outside a highly periodic run at %d"
                             % (j[p == 0][0] - 1))
    # e <= n + 1; past the text end the run has no break symbol
    body = e <= n
    at = np.minimum(e, n) - 1
    after = pt.symbols[at].astype(np.int64)
    before = pt.symbols[at - p].astype(np.int64)
    if np.any(body & (after == before)):
        raise AssertionError("no period break at %d"
                             % e[body & (after == before)][0])
    return row - 1, j, e, p, np.where(body & (after > before), 1, -1)


def compute_d_values(pt, tau, positions):
    """Tie-breaker d for each position: type * (n - g) where a run of
    find_runs starts right after it, g the distance to the next member
    or the sentinel, and 0 elsewhere."""
    d = np.zeros(len(positions), dtype=np.int64)
    prev, j, e, _, typ = find_runs(pt, tau, positions)
    after = prev >= 0
    d[prev[after]] = (typ * (pt.n - (e - j - 2 * tau + 2)))[after]
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
