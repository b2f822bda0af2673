"""Sorting the suffixes that start at synchronizing positions.

Each synchronizing position contributes one symbol of a reduced string:
the fragment of length up to 3tau starting there, ordered by its
symbols zero-padded past the text end and then by its length, plus a
tie-breaking integer d that accounts for long highly periodic runs.
Sorting the suffixes of the reduced string then sorts the original
suffixes at the synchronizing positions, and the reduced string's LCP
array gives their common extensions in members.  The fragment keys are
the members' rows of window_keys(pt, 3tau, n), which build_bwt and
LceIndex encode once per build and pass in where the 3tau symbols fit
one key column; without them build_tprime reads each fragment as
consecutive windows of one key column each.
"""

from dataclasses import dataclass

import numpy as np

from .packed_text import (_column_symbols, dense_ranks, pack_columns,
                          window_keys)
from .suffix_core import build_suffix_array


@dataclass
class TPrimeString:
    """Reduced string, one symbol per member, and its find_runs arrays."""

    symbols: np.ndarray
    d_values: np.ndarray
    runs: tuple

    def __len__(self):
        return len(self.symbols)


def find_runs(pt, tau, positions):
    """The highly periodic runs across gaps longer than tau, as arrays.

    Consecutive members a < b of the set, with 0 before the first and
    the sentinel n-2tau+2 after the last, more than tau apart bound a
    run T[j..e) with j = a+1 and e = b+2tau-1: by density T[j..j+3tau-1)
    has period p <= tau/3, and p extends to the break at e.  p is the
    smallest q <= tau/3 with T[k] = T[k+q] all along that fragment, the
    symbol equalities compute_q_and_b tests; by Fine and Wilf every
    other period up to tau/3 is a multiple of it.  Returns
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
    frag = np.lib.stride_tricks.sliding_window_view(
        pt.symbols[:n], 3 * tau - 1)[j - 1]
    p = np.zeros(len(row), dtype=np.int64)
    # descending, so that the smallest period is written last
    for q in range(tau // 3, 0, -1):
        p[(frag[:, q:] == frag[:, :-q]).all(axis=1)] = q
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


def build_tprime(pt, s, keys=None):
    """Encode the reduced string for a synchronizing set.

    Members rank by the fragment T[i..i+3tau) zero-padded past the text
    end, then by the fragment length, then by d, type * (n - g) when a
    run of find_runs starts right after the member, g the distance to
    the next member or the sentinel, and 0 otherwise.  Equal triples
    share a symbol, found by one sort of the fields packed into as few
    int64 columns as they need.  The fragment keys are keys, the
    members' rows of window_keys(pt, 3tau, n), when the caller has them.
    Otherwise each fragment is read as the windows of w = min(3tau, c)
    symbols at offsets 0, w, 2w, ..., c one key column's symbols, from
    one window_keys array, the last window cut to its first 3tau mod w
    symbols; each window is one field of radix sigma**w, the cut one of
    radix sigma**(3tau mod w).
    """
    n, tau = pt.n, s.tau
    sp = np.asarray(s.positions, dtype=np.int64)
    m = len(sp)
    runs = find_runs(pt, tau, sp)
    prev, j, e, _, typ = runs
    after = prev >= 0
    d = np.zeros(m, dtype=np.int64)
    d[prev[after]] = (typ * (n - (e - j - 2 * tau + 2)))[after]
    if m == 0:
        return TPrimeString(np.zeros(0, dtype=np.int64), d, runs)
    width, sigma = 3 * tau, pt.sigma
    if keys is None:
        w = min(width, _column_symbols(sigma))
        text_keys = window_keys(pt, w, int(sp[-1]) + width)
        fields = [(text_keys[sp - 1 + o], sigma ** w)
                  for o in range(0, width, w)]
        cut = width % w
        if cut:
            fields[-1] = (fields[-1][0] // sigma ** (w - cut), sigma ** cut)
    else:
        fields = [(keys, sigma ** width)]
    fields += [(np.minimum(width, n + 1 - sp), width + 1), (d + n, 2 * n + 1)]
    reduced = dense_ranks(pack_columns(fields, m))
    return TPrimeString(reduced, d, runs)


def sort_sync_suffixes(pt, s, with_lcp=True, keys=None):
    """Sort the text suffixes starting at synchronizing positions.

    Returns the reduced string and its SuffixArrayIndex, whose sa lists
    member indices (1-based) in suffix order and whose isa gives each
    member's rank; the index holds the LCP array unless with_lcp is
    False.  keys, if given, are the members' one-column 3tau-window
    keys, which build_tprime then reads instead of encoding its own.
    """
    tp = build_tprime(pt, s, keys)
    return tp, build_suffix_array(tp.symbols, with_lcp)
