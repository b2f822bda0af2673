"""Burrows-Wheeler transform built from a synchronizing set.

The pipeline compares whole suffixes only at synchronizing positions: it
sorts those suffixes through the reduced string.  The set is the
randomized construction with seed 0, which is valid for every seed and
the same on every run; meta["sync_size"] is its size.  One encoding
of the text, window_keys(pt, 3tau, n), the base-sigma key of every
window T[i..i+3tau), serves all three stages: the set's tau-window keys
are its first tau digits, the reduced string ranks the members' rows,
and the emission sort's column is built over the keys in place.  Every
suffix T[i..] sorts first by its window T[i..i+3tau-1), cut at the text
end, then by the window length.  By consistency, positions that share a
full prefix T[i..succ(i)+2tau) with succ(i) less than tau ahead share
the offset succ(i) - i, so the rank of succ(i) among the sorted
synchronizing suffixes breaks their ties.  One sort of all n positions
on (window, length, rank) thus emits the transform.  While the three
fields fit 62 bits they pack into one int64 per position in the keys'
own buffer, with the ranks in int32 and the lengths a constant fixed on
the last 3tau-2 rows, so that besides that buffer only the sort's own
arrays hold 8 bytes a position.  A position with no
synchronizing position within tau ahead either starts a short suffix at
the text end, which its window decides, or, by density, a highly
periodic window of length 3tau-1.  Those windows form one block per
label, and the block's rows lie in periodic runs of one period and
phase.  They order by the reduced string's run key d = type * (n - L),
L the distance to the break and type -1 or +1 as the period breaks
downward or upward, so L ascends for a downward break and descends for
an upward one, then by the rank of the member just past the break,
which the equal periodic stretches leave to decide.
One more sort of the block rows on those fields places them exactly.  A
plain suffix array, the naive backend, covers inputs too small or too
wide for the packed pipeline.  Both backends give the sorted suffix
starts, and build_bwt alone reads the transform out of them: one gather
from the text rotated by one symbol, in the text's own dtype, with the
whole text's row as the primary index.
"""

import numpy as np

from .lce_index import resolve_tau
from .packed_text import _drop_digits, pack_columns, sort_rows, window_keys
from .suffix_core import SuffixArrayIndex
from .sync_set import construct
from .sync_sort import sort_sync_suffixes

# rows per Python step of invert_bwt, a power of two: its walk takes
# ceil(n / JUMP) steps on LF^JUMP, JUMP gathers of that many rows expand
# them, and squaring LF log2(JUMP) times costs as many n-row gathers
JUMP = 32


class BwtResult:
    """Transformed symbols, the rank of the whole text, and metadata."""

    __slots__ = ("bwt", "primary_index", "meta")

    def __init__(self, bwt, primary_index, meta):
        self.bwt = np.asarray(bwt)
        self.primary_index = int(primary_index)
        self.meta = dict(meta)

    def __len__(self):
        return len(self.bwt)


def _sort_keys(pt, tau, s, rank, keys):
    """The emission sort's columns and the flags of its block rows.

    Each row i sorts by its window, the window's length and its tie.
    The window is T[i..i+3tau-1) cut at the text end, as a base-sigma key
    zero-padded to 3tau-1 digits: keys, the 3tau-window keys of every
    start, divided by sigma in place.  The length is min(3tau-1,
    n+1-i), 3tau-1 on all but the last 3tau-2 rows.  The tie is the rank
    of succ(i) among the sorted synchronizing suffixes when succ(i) lies
    less than tau ahead, and 0 otherwise; rank holds the members' ranks,
    from 1, and a trailing 0.  The ties come from one np.repeat: before
    each member, its rank on the last min(gap, tau) rows of the gap from
    the previous member and 0 on the rest.  While the three fields fit
    one int64, the column is ((window * 3tau + length) * (|S|+1) + tie),
    built in place over keys; wider fields take pack_columns.  A row is
    a block row when its tie is 0 and its window full.
    """
    n, m = pt.n, len(s)
    cap = 3 * tau - 1
    key = _drop_digits(keys, pt.sigma, 1, keys)
    gaps = np.diff(s.positions, prepend=0)
    near = np.minimum(gaps, tau)
    counts = np.empty(2 * m + 1, dtype=np.int64)
    counts[:-1:2] = gaps - near
    counts[1::2] = near
    counts[-1] = n - gaps.sum()
    vals = np.zeros(2 * m + 1, dtype=rank.dtype)
    vals[1::2] = rank[:-1]
    tie = np.repeat(vals, counts)
    block = tie == 0
    block[n - cap + 1:] = False
    # cap - length on the last cap - 1 rows
    short = np.arange(1, cap)
    if pt.sigma ** cap * (cap + 1) * (m + 1) > 1 << 62:
        length = np.full(n, cap, dtype=np.uint8)
        length[n - cap + 1:] -= short.astype(np.uint8)
        return pack_columns([(key, pt.sigma ** cap), (length, cap + 1),
                             (tie, m + 1)], n), block
    key *= (cap + 1) * (m + 1)
    key += cap * (m + 1)
    key[n - cap + 1:] -= short * (m + 1)
    key += tie
    return [key], block


def _emit_blocks(pt, tau, s, isa, runs, keys):
    """Sort all suffixes by their sort keys.

    isa holds the members' 0-based ranks among the sorted synchronizing
    suffixes, runs the find_runs arrays of the set, and keys the
    3tau-window keys of every start, which the sort column overwrites.
    Returns the 0-based start of the suffix in every row.
    """
    n, m = pt.n, len(s)
    cap = 3 * tau - 1
    rank = np.zeros(m + 1, dtype=np.int32 if m < 1 << 31 else np.int64)
    np.add(isa, 1, out=rank[:-1])
    cols, block = _sort_keys(pt, tau, s, rank, keys)
    # rows tie only inside periodic blocks, which are re-sorted below,
    # so the sort need not be stable
    sa = sort_rows(cols)
    slots = np.flatnonzero(block[sa])
    del block

    # far from every member, a full window is highly periodic (density);
    # rows sharing such a label share the run's period and phase, so they
    # order by the reduced string's d = type * (n - L), L the distance to
    # the break, then the suffix at the member b = e - 2tau + 1 after it,
    # which the equal T[i..e) leaves
    if len(slots):
        rows = sa[slots]
        # a label's block rows are adjacent in sa, and their columns
        # differ only in the window, so a new label is a changed column
        new = np.zeros(len(rows), dtype=bool)
        for col in cols:
            vals = col[rows]
            new[1:] |= vals[1:] != vals[:-1]
        seg = np.cumsum(new)
        prev, j, e, _, typ = runs
        r = np.searchsorted(j, rows + 1, side="right") - 1
        if np.any(r < 0) or np.any(e[r] - rows - 1 < cap):
            raise AssertionError("periodic block row outside every run")
        # type -1 rows read d + n = L <= n, type +1 rows 2n - L > n, since
        # L = n only where a type -1 run covers the text; past the last
        # member b is the sentinel, which only the text-end run reaches
        d = typ[r] * (n - (e[r] - rows - 1))
        brank = rank[prev[r] + 1]
        sa[slots] = rows[sort_rows(pack_columns(
            [(seg, int(seg[-1]) + 1), (d + n, 2 * n + 1),
             (brank, m + 1)], len(rows)))]
    return sa


def build_bwt(pt, tau=None, force_naive=False):
    """Transform the text, preferring the synchronizing-set pipeline.

    >>> from .packed_text import pack
    >>> res = build_bwt(pack([1, 0, 2, 0, 2, 0], 3))
    >>> [int(c) for c in res.bwt], res.primary_index
    ([2, 2, 1, 0, 0, 0], 4)
    """
    n = pt.n
    tau = resolve_tau(tau, n, pt.sigma)
    if force_naive or n < 3 * tau - 1 or 3 * tau * pt.bits_per_symbol > 62:
        index = SuffixArrayIndex(pt.symbols[:n], with_lcp=False)
        sa, rounds = index.sa0, index.rounds
        # its ranks go before the read-out's gather
        del index
        size, pipeline = 0, "naive-fallback"
    else:
        keys = window_keys(pt, 3 * tau, n)
        s = construct(pt, tau, mode="random", seed=0, keys=keys)
        tp, reduced = sort_sync_suffixes(pt, s, with_lcp=False,
                                         keys=keys[s.positions - 1])
        isa, runs, rounds = reduced.isa0, tp.runs, reduced.rounds
        # the reduced string and its suffix array are done with
        del tp, reduced
        sa = _emit_blocks(pt, tau, s, isa, runs, keys)
        size, pipeline = len(s), "sync"
    # each row holds the symbol before its suffix, the whole text's row
    # T[n]: a gather from the text rotated by one, which concatenate
    # builds some 10 us faster than np.roll
    sym = pt.symbols
    bwt = np.concatenate((sym[n - 1:n], sym[:n - 1]))[sa]
    primary = int(sa.argmin()) + 1
    meta = {"n": n, "sigma": pt.sigma, "tau": tau, "primary_index": primary,
            "sync_size": size, "pipeline": pipeline, "rounds": rounds}
    bwt = bwt.astype(np.uint8 if pt.sigma <= 256 else np.int64, copy=False)
    return BwtResult(bwt, primary, meta)


def invert_bwt(res):
    """Recover the text by walking the last-to-first mapping backwards.

    The text read backwards is bwt[r] over the rows r = LF^t(p - 1),
    t = 0..n-1, of the 0-based last-to-first mapping LF.  LF is a
    permutation for every input, a corrupt (bwt, p) pair too: the stable
    ranks are one, and the primary slot's correction rotates one symbol's
    bucket.  So LF^JUMP, LF squared log2(JUMP) times, is one as well,
    and one Python step on it per JUMP rows gives the rows t = 0, JUMP,
    2 JUMP, ...; JUMP vectorised gathers through LF fill in the rows
    between them.  The last m * JUMP - n rows walked, m = ceil(n / JUMP),
    lie past the text's first symbol; they fill the front of the output
    buffer, which the returned view leaves out.
    """
    bwt = np.asarray(res.bwt)
    if bwt.dtype.kind not in "iu" or bwt.dtype == np.uint64:
        bwt = np.asarray(res.bwt, dtype=np.int64)
    n = len(bwt)
    p = int(res.primary_index)
    if not 1 <= p <= n:
        raise ValueError("primary index out of range")
    c = bwt[p - 1]
    # stable ranks in the symbols' own dtype, which numpy radix sorts at
    # 8 and 16 bits; entries above the primary slot with its symbol shift
    # one rank down, and the slot takes the first rank of its symbol
    lf = np.empty(n, dtype=np.int64)
    lf[np.argsort(bwt, kind="stable")] = np.arange(n)
    lf[:p - 1] += bwt[:p - 1] == c
    lf[p - 1] = np.count_nonzero(bwt < c)
    jump = lf
    for _ in range(JUMP.bit_length() - 1):
        jump = jump[jump]
    m = -(-n // JUMP)
    # rows[k] is the row of step (m - 1 - k) * JUMP, so that the buffer
    # fills back to front and the text reads forward
    rows = [0] * m
    step = jump.item
    i = p - 1
    for k in range(m - 1, -1, -1):
        rows[k] = i
        i = step(i)
    del jump
    cur = np.array(rows, dtype=np.int64)
    out = np.empty(m * JUMP, dtype=np.int64)
    for j in range(JUMP - 1, -1, -1):
        out[j::JUMP] = bwt[cur]
        cur = lf[cur]
    return out[m * JUMP - n:]


def write_bwt(res, path, meta_path):
    """Raw symbol bytes plus an ASCII key=value sidecar."""
    arr = np.asarray(res.bwt)
    if arr.size and int(arr.max()) > 255:
        raise ValueError("symbols beyond byte range")
    with open(path, "wb") as fh:
        fh.write(arr.astype(np.uint8).tobytes())
    meta = dict(res.meta)
    meta["primary_index"] = res.primary_index
    with open(meta_path, "w") as fh:
        for key in ("n", "sigma", "tau", "primary_index", "sync_size",
                    "pipeline"):
            if key in meta:
                fh.write("%s=%s\n" % (key, meta[key]))


def read_bwt(path, meta_path):
    """Load a transform written by write_bwt."""
    meta = {}
    with open(meta_path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("malformed metadata line: %r" % line)
            key, _, val = line.partition("=")
            try:
                meta[key] = int(val)
            except ValueError:
                meta[key] = val
    for key in ("n", "sigma", "primary_index"):
        if not isinstance(meta.get(key), int):
            raise ValueError("metadata needs an integer %r" % key)
    with open(path, "rb") as fh:
        data = np.frombuffer(fh.read(), dtype=np.uint8)
    if len(data) != meta["n"]:
        raise ValueError("payload length disagrees with metadata")
    if not 1 <= meta["primary_index"] <= meta["n"]:
        raise ValueError("primary index %d outside [1..%d]"
                         % (meta["primary_index"], meta["n"]))
    if len(data) and int(data.max()) >= meta["sigma"]:
        raise ValueError("payload symbol %d outside the alphabet [0..%d)"
                         % (int(data.max()), meta["sigma"]))
    return BwtResult(np.array(data), meta["primary_index"], meta)
