"""Burrows-Wheeler transform built from a synchronizing set.

The pipeline compares whole suffixes only at synchronizing positions: it
sorts those suffixes through the reduced string.  The set is the
randomized construction with seed 0, which is valid for every seed and
the same on every run; meta["sync_size"] is its size.  Every other
suffix T[i..] sorts first by its window T[i..i+3tau-1), cut at the text
end, then by the window length.  By consistency, positions that share a
full prefix T[i..succ(i)+2tau) with succ(i) less than tau ahead share
the offset succ(i) - i, so the rank of succ(i) among the sorted
synchronizing suffixes breaks their ties.  One sort of all n positions
on (window, length, rank) thus emits the transform.  A position with no
synchronizing position within tau ahead either starts a short suffix at
the text end, which its window decides, or, by density, a highly
periodic window of length 3tau-1.  Those windows form one block per
label; a block is filled with the period symbol and its run-start slots
are patched by a rank computation over the periodic runs.  A plain
suffix-array fallback covers inputs too small or too wide for the packed
pipeline.
"""

from functools import cmp_to_key

import numpy as np

from .lce_index import LceIndex, default_tau
from .packed_text import (dense_ranks, pack_columns, short_periods, sort_rows,
                          window_keys, window_radices)
from .suffix_core import SuffixArrayIndex
from .sync_set import construct
from .sync_sort import sort_sync_suffixes


class BwtResult:
    """Transformed symbols, the rank of the whole text, and metadata."""

    __slots__ = ("bwt", "primary_index", "meta")

    def __init__(self, bwt, primary_index, meta):
        self.bwt = np.asarray(bwt)
        self.primary_index = int(primary_index)
        self.meta = dict(meta)

    def __len__(self):
        return len(self.bwt)


def _sort_keys(pt, tau, s, order):
    """Per-position sort keys: window, window length, successor rank.

    The window is T[i..i+3tau-1) cut at the text end, as a base-sigma key
    zero-padded to 3tau-1 digits.  The rank is that of succ(i) among the
    sorted synchronizing suffixes when succ(i) lies less than tau ahead,
    and 0 otherwise.
    """
    n = pt.n
    cap = 3 * tau - 1
    key = window_keys(pt, cap, n)[0]
    pos = np.arange(1, n + 1, dtype=np.int64)
    k = np.searchsorted(s.positions, pos)
    # past the last member the successor reads as n + tau, never near
    near = np.append(s.positions, n + tau)[k] - pos < tau
    tie = np.where(near, np.append(order.rank_of_index, 0)[k], 0)
    return key, np.minimum(cap, n + 1 - pos), tie


def _emit_blocks(pt, tau, s, order):
    """Sort all suffixes by their sort keys, emitting the unpatched output.

    Returns the output array, the block base offset of every periodic
    leaf label, and the slot of the whole-text suffix unless it lies in
    a periodic block, where only the run correction can place it.
    """
    cap = 3 * tau - 1
    key, length, tie = _sort_keys(pt, tau, s, order)
    # rows tie only inside periodic blocks, whose slots are refilled with
    # the period symbol and then patched, so the sort need not be stable
    sa0 = sort_rows(pack_columns(
        [(key, window_radices(pt.sigma, cap)[0]), (length, cap + 1),
         (tie, len(s) + 1)], pt.n))
    bwt = pt.symbols[sa0 - 1].astype(np.int64)

    # far from every member, a full window is highly periodic (density):
    # its block is filled with the period symbol and patched at run starts
    blk = ((tie == 0) & (length == cap))[sa0]
    skey = key[sa0]
    first = blk.copy()
    first[1:] &= ~(blk[:-1] & (skey[1:] == skey[:-1]))
    starts = np.nonzero(first)[0]
    labels = skey[starts]
    # inside a run T[i-1] = T[i+p-1], read at the block's first position
    p = short_periods(pt, sa0[starts] + 1, cap, tau // 3)
    if np.any(p == 0):
        raise AssertionError("periodic block label without a short period")
    fill = pt.symbols[sa0[starts] + p - 1]
    bwt[blk] = fill[np.cumsum(first)[blk] - 1]
    slot1 = int(np.nonzero(sa0 == 0)[0][0])
    primary = None if blk[slot1] else slot1 + 1
    return bwt, dict(zip(labels.tolist(), starts.tolist())), primary


# one row per periodic run, as derive_runs describes
RUN = np.dtype([(f, np.int64) for f in
                ("j", "e", "p", "type", "root", "delta", "k", "u2")])


def derive_runs(pt, tprime):
    """The periodic runs that build_tprime found, each with its Lyndon root.

    Returns a RUN array with one row per run, and the root words by
    root id.  Besides j, e, p and type from find_runs a row holds root,
    the id of the run's root U, the smallest rotation of its period
    word T[j..j+p); delta, the rotation with T[j+delta..j+delta+p) = U;
    and k and u2 with e - j = delta + k*p + u2, 0 <= u2 < p.  Ids number
    the distinct roots in order of first appearance.
    """
    _, j, e, p, typ = tprime.runs
    m = len(j)
    if not m:
        return np.empty(0, dtype=RUN), []
    pm = int(p.max())
    # rotation r < p starts at j+r; its first pm >= p symbols order it as
    # its p symbols do, since the run repeats the period word past them,
    # and with p they name the root.  pm <= tau/3 keeps them in the run.
    r = np.arange(pm)[:, None]
    rot = window_keys(pt, pm, (j + r).ravel())[0].reshape(pm, m)
    rot[r >= p] = np.iinfo(np.int64).max
    delta = rot.argmin(axis=0)
    k, u2 = np.divmod(e - j - delta, p)
    if np.any(k < 1):
        raise AssertionError("run at %d shorter than its period"
                             % j[k < 1][0])
    _, first, inv = np.unique(rot[delta, np.arange(m)] * (pm + 1) + p,
                              return_index=True, return_inverse=True)
    seen = np.sort(first)
    roots = [tuple(pt.symbols[a:a + q].tolist())
             for a, q in zip((j - 1 + delta)[seen], p[seen])]
    runs = np.empty(m, dtype=RUN)
    for name, col in zip(RUN.names, (j, e, p, typ, dense_ranks([first[inv]]),
                                     delta, k, u2)):
        runs[name] = col
    return runs, roots


def offline_range_count(points, queries):
    """counts[q] = number of points with x >= x_min(q) and y <= y_max(q).

    >>> offline_range_count([(1, 1), (2, 2)], [(1, 2)])
    [2]
    """
    ys = sorted({y for _, y in points})
    comp = {y: i + 1 for i, y in enumerate(ys)}
    tree = [0] * (len(ys) + 1)

    def add(i):
        while i <= len(ys):
            tree[i] += 1
            i += i & (-i)

    def pref(i):
        t = 0
        while i > 0:
            t += tree[i]
            i -= i & (-i)
        return t

    pts = sorted(points, key=lambda t: t[0], reverse=True)
    out = [0] * len(queries)
    ptr = 0
    for q in sorted(range(len(queries)), key=lambda q: queries[q][0],
                    reverse=True):
        xmin, ymax = queries[q]
        while ptr < len(pts) and pts[ptr][0] >= xmin:
            add(comp[pts[ptr][1]])
            ptr += 1
        r = np.searchsorted(ys, ymax, side="right")
        out[q] = pref(int(r))
    return out


def _phase_tables(a, kk, dlt, p, t, cap):
    # valid exponents of one run form [A..B]; A from the length floor cap,
    # B from the run start; prefix sums let rank sums close in O(log)
    A = np.maximum(1, -((cap - t - a) // -p))
    B = kk - (t > dlt)
    w = np.maximum(0, B - A + 1)
    ls = np.sort(A)
    rs = np.sort(A + w)
    lp = np.concatenate([[0], np.cumsum(ls)])
    rp = np.concatenate([[0], np.cumsum(rs)])
    return ls, lp, rs, rp, int(w.sum())


def _ramp_sum(tables, kq):
    # sum over runs of max(0, min(kq, R) - L)
    ls, lp, rs, rp, _ = tables
    ir = int(np.searchsorted(rs, kq, side="right"))
    il = int(np.searchsorted(ls, kq, side="left"))
    return int(rp[ir]) - kq * ir + kq * il - int(lp[il])


def correct_periodic(pt, tau, runs, bwt, bases, lce):
    """Patch the run-start slots of the filled blocks, in place.

    runs is the RUN array of derive_runs.  bases maps the integer key
    of each periodic leaf label to the output offset of its block, and
    lce answers the tail comparisons.  Returns the slot of the
    whole-text suffix when position 1 starts a run, else None.
    """
    if not len(runs):
        return None
    n = pt.n
    cap = 3 * tau - 1
    uniq_e = np.unique(runs["e"]).tolist()
    body = [e for e in uniq_e if e <= n]

    def cmp(ea, eb):
        if ea == eb:
            return 0
        la, lb = n - ea + 1, n - eb + 1
        ell = lce.query(ea, eb)
        if ell >= la or ell >= lb:
            return -1 if la < lb else 1
        return -1 if pt.char_at(ea + ell) < pt.char_at(eb + ell) else 1

    ordered = [e for e in uniq_e if e > n] + sorted(body, key=cmp_to_key(cmp))
    tr = {e: i for i, e in enumerate(ordered)}

    m = len(runs)
    rid, typ, dlt, kk, u2 = (runs[f] for f in
                             ("root", "type", "delta", "k", "u2"))
    tailr = np.array([tr[e] for e in runs["e"].tolist()], dtype=np.int64)
    x = dlt + kk * runs["p"]
    rprime = np.zeros(m, dtype=np.int64)

    for root_val, at in zip(*np.unique(rid, return_index=True)):
        p = int(runs["p"][at])
        for sign in (-1, 1):
            grp = np.nonzero((rid == root_val) & (typ == sign))[0]
            if not len(grp):
                continue
            # list order realizes the suffix order of equal-exponent
            # members: ascending tail break for sign -1, descending for +1
            key2 = u2[grp] if sign < 0 else -u2[grp]
            lorder = grp[np.lexsort((tailr[grp], key2))]
            pos_of = {int(g): i for i, g in enumerate(lorder)}
            points = [(int(x[g]), pos_of[int(g)]) for g in grp]
            queries = []
            qmap = []
            u2_sorted = u2[lorder]
            for g in grp:
                queries.append((int(x[g]), pos_of[int(g)]))
                qmap.append((int(g), 1))
                if sign < 0:
                    # equal-exponent members shorter than the label
                    # cannot exist; drop list entries below the floor
                    beta = cap - int(x[g])
                    ylo = int(np.searchsorted(u2_sorted, beta, side="left"))
                    if ylo > 0:
                        queries.append((int(x[g]), ylo - 1))
                        qmap.append((int(g), -1))
            counts = offline_range_count(points, queries)
            for (g, w_), c in zip(qmap, counts):
                rprime[g] += w_ * c

        neg = np.nonzero((rid == root_val) & (typ == -1))[0]
        pos = np.nonzero((rid == root_val) & (typ == 1))[0]
        tables = {}

        def tabs(tag, sel, t):
            if (tag, t) not in tables:
                tables[tag, t] = _phase_tables(u2[sel], kk[sel], dlt[sel],
                                               p, t, cap)
            return tables[tag, t]

        for g in neg:
            rprime[g] += _ramp_sum(tabs(-1, neg, int(dlt[g])), int(kk[g]))
        for g in pos:
            t = tabs(1, pos, int(dlt[g]))
            rprime[g] += t[4] - _ramp_sum(t, int(kk[g]) + 1)
            rprime[g] += tabs(-1, neg, int(dlt[g]))[4]

    if cap * pt.bits_per_symbol > 62:
        raise AssertionError("periodic block labels wider than one key")
    # a run start's window is full: the run covers 3tau-1 symbols from it
    leaf_keys = window_keys(pt, cap, runs["j"])[0]
    primary_slot = None
    for key, j, rp in zip(leaf_keys.tolist(), runs["j"].tolist(),
                          rprime.tolist()):
        if key not in bases:
            raise AssertionError("no block recorded for run at %d" % j)
        slot = bases[key] + rp
        if j == 1:
            primary_slot = slot
        else:
            bwt[slot - 1] = pt.symbols[j - 2]
    return primary_slot


def _naive_result(pt, tau, reason="naive-fallback"):
    sym = np.asarray(pt.symbols, dtype=np.int64)
    idx = SuffixArrayIndex(sym)
    sa = idx.sa
    bwt = sym[sa - 2]
    primary = int(np.nonzero(sa == 1)[0][0]) + 1
    meta = {"n": pt.n, "sigma": pt.sigma, "tau": int(tau),
            "primary_index": primary, "sync_size": 0, "pipeline": reason}
    if pt.sigma <= 256:
        bwt = bwt.astype(np.uint8)
    return BwtResult(bwt, primary, meta)


def build_bwt(pt, tau=None, force_naive=False):
    """Transform the text, preferring the synchronizing-set pipeline.

    >>> from .packed_text import pack
    >>> res = build_bwt(pack([1, 0, 2, 0, 2, 0], 3))
    >>> [int(c) for c in res.bwt], res.primary_index
    ([2, 2, 1, 0, 0, 0], 4)
    """
    n = pt.n
    if tau is None:
        tau = default_tau(n, pt.sigma)
    tau = int(tau)
    if tau < 1:
        raise ValueError("tau must be positive")
    if force_naive or n < 3 * tau - 1 or 3 * tau * pt.bits_per_symbol > 62:
        return _naive_result(pt, tau)
    s = construct(pt, tau, mode="random", seed=0)
    order = sort_sync_suffixes(pt, s)
    bwt, bases, primary = _emit_blocks(pt, tau, s, order)
    runs, _ = derive_runs(pt, order.tprime)
    if len(runs):
        lce = LceIndex(pt, tau, sync=s, order=order)
        slot = correct_periodic(pt, tau, runs, bwt, bases, lce)
        if slot is not None:
            if primary is not None:
                raise AssertionError("whole-text suffix placed twice")
            primary = slot
    if primary is None:
        raise AssertionError("whole-text suffix slot never located")
    bwt[primary - 1] = pt.char_at(n)
    meta = {"n": n, "sigma": pt.sigma, "tau": tau,
            "primary_index": primary, "sync_size": len(s),
            "pipeline": "sync", "range_count": "fenwick"}
    if pt.sigma <= 256:
        bwt = bwt.astype(np.uint8)
    return BwtResult(bwt, primary, meta)


def invert_bwt(res):
    """Recover the text by walking the last-to-first mapping backwards."""
    bwt = np.asarray(res.bwt, dtype=np.int64)
    n = len(bwt)
    p = int(res.primary_index)
    if not 1 <= p <= n:
        raise ValueError("primary index out of range")
    counts = np.bincount(bwt)
    csum = np.concatenate([[0], np.cumsum(counts)])
    order = np.argsort(bwt, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    lf = rank + 1
    # entries above the primary slot with its symbol shift one rank down
    lf[(np.arange(n) < p - 1) & (bwt == bwt[p - 1])] += 1
    lf[p - 1] = int(csum[bwt[p - 1]]) + 1
    out = np.zeros(n, dtype=np.int64)
    lf_l = lf.tolist()
    bwt_l = bwt.tolist()
    i = p
    for k in range(n - 1, -1, -1):
        out[k] = bwt_l[i - 1]
        i = lf_l[i - 1]
    return out


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
                    "pipeline", "range_count"):
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
