"""Brute-force reference implementations used to validate the fast paths.

Everything here is written directly from definitions and shares no code
with the rest of the package.  The only concession to speed is chunked
slice comparison in naive_lce and a pure-Python doubling suffix sort for
inputs too long to sort by materialized suffixes.
"""


def _as_list(seq):
    if isinstance(seq, str):
        return [ord(c) for c in seq]
    if isinstance(seq, list):
        return seq
    if hasattr(seq, "to_list"):
        return seq.to_list()
    return list(seq)


def naive_suffix_array(seq):
    """1-based suffix array by direct suffix comparison."""
    s = _as_list(seq)
    n = len(s)
    if n > 4000:
        return doubling_suffix_array(s)
    order = sorted(range(n), key=lambda i: s[i:])
    return [i + 1 for i in order]


def doubling_suffix_array(seq):
    """1-based suffix array by rank doubling, still independent code."""
    s = _as_list(seq)
    n = len(s)
    if n == 0:
        return []
    rank = {v: r for r, v in enumerate(sorted(set(s)))}
    r = [rank[v] for v in s]
    k = 1
    while max(r) < n - 1:
        key = [(r[i], r[i + k] if i + k < n else -1) for i in range(n)]
        order = sorted(range(n), key=key.__getitem__)
        nr = [0] * n
        for t in range(1, n):
            nr[order[t]] = nr[order[t - 1]] + (key[order[t]] != key[order[t - 1]])
        r = nr
        k *= 2
    sa = [0] * n
    for i, ri in enumerate(r):
        sa[ri] = i + 1
    return sa


def naive_bwt(seq):
    """(bwt, primary) where primary is the 1-based slot of the position-1
    suffix and bwt[r] is the symbol preceding the r-th smallest suffix,
    with the full text's predecessor taken to be the last symbol."""
    s = _as_list(seq)
    n = len(s)
    sa = naive_suffix_array(s)
    bwt = [s[p - 2] if p > 1 else s[n - 1] for p in sa]
    primary = sa.index(1) + 1
    return bwt, primary


def naive_lce(seq, i, j):
    """Longest common extension of suffixes at 1-based i and j."""
    s = _as_list(seq)
    n = len(s)
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError("suffix index out of range")
    a, b = i - 1, j - 1
    m = 0
    chunk = 64
    limit = n - max(a, b)
    while m < limit:
        c = min(chunk, limit - m)
        if s[a + m:a + m + c] == s[b + m:b + m + c]:
            m += c
            chunk *= 2
            continue
        while s[a + m] == s[b + m]:
            m += 1
        break
    return m


def naive_period(seq):
    """Smallest p >= 1 with X[t] = X[t+p] wherever both sides exist."""
    x = _as_list(seq)
    m = len(x)
    if m == 0:
        raise ValueError("period of the empty string is undefined")
    for p in range(1, m + 1):
        if x[:m - p] == x[p:]:
            return p
    return m


def naive_inversions(a):
    """Quadratic inversion count."""
    a = list(a)
    return sum(
        1 for i in range(len(a)) for j in range(i + 1, len(a)) if a[i] > a[j])


def fenwick_inversions(a):
    """Inversion count with a basic Fenwick tree, independent of the
    package's BWT-based counting."""
    a = list(a)
    if not a:
        return 0
    ranks = {v: r + 1 for r, v in enumerate(sorted(set(a)))}
    size = len(ranks)
    tree = [0] * (size + 1)
    total = 0
    for seen, v in enumerate(a):
        r = ranks[v]
        q = r
        le = 0
        while q:
            le += tree[q]
            q -= q & -q
        total += seen - le
        while r <= size:
            tree[r] += 1
            r += r & -r
    return total


def naive_wavelet_bitvectors(values, b):
    """Dict mapping each internal node label ('' for the root) of the
    wavelet tree of b-bit values to its bitvector."""
    out = {}

    def descend(label, vals):
        d = len(label)
        if d >= b:
            return
        bits = [(v >> (b - 1 - d)) & 1 for v in vals]
        out[label] = bits
        descend(label + "0", [v for v, c in zip(vals, bits) if c == 0])
        descend(label + "1", [v for v, c in zip(vals, bits) if c == 1])

    descend("", list(values))
    return out


def naive_sync_positions_r(seq, tau):
    """Positions i in [1..n-3tau+2] whose length-(3tau-1) window has
    period at most tau/3, straight from the definition."""
    s = _as_list(seq)
    n = len(s)
    out = []
    for i in range(1, n - 3 * tau + 3):
        if 3 * naive_period(s[i - 1:i + 3 * tau - 2]) <= tau:
            out.append(i)
    return out


def naive_q_positions(seq, tau):
    """Positions i in [1..n-tau+1] whose length-tau window has period at
    most tau/3; none below tau = 3, as every period is at least 1."""
    if tau < 3:
        return []
    s = _as_list(seq)
    n = len(s)
    return [i for i in range(1, n - tau + 2)
            if 3 * naive_period(s[i - 1:i + tau - 1]) <= tau]


def naive_b_positions(seq, tau):
    """Boundary positions: i not in Q such that dropping the last or the
    first symbol of the length-tau window leaves a highly periodic one."""
    if tau < 3:
        return []
    s = _as_list(seq)
    n = len(s)
    q = set(naive_q_positions(s, tau))
    out = []
    for i in range(1, n - tau + 2):
        if i in q:
            continue
        if (3 * naive_period(s[i - 1:i + tau - 2]) <= tau
                or 3 * naive_period(s[i:i + tau - 1]) <= tau):
            out.append(i)
    return out


def naive_det_positions(seq, tau):
    """The deterministic synchronizing set, by playing its scoring game.

    Window classes are the distinct length-tau windows in ascending
    order.  Classes meeting B take the first ids, then classes meeting
    Q.  Each round then scores every start from scratch: a maximal run
    of undefined starts of length at least tau+1 scores -1 on its first
    and last floor(tau/3) starts and +2 elsewhere, other starts 0.  The
    smallest unnumbered class whose starts sum to at least 0 takes the
    next id.  Position i joins the set when the smallest id over the
    starts i..i+tau outside Q sits at i or at i+tau.
    """
    s = _as_list(seq)
    n = len(s)
    wins = [tuple(s[i:i + tau]) for i in range(n - tau + 1)]
    rank = {w: r for r, w in enumerate(sorted(set(wins)))}
    cls = [rank[w] for w in wins]
    q = set(naive_q_positions(s, tau))
    ids = {}
    for pos in (naive_b_positions(s, tau), sorted(q)):
        for c in sorted({cls[i - 1] for i in pos}):
            ids.setdefault(c, len(ids))
    while len(ids) < len(rank):
        total = [0] * len(rank)
        run = []
        for c in cls + [None]:
            if c is not None and c not in ids:
                run.append(c)
                continue
            if len(run) >= tau + 1:
                edge = tau // 3
                for j, rc in enumerate(run):
                    total[rc] += -1 if min(j, len(run) - 1 - j) < edge else 2
            run = []
        c = min(c for c in range(len(rank)) if c not in ids and total[c] >= 0)
        ids[c] = len(ids)
    out = []
    for i in range(1, n - 2 * tau + 2):
        free = {j: ids[cls[j - 1]] for j in range(i, i + tau + 1)
                if j not in q}
        if free and min(free.values()) in (free.get(i), free.get(i + tau)):
            out.append(i)
    return out
