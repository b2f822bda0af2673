"""Construction and validation of string synchronizing sets.

A tau-synchronizing set S of a text T is a subset of [1..n-2tau+1] such
that membership of i depends only on T[i..i+2tau) (consistency), and a
length-tau window [i..i+tau) misses S exactly when the surrounding
fragment T[i..i+3tau-2] has period at most tau/3 (density).

All constructions here follow the same recipe: partition window start
positions by their length-tau substring, assign an integer id to each
class, then insert i whenever the smallest id over [i..i+tau] outside
the highly periodic region Q is attained at i or i+tau.  What differs is
the id assignment: uniformly random (subject to boundary classes coming
first), fully deterministic via a scoring game, or the deterministic
order replayed on representative blocks only, which wins when the
alphabet and tau are small enough that few distinct block contexts
exist.
"""

import heapq
from dataclasses import dataclass, field

import numpy as np

from .packed_text import bulk_keys, extract, substring_period
from .succinct import RankBitvector
from .suffix_core import SuffixArrayIndex

_UNSET = -1


@dataclass(frozen=True)
class PeriodicSets:
    """Boolean masks over [1..n-tau+1] for the sets Q and B.

    Q holds window starts whose length-tau window has period at most
    tau/3; B holds their boundary: positions outside Q where dropping
    the first or last window symbol leaves a highly periodic fragment.
    """

    tau: int
    n: int
    q: np.ndarray
    b: np.ndarray

    @property
    def q_positions(self):
        return np.nonzero(self.q)[0] + 1

    @property
    def b_positions(self):
        return np.nonzero(self.b)[0] + 1


def compute_q_and_b(pt, tau):
    """Block-by-block construction of Q and B.

    Each block of up to ceil(tau/3) positions shares the fragment x just
    right of it; if per(x) is small, the maximal extension of that
    periodicity pins down exactly which block positions are in Q, and B
    picks up at most the two positions hugging the extension.
    """
    n = pt.n
    if tau < 1:
        raise ValueError("tau must be positive")
    nwin = max(n - tau + 1, 0)
    q = np.zeros(nwin, dtype=bool)
    b = np.zeros(nwin, dtype=bool)
    if tau <= 2 or nwin == 0:
        return PeriodicSets(tau, n, q, b)
    s = pt.symbols
    bsize = (tau + 2) // 3
    for i in range(1, nwin + 1, bsize):
        blen = min(bsize, nwin - i + 1)
        p = substring_period(pt, i + blen, tau - 1 - blen)
        if 3 * p > tau:
            continue
        lo = i + blen
        while lo > i and s[lo - 2] == s[lo - 2 + p]:
            lo -= 1
        hi = i + tau - 2
        hi_cap = i + blen + tau - 2
        while hi < hi_cap and s[hi] == s[hi - p]:
            hi += 1
        if hi - lo + 1 < tau - 1:
            continue
        qlo = max(i, lo)
        qhi = min(i + blen - 1, hi - tau + 1)
        if qlo <= qhi:
            q[qlo - 1:qhi] = True
        for cand in (lo - 1, hi - tau + 2):
            if i <= cand <= i + blen - 1:
                b[cand - 1] = True
    b &= ~q
    return PeriodicSets(tau, n, q, b)


def r_mask(psets):
    """Density targets: i in [1..n-3tau+2] with [i..i+2tau) inside Q."""
    tau, n = psets.tau, psets.n
    nr = max(n - 3 * tau + 2, 0)
    if nr == 0:
        return np.zeros(0, dtype=bool)
    qi = psets.q.astype(np.int32)
    csum = np.zeros(len(qi) + 1, dtype=np.int64)
    np.cumsum(qi, out=csum[1:])
    width = 2 * tau
    return (csum[width:width + nr] - csum[:nr]) == width


@dataclass
class IdAssignment:
    """Partition of window starts into substring classes plus their ids.

    Class indices are ranks of the underlying substrings in ascending
    key order, so the canonical processing orders are simply ascending
    class index.  class_keys holds one packed key per class, or None
    when the window does not fit in a single key.
    """

    tau: int
    n: int
    class_of: np.ndarray
    class_keys: np.ndarray
    id_of_class: np.ndarray

    @property
    def n_classes(self):
        return len(self.id_of_class)

    def id_values(self):
        if np.any(self.id_of_class == _UNSET):
            raise ValueError("identifier assignment is incomplete")
        return self.id_of_class[self.class_of]


def _fragment_classes(pt, length, count):
    """Ascending-lexicographic class ids of the length-`length` fragments
    at starts 1..count, plus their packed keys when one key fits.

    Equal fragments share a class either way; beyond the single-key
    capacity the classes come from cutting suffix order wherever the
    common prefix of neighbouring suffixes drops below the length.
    """
    if length * pt.bits_per_symbol <= 62:
        keys = bulk_keys(pt, length, stop=count)
    elif length <= pt.key_cap:
        keys = np.array(
            [extract(pt, i, length).value for i in range(1, count + 1)],
            dtype=object)
    else:
        idx = SuffixArrayIndex(pt.symbols)
        mask = idx.sa <= count
        order = idx.sa[mask]
        inv = np.zeros(count, dtype=np.int64)
        if len(order) > 1:
            ranks = np.nonzero(mask)[0]
            lcp_pad = np.concatenate([idx.lcp, [0]])
            mins = np.minimum.reduceat(lcp_pad, ranks)[:-1]
            inv[order - 1] = np.concatenate([[0], np.cumsum(mins < length)])
        return inv, None
    uniq, inv = np.unique(keys, return_inverse=True)
    return inv.astype(np.int64), uniq


def build_partition(pt, tau):
    n = pt.n
    if not 1 <= tau <= n:
        raise ValueError("tau out of range")
    nwin = n - tau + 1
    class_of, class_keys = _fragment_classes(pt, tau, nwin)
    nc = int(class_of.max()) + 1 if nwin else 0
    ids = np.full(nc, _UNSET, dtype=np.int64)
    return IdAssignment(tau, n, class_of, class_keys, ids)


@dataclass
class SyncSet:
    """Sorted 1-based synchronizing positions with rank support."""

    tau: int
    n: int
    positions: np.ndarray
    _rank: RankBitvector = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.int64)

    def __len__(self):
        return len(self.positions)

    @property
    def sentinel(self):
        return self.n - 2 * self.tau + 2

    def rank_structure(self):
        if self._rank is None:
            bits = np.zeros(self.n, dtype=np.uint8)
            if len(self.positions):
                bits[self.positions - 1] = 1
            self._rank = RankBitvector(bits)
        return self._rank

    def succ(self, i):
        """Smallest member >= i, or the sentinel n-2tau+2 if none."""
        if not 1 <= i <= self.sentinel:
            raise IndexError("succ argument out of range")
        r = self.rank_structure().rank1(i - 1)
        if r == len(self.positions):
            return self.sentinel
        return int(self.positions[r])


def construct_from_ids(pt, tau, ids, psets=None):
    """Evaluate the window-minimum rule for a complete id assignment."""
    n = pt.n
    if psets is None:
        psets = compute_q_and_b(pt, tau)
    nmem = n - 2 * tau + 1
    if nmem <= 0:
        return SyncSet(tau, n, np.zeros(0, dtype=np.int64))
    vals = ids.id_values()
    big = np.int64(2 * n + 2)
    masked = np.where(psets.q, big, vals)
    wmin = np.lib.stride_tricks.sliding_window_view(
        masked, tau + 1).min(axis=1)
    member = (wmin == vals[:nmem]) | (wmin == vals[tau:tau + nmem])
    return SyncSet(tau, n, np.nonzero(member)[0].astype(np.int64) + 1)


def _class_flags(ids, psets):
    """Per-class containment in B and in Q (classes never straddle)."""
    nc = ids.n_classes
    in_b = np.zeros(nc, dtype=bool)
    in_q = np.zeros(nc, dtype=bool)
    bpos = psets.b_positions
    qpos = psets.q_positions
    if len(bpos):
        in_b[ids.class_of[bpos - 1]] = True
    if len(qpos):
        in_q[ids.class_of[qpos - 1]] = True
    if np.any(in_b & in_q):
        raise AssertionError("a class meets both Q and its boundary")
    return in_b, in_q


def _class_position_lists(ids):
    order = np.argsort(ids.class_of, kind="stable")
    counts = np.bincount(ids.class_of, minlength=ids.n_classes)
    starts = np.zeros(ids.n_classes + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return order + 1, starts


def construct_randomized(pt, tau, seed=0, psets=None):
    """Random ids, boundary classes drawing the smallest ones."""
    if psets is None:
        psets = compute_q_and_b(pt, tau)
    ids = build_partition(pt, tau)
    in_b, _ = _class_flags(ids, psets)
    rng = np.random.default_rng(seed)
    bcls = np.nonzero(in_b)[0]
    rest = np.nonzero(~in_b)[0]
    ids.id_of_class[rng.permutation(bcls)] = np.arange(len(bcls))
    ids.id_of_class[rng.permutation(rest)] = len(bcls) + np.arange(len(rest))
    return construct_from_ids(pt, tau, ids, psets)


def _initial_scores(defined, tau, agg, class_of):
    """Scan for maximal undefined runs and score their positions.

    Runs shorter than tau+1 stay inactive.  Within an active run the
    leftmost and rightmost floor(tau/3) positions score -1 and the rest
    +2, which keeps every run's total non-negative.
    """
    nwin = len(defined)
    fl = tau // 3
    score = np.zeros(nwin, dtype=np.int8)
    i = 0
    while i < nwin:
        if defined[i]:
            i += 1
            continue
        j = i
        while j < nwin and not defined[j]:
            j += 1
        if j - i >= tau + 1:
            score[i:i + fl] = -1
            score[j - fl:j] = -1
            score[i + fl:j - fl] = 2
        i = j
    idx = np.nonzero(score)[0]
    np.add.at(agg, class_of[idx], score[idx])
    return score


def construct_deterministic(pt, tau, psets=None):
    """Scored three-phase id assignment, bit-reproducible.

    Boundary classes first, then highly periodic classes, both in
    ascending substring order.  Remaining classes are picked by always
    taking the smallest-substring class whose active positions have a
    non-negative aggregate score.
    """
    if psets is None:
        psets = compute_q_and_b(pt, tau)
    ids = build_partition(pt, tau)
    nwin = len(ids.class_of)
    nc = ids.n_classes
    in_b, in_q = _class_flags(ids, psets)
    pos_sorted, starts = _class_position_lists(ids)
    class_of = ids.class_of
    defined = bytearray(nwin)
    next_id = 0
    for c in np.nonzero(in_b)[0]:
        ids.id_of_class[c] = next_id
        next_id += 1
        for p in pos_sorted[starts[c]:starts[c + 1]]:
            defined[p - 1] = 1
    for c in np.nonzero(in_q)[0]:
        ids.id_of_class[c] = next_id
        next_id += 1
        for p in pos_sorted[starts[c]:starts[c + 1]]:
            defined[p - 1] = 1

    agg = np.zeros(nc, dtype=np.int64)
    score = _initial_scores(defined, tau, agg, class_of)
    processed = in_b | in_q
    fl = tau // 3
    cap = tau + 1

    def score_at(q0):
        if defined[q0]:
            return 0
        a = 0
        while a < cap and q0 - 1 - a >= 0 and not defined[q0 - 1 - a]:
            a += 1
        b = 0
        while b < cap and q0 + 1 + b < nwin and not defined[q0 + 1 + b]:
            b += 1
        if a + b + 1 < tau + 1:
            return 0
        return -1 if (a < fl or b < fl) else 2

    heap = [int(c) for c in np.nonzero(~processed & (agg >= 0))[0]]
    heapq.heapify(heap)
    remaining = int(nc - processed.sum())
    cls_list = class_of.tolist()
    score_l = score.tolist()
    while remaining:
        if not heap:
            raise AssertionError("no class with non-negative score left")
        c = heapq.heappop(heap)
        if processed[c] or agg[c] < 0:
            continue
        processed[c] = True
        remaining -= 1
        ids.id_of_class[c] = next_id
        next_id += 1
        for p in pos_sorted[starts[c]:starts[c + 1]]:
            p0 = p - 1
            was = score_l[p0]
            defined[p0] = 1
            if not was:
                continue
            agg[c] -= was
            score_l[p0] = 0
            for q0 in range(max(0, p0 - tau), min(nwin, p0 + tau + 1)):
                new = score_at(q0)
                old = score_l[q0]
                if new == old:
                    continue
                score_l[q0] = new
                cq = cls_list[q0]
                before = agg[cq]
                agg[cq] = before + new - old
                if (not processed[cq]) and before < 0 <= agg[cq]:
                    heapq.heappush(heap, cq)
    return construct_from_ids(pt, tau, ids, psets)


def packed_fast_applicable(pt, tau):
    n, sigma = pt.n, pt.sigma
    if 4 * tau * (sigma).bit_length() > 62:
        return False
    return sigma ** (5 * tau) <= n


def construct_packed_fast(pt, tau, psets=None):
    """Deterministic construction replayed on representative blocks.

    Positions are grouped into length-tau blocks; blocks sharing their
    4tau-symbol context behave identically, so each scoring round only
    inspects one representative per context and weights its scores by
    the context multiplicity.  Falls back to the plain deterministic
    construction when sigma**(5 tau) exceeds n.  Output is identical
    either way.
    """
    if not packed_fast_applicable(pt, tau):
        return construct_deterministic(pt, tau, psets)
    n = pt.n
    if psets is None:
        psets = compute_q_and_b(pt, tau)
    ids = build_partition(pt, tau)
    nwin = len(ids.class_of)
    nc = ids.n_classes
    in_b, in_q = _class_flags(ids, psets)
    pos_sorted, starts = _class_position_lists(ids)
    class_of = ids.class_of

    nblocks = -(-nwin // tau)
    padded = np.full(n + 4 * tau, pt.sigma, dtype=np.int64)
    padded[2 * tau - 1:2 * tau - 1 + n] = pt.symbols
    ctx = np.zeros(nblocks, dtype=np.int64)
    base = np.arange(nblocks, dtype=np.int64) * tau
    for t in range(4 * tau):
        ctx = ctx * (pt.sigma + 1) + padded[base + t]
    _, rep_blocks, inv = np.unique(ctx, return_index=True, return_inverse=True)
    mult = np.bincount(inv, minlength=len(rep_blocks))

    rep_pos0 = []
    rep_weight = []
    for rb, w in zip(rep_blocks, mult):
        lo = rb * tau
        hi = min(lo + tau, nwin)
        rep_pos0.append(np.arange(lo, hi, dtype=np.int64))
        rep_weight.append(np.full(hi - lo, w, dtype=np.int64))
    rep_pos0 = np.concatenate(rep_pos0)
    rep_weight = np.concatenate(rep_weight)
    rep_class = class_of[rep_pos0]

    defined = np.zeros(nwin, dtype=bool)
    next_id = 0
    for c in np.nonzero(in_b)[0]:
        ids.id_of_class[c] = next_id
        next_id += 1
    for c in np.nonzero(in_q)[0]:
        ids.id_of_class[c] = next_id
        next_id += 1
    phase12 = np.nonzero(in_b | in_q)[0]
    if len(phase12):
        sel = np.isin(class_of, phase12)
        defined[sel] = True

    processed = in_b | in_q
    fl = tau // 3
    idx = np.arange(nwin, dtype=np.int64)
    while not processed.all():
        last_def = np.maximum.accumulate(np.where(defined, idx, -1))
        next_def = nwin - 1 - np.maximum.accumulate(
            np.where(defined[::-1], idx, -1))[::-1]
        runlen = next_def - last_def - 1
        left_off = idx - last_def - 1
        right_off = next_def - idx - 1
        active = ~defined & (runlen >= tau + 1)
        score = np.where(
            active, np.where((left_off < fl) | (right_off < fl), -1, 2), 0)
        agg = np.zeros(nc, dtype=np.int64)
        np.add.at(agg, rep_class, score[rep_pos0] * rep_weight)
        ready = np.nonzero(~processed & (agg >= 0))[0]
        if not len(ready):
            raise AssertionError("no class with non-negative score left")
        c = int(ready[0])
        processed[c] = True
        ids.id_of_class[c] = next_id
        next_id += 1
        defined[pos_sorted[starts[c]:starts[c + 1]] - 1] = True
    return construct_from_ids(pt, tau, ids, psets)


def construct(pt, tau, mode="fast", seed=0):
    if mode == "fast":
        return construct_packed_fast(pt, tau)
    if mode == "det":
        return construct_deterministic(pt, tau)
    if mode == "random":
        return construct_randomized(pt, tau, seed=seed)
    raise ValueError("unknown construction mode %r" % mode)


@dataclass
class ValidationReport:
    ok: bool
    condition: str = None
    witness: tuple = None
    message: str = ""
    probabilistic: bool = False

    def __bool__(self):
        return self.ok


_EXACT_LIMIT = 100_000
_SAMPLE = 50_000


def validate_sync_set(pt, tau, s, exact=None, seed=0):
    """Check the consistency and density conditions.

    Texts with at most 100000 windows are checked exhaustively; larger
    ones are spot-checked on a seeded sample and the report is marked
    probabilistic.  The witness is (i, j) for a consistency violation
    (equal contexts, unequal membership) and (i,) for a density one.
    """
    n = pt.n
    if tau < 1 or 2 * tau > n:
        return ValidationReport(
            False, "structure", None, "tau must satisfy 1 <= tau <= n/2")
    nmem = n - 2 * tau + 1
    pos = np.asarray(s.positions, dtype=np.int64)
    if len(pos) and (pos.min() < 1 or pos.max() > nmem
                     or np.any(np.diff(pos) <= 0)):
        return ValidationReport(
            False, "structure", None,
            "positions must be strictly increasing within [1..n-2tau+1]")
    if exact is None:
        exact = nmem <= _EXACT_LIMIT
    member = np.zeros(nmem, dtype=bool)
    member[pos - 1] = True
    if exact:
        return _validate_exact(pt, tau, member)
    return _validate_sampled(pt, tau, member, seed)


def _validate_exact(pt, tau, member):
    n = pt.n
    nmem = len(member)
    inv = _fragment_classes(pt, 2 * tau, nmem)[0]
    ngroups = int(inv.max()) + 1 if nmem else 0
    hits = np.bincount(inv, weights=member, minlength=ngroups)
    sizes = np.bincount(inv, minlength=ngroups)
    bad = np.nonzero((hits > 0) & (hits < sizes))[0]
    if len(bad):
        grp = np.nonzero(inv == bad[0])[0]
        inside = grp[member[grp]][0] + 1
        outside = grp[~member[grp]][0] + 1
        return ValidationReport(
            False, "consistency", (int(inside), int(outside)),
            "equal 2tau-contexts with unequal membership")
    psets = compute_q_and_b(pt, tau)
    want_empty = r_mask(psets)
    nr = len(want_empty)
    if nr:
        mi = member.astype(np.int32)
        csum = np.zeros(nmem + 1, dtype=np.int64)
        np.cumsum(mi, out=csum[1:])
        have = csum[np.minimum(np.arange(tau, tau + nr), nmem)] - csum[:nr]
        empty = have == 0
        bad = np.nonzero(empty != want_empty)[0]
        if len(bad):
            i = int(bad[0]) + 1
            return ValidationReport(
                False, "density", (i,),
                "window [%d..%d) %s S but position %d is %shighly periodic"
                % (i, i + tau, "misses" if empty[bad[0]] else "meets", i,
                   "" if want_empty[bad[0]] else "not "))
    return ValidationReport(True, message="synchronizing set is valid")


def _validate_sampled(pt, tau, member, seed):
    n = pt.n
    nmem = len(member)
    rng = np.random.default_rng(seed)
    pos = np.nonzero(member)[0] + 1
    take = min(_SAMPLE, len(pos))
    sample = rng.choice(pos, size=take, replace=False) if take else pos
    others = rng.integers(1, nmem + 1, size=_SAMPLE)
    probe = np.unique(np.concatenate([sample, others]))
    if 2 * tau <= pt.key_cap:
        def ctx(i):
            return extract(pt, int(i), 2 * tau).value
    else:
        classes = _fragment_classes(pt, 2 * tau, nmem)[0]

        def ctx(i):
            return int(classes[i - 1])
    keys = {}
    for i in probe:
        k = ctx(i)
        prev = keys.get(k)
        if prev is None:
            keys[k] = int(i)
        elif member[prev - 1] != member[i - 1]:
            pair = (prev, int(i)) if member[prev - 1] else (int(i), prev)
            return ValidationReport(
                False, "consistency", pair,
                "equal 2tau-contexts with unequal membership",
                probabilistic=True)
    nr = n - 3 * tau + 2
    starts = np.unique(rng.integers(1, nr + 1, size=_SAMPLE)) if nr > 0 else []
    csum = np.zeros(nmem + 1, dtype=np.int64)
    np.cumsum(member.astype(np.int64), out=csum[1:])
    for i in starts:
        i = int(i)
        empty = csum[min(i + tau - 1, nmem)] - csum[i - 1] == 0
        periodic = 3 * substring_period(pt, i, 3 * tau - 1) <= tau
        if empty != periodic:
            return ValidationReport(
                False, "density", (i,),
                "window emptiness disagrees with periodicity at %d" % i,
                probabilistic=True)
    return ValidationReport(
        True, message="sampled checks passed", probabilistic=True)


def save_sync_set(s, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# tau=%d n=%d\n" % (s.tau, s.n))
        for p in s.positions:
            fh.write("%d\n" % p)


def load_sync_set(path):
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        fields = header.split()
        if (len(fields) != 3 or fields[0] != "#"
                or not fields[1].startswith("tau=")
                or not fields[2].startswith("n=")):
            raise ValueError("malformed synchronizing set header: %r" % header)
        tau = int(fields[1][4:])
        n = int(fields[2][2:])
        positions = [int(line) for line in fh if line.strip()]
    return SyncSet(tau, n, np.asarray(positions, dtype=np.int64))
