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
first), or deterministic via a scoring game.  The game has two paths,
the scoring loop and its replay on representative blocks, which wins
when the alphabet and tau are small enough that few distinct block
contexts exist.  Both start from one set-up (_det_setup) and score by
one rule (_scores); the loop updates scores locally with score_at.
"""

import heapq
from dataclasses import dataclass, field

import numpy as np

from .packed_text import dense_ranks, window_keys
from .succinct import RankBitvector
from .suffix_core import SuffixArrayIndex


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
    """Q and B from one cumulative count of T[k] == T[k+p] per period p.

    A window of length L has period at most p exactly when all of its
    L - p equalities T[k] == T[k+p] hold, so for each p <= tau/3 a
    difference of prefix counts tests every window start at once: the
    length-tau windows for Q, the length-(tau-1) windows at i and i+1
    for B.
    """
    n = pt.n
    if tau < 1:
        raise ValueError("tau must be positive")
    nwin = max(n - tau + 1, 0)
    q = np.zeros(nwin, dtype=bool)
    if tau <= 2 or nwin == 0:
        return PeriodicSets(tau, n, q, q.copy())
    s = pt.symbols
    short = np.zeros(nwin + 1, dtype=bool)
    csum = np.zeros(n, dtype=np.int32)
    for p in range(1, tau // 3 + 1):
        np.cumsum(s[p:] == s[:-p], out=csum[1:n - p + 1])
        q |= csum[tau - p:tau - p + nwin] - csum[:nwin] == tau - p
        short |= csum[tau - 1 - p:tau - p + nwin] - csum[:nwin + 1] \
            == tau - 1 - p
    b = (short[:-1] | short[1:]) & ~q
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


def _fragment_classes(pt, length, count):
    """Ascending-lexicographic class ids of the length-`length` fragments
    at starts 1..count.

    Up to the key capacity the fragments are ranked by their window
    keys; beyond it the classes come from cutting suffix order wherever
    the common prefix of neighbouring suffixes drops below the length.
    Equal fragments share a class either way.
    """
    if length <= pt.key_cap:
        return dense_ranks(window_keys(pt, length, count))
    idx = SuffixArrayIndex(pt.symbols)
    mask = idx.sa <= count
    order = idx.sa[mask]
    inv = np.zeros(count, dtype=np.int64)
    if len(order) > 1:
        ranks = np.nonzero(mask)[0]
        lcp_pad = np.concatenate([idx.lcp, [0]])
        mins = np.minimum.reduceat(lcp_pad, ranks)[:-1]
        inv[order - 1] = np.concatenate([[0], np.cumsum(mins < length)])
    return inv


def build_partition(pt, tau):
    """Class of each window start 1..n-tau+1: the dense rank of its
    length-tau substring in ascending lexicographic order."""
    n = pt.n
    if not 1 <= tau <= n:
        raise ValueError("tau out of range")
    return _fragment_classes(pt, tau, n - tau + 1)


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


def construct_from_ids(pt, tau, ids, q):
    """Evaluate the window-minimum rule for one id per window start;
    the minimum skips the starts of the Q mask q."""
    n = pt.n
    ids = np.asarray(ids, dtype=np.int64)
    if np.any(ids < 0):
        raise ValueError("identifier assignment is incomplete")
    nmem = n - 2 * tau + 1
    if nmem <= 0:
        return SyncSet(tau, n, np.zeros(0, dtype=np.int64))
    big = np.int64(2 * n + 2)
    masked = np.where(q, big, ids)
    wmin = np.lib.stride_tricks.sliding_window_view(
        masked, tau + 1).min(axis=1)
    member = (wmin == ids[:nmem]) | (wmin == ids[tau:tau + nmem])
    return SyncSet(tau, n, np.flatnonzero(member).astype(np.int64) + 1)


def _class_flags(class_of, psets):
    """Per-class containment in B and in Q (classes never straddle)."""
    nc = int(class_of.max()) + 1
    in_b = np.zeros(nc, dtype=bool)
    in_q = np.zeros(nc, dtype=bool)
    in_b[class_of[psets.b]] = True
    in_q[class_of[psets.q]] = True
    if np.any(in_b & in_q):
        raise AssertionError("a class meets both Q and its boundary")
    return in_b, in_q


def construct_randomized(pt, tau, seed=0):
    """Random ids, boundary classes drawing the smallest ones."""
    psets = compute_q_and_b(pt, tau)
    class_of = build_partition(pt, tau)
    in_b, _ = _class_flags(class_of, psets)
    rng = np.random.default_rng(seed)
    bcls = np.flatnonzero(in_b)
    rest = np.flatnonzero(~in_b)
    ids = np.empty(len(in_b), dtype=np.int64)
    ids[rng.permutation(bcls)] = np.arange(len(bcls))
    ids[rng.permutation(rest)] = len(bcls) + np.arange(len(rest))
    return construct_from_ids(pt, tau, ids[class_of], psets.q)


def _det_setup(pt, tau):
    """The start of both deterministic paths, before any scoring.

    Returns the Q mask, the class of each window start, the per-class
    flag "in B or in Q", the 0-based windows of class c as
    pos0[starts[c]:starts[c+1]], the class ids (B classes first, then Q
    classes, each in ascending substring order, -1 for the rest) and the
    mask of the windows whose class has an id.
    """
    psets = compute_q_and_b(pt, tau)
    class_of = build_partition(pt, tau)
    in_b, in_q = _class_flags(class_of, psets)
    nc = len(in_b)
    pos0 = np.argsort(class_of, kind="stable")
    starts = np.zeros(nc + 1, dtype=np.int64)
    np.cumsum(np.bincount(class_of, minlength=nc), out=starts[1:])
    early = np.concatenate([np.flatnonzero(in_b), np.flatnonzero(in_q)])
    ids = np.full(nc, -1, dtype=np.int64)
    ids[early] = np.arange(len(early))
    fixed = in_b | in_q
    return psets.q, class_of, fixed, pos0, starts, ids, fixed[class_of]


def _scores(defined, tau):
    """Score of every window start, given the starts already defined.

    Maximal runs of undefined starts shorter than tau+1 stay inactive
    (score 0).  Within an active run the leftmost and rightmost
    floor(tau/3) starts score -1 and the rest +2, which keeps every
    run's total non-negative.
    """
    nwin = len(defined)
    idx = np.arange(nwin, dtype=np.int64)
    last_def = np.maximum.accumulate(np.where(defined, idx, -1))
    next_def = nwin - 1 - np.maximum.accumulate(
        np.where(defined[::-1], idx, -1))[::-1]
    fl = tau // 3
    edge = (idx - last_def - 1 < fl) | (next_def - idx - 1 < fl)
    active = ~defined & (next_def - last_def - 1 >= tau + 1)
    return np.where(active, np.where(edge, -1, 2), 0)


def construct_deterministic(pt, tau):
    """Scored three-phase id assignment, bit-reproducible.

    Boundary classes first, then highly periodic classes, both in
    ascending substring order.  Remaining classes are picked by always
    taking the smallest-substring class whose active positions have a
    non-negative aggregate score; a pick updates only the scores within
    tau of the starts it defines.
    """
    q, class_of, processed, pos0, starts, ids, done = _det_setup(pt, tau)
    nwin = len(class_of)
    nc = len(processed)
    score = _scores(done, tau)
    agg = np.bincount(class_of, weights=score, minlength=nc).astype(np.int64)
    defined = bytearray(done.tobytes())
    next_id = int(processed.sum())
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

    heap = [int(c) for c in np.flatnonzero(~processed & (agg >= 0))]
    heapq.heapify(heap)
    remaining = nc - next_id
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
        ids[c] = next_id
        next_id += 1
        for p0 in pos0[starts[c]:starts[c + 1]].tolist():
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
    return construct_from_ids(pt, tau, ids[class_of], q)


def packed_fast_applicable(pt, tau):
    n, sigma = pt.n, pt.sigma
    if 4 * tau * (sigma).bit_length() > 62:
        return False
    return sigma ** (5 * tau) <= n


def construct_packed_fast(pt, tau):
    """Deterministic construction replayed on representative blocks.

    Positions are grouped into length-tau blocks; blocks sharing their
    4tau-symbol context behave identically, so each scoring round only
    inspects one representative per context and weights its scores by
    the context multiplicity.  A block whose context leaves the text
    gets a context of its own.  Requires packed_fast_applicable; the
    output equals construct_deterministic's, from the same set-up and
    the same score rule.
    """
    if not packed_fast_applicable(pt, tau):
        raise ValueError("block replay needs sigma**(5tau) <= n")
    n = pt.n
    q, class_of, processed, pos0, starts, ids, done = _det_setup(pt, tau)
    nwin = len(class_of)
    nc = len(processed)

    nblocks = -(-nwin // tau)
    # block b's context is T[b*tau-2tau+2..b*tau+2tau+1]; negative ids
    # keep the contexts that leave the text apart from every other
    first = np.arange(nblocks) * tau - 2 * tau + 2
    inside = (first >= 1) & (first + 4 * tau - 1 <= n)
    ctx = -1 - np.arange(nblocks)
    ctx[inside] = window_keys(pt, 4 * tau, first[inside])[0]
    _, rep_blocks, inv = np.unique(ctx, return_index=True, return_inverse=True)
    mult = np.bincount(inv, minlength=len(rep_blocks))

    rep_pos0 = (rep_blocks[:, None] * tau + np.arange(tau)).ravel()
    keep = rep_pos0 < nwin
    rep_pos0 = rep_pos0[keep]
    rep_weight = np.repeat(mult, tau)[keep]
    rep_class = class_of[rep_pos0]

    next_id = int(processed.sum())
    while not processed.all():
        score = _scores(done, tau)
        agg = np.zeros(nc, dtype=np.int64)
        np.add.at(agg, rep_class, score[rep_pos0] * rep_weight)
        ready = np.flatnonzero(~processed & (agg >= 0))
        if not len(ready):
            raise AssertionError("no class with non-negative score left")
        c = int(ready[0])
        processed[c] = True
        ids[c] = next_id
        next_id += 1
        done[pos0[starts[c]:starts[c + 1]]] = True
    return construct_from_ids(pt, tau, ids[class_of], q)


def construct(pt, tau, mode="det", seed=0):
    """The "det" or "random" set; "det" replays on blocks where
    packed_fast_applicable holds, else runs the scoring loop."""
    if mode == "det":
        if packed_fast_applicable(pt, tau):
            return construct_packed_fast(pt, tau)
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

    def __bool__(self):
        return self.ok


def validate_sync_set(pt, tau, s):
    """Check the consistency and density conditions exactly.

    Every window is checked, at every size: consistency by grouping all
    starts by their 2tau-context, density by comparing each window's
    emptiness with the highly periodic set.  The report names the first
    violation.  Its witness is (i, j) for a consistency violation: the
    first member and the first non-member with the lexicographically
    smallest offending 2tau-context.  It is (i,) for a density violation:
    the leftmost offending window.
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
    member = np.zeros(nmem, dtype=bool)
    member[pos - 1] = True
    inv = _fragment_classes(pt, 2 * tau, nmem)
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


def save_sync_set(s, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# tau=%d n=%d\n" % (s.tau, s.n))
        for p in s.positions:
            fh.write("%d\n" % p)


def load_sync_set(path):
    """Read a set written by save_sync_set, rejecting malformed files."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        fields = header.split()
        if (len(fields) != 3 or fields[0] != "#"
                or not fields[1].startswith("tau=")
                or not fields[2].startswith("n=")):
            raise ValueError("malformed synchronizing set header: %r" % header)
        tau = int(fields[1][4:])
        n = int(fields[2][2:])
        positions = np.asarray([int(line) for line in fh if line.strip()],
                               dtype=np.int64)
    if tau < 1 or 2 * tau > n:
        raise ValueError("set header needs 1 <= tau <= n/2, got tau=%d n=%d"
                         % (tau, n))
    if np.any(np.diff(positions) <= 0):
        raise ValueError("set positions are not strictly increasing")
    if len(positions) and (positions[0] < 1
                           or positions[-1] > n - 2 * tau + 1):
        raise ValueError("set positions outside [1..%d]" % (n - 2 * tau + 1))
    return SyncSet(tau, n, positions)
