"""Construction and validation of string synchronizing sets.

A tau-synchronizing set S of a text T is a subset of [1..n-2tau+1] such
that membership of i depends only on T[i..i+2tau) (consistency), and a
length-tau window [i..i+tau) misses S exactly when the surrounding
fragment T[i..i+3tau-2] has period at most tau/3 (density).

All constructions here follow the same recipe: give every window start
an integer id that depends only on its length-tau substring, then insert
i whenever the smallest id over [i..i+tau] outside the highly periodic
region Q is attained at i or i+tau.  What differs is the id assignment.
The random one maps each window's key through a seeded bijection, so
distinct windows keep distinct ids without ranking them, and puts the
boundary windows B first by a flag bit above the key.  The deterministic
one ranks the windows into classes and plays a scoring game over them.
The game's scores follow one rule (_scores); construct_deterministic
computes them once and then, per picked class, rescores only the starts
near the class's starts.
"""

import functools
import heapq
from dataclasses import dataclass

import numpy as np

from .packed_text import (_column_symbols, _drop_digits, _unsigned_dtype,
                          dense_ranks, doubled_classes, window_keys)


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


def check_tau(tau):
    """tau as an int, or ValueError unless it is a positive integer."""
    if (isinstance(tau, bool) or not isinstance(tau, (int, np.integer))
            or tau < 1):
        raise ValueError("tau must be a positive integer")
    return int(tau)


def compute_q_and_b(pt, tau):
    """Q and B from one sliding AND of T[k] == T[k+p] per period p.

    A window of length L has period p exactly when all of its L - p
    equalities T[k] == T[k+p] hold, and a period p has every multiple
    below L as a period too, so the periods p in (tau/6, tau/3] cover
    all those up to tau/3.  For each such p, _window_min over the
    equalities marks the length-(tau-1) windows of period p, which B
    reads at i and i+1; one more equality extends them to the
    length-tau windows of Q.
    """
    n = pt.n
    tau = check_tau(tau)
    nwin = max(n - tau + 1, 0)
    q = np.zeros(nwin, dtype=bool)
    if tau <= 2 or nwin == 0:
        return PeriodicSets(tau, n, q, q.copy())
    s = pt.symbols
    short = np.zeros(nwin + 1, dtype=bool)
    for p in range(tau // 6 + 1, tau // 3 + 1):
        eq = s[p:] == s[:-p]
        run = _window_min(eq, tau - 1 - p)
        short |= run
        q |= run[:nwin] & eq[tau - 1 - p:]
    b = (short[:-1] | short[1:]) & ~q
    return PeriodicSets(tau, n, q, b)


def r_mask(psets):
    """Density targets: i in [1..n-3tau+2] with [i..i+2tau) inside Q."""
    tau, n = psets.tau, psets.n
    if n - 3 * tau + 2 <= 0:
        return np.zeros(0, dtype=bool)
    return _window_min(psets.q, 2 * tau)


def _fragment_classes(pt, length, count):
    """Ascending-lexicographic class ids of the length-`length` fragments
    at starts 1..count, which must lie inside the text.

    Window keys rank the fragments of one key column, or fewer symbols,
    at the starts up to count + length - 1; doubled_classes doubles them
    up to `length`, and the classes at 1..count are renumbered densely.
    """
    got = min(length, _column_symbols(pt.sigma))
    cls = dense_ranks([window_keys(pt, got, count + length - got)])
    for cls in doubled_classes(cls, got, length):
        pass
    return np.cumsum(np.bincount(cls[:count]) > 0)[cls[:count]] - 1


def build_partition(pt, tau):
    """Class of each window start 1..n-tau+1: the dense rank of its
    length-tau substring in ascending lexicographic order."""
    n = pt.n
    if not 1 <= tau <= n:
        raise ValueError("tau out of range")
    return _fragment_classes(pt, tau, n - tau + 1)


@dataclass
class SyncSet:
    """Sorted 1-based synchronizing positions."""

    tau: int
    n: int
    positions: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.int64)

    def __len__(self):
        return len(self.positions)

    @property
    def sentinel(self):
        return self.n - 2 * self.tau + 2


def _window_min(a, width):
    """Minimum of every `width` consecutive values of a, 1 <= width <=
    len(a), by doubling: floor(log2 width) passes of np.minimum, then one
    overlapping pair.  On a boolean mask it is a sliding AND: is every
    entry of the window true.  a itself is never written."""
    m, span = a, 1
    while 2 * span <= width:
        # m[i] becomes the minimum of a[i..i+2*span); the first pass
        # copies a, the later ones overwrite that copy
        m = np.minimum(m[:-span], m[span:],
                       out=None if span == 1 else m[:-span])
        span *= 2
    return np.minimum(m[:len(a) - width + 1], m[width - span:])


def construct_from_ids(pt, tau, ids, q):
    """Evaluate the window-minimum rule for one id per window start;
    the minimum skips the starts of the Q mask q, which it reads as the
    maximum of the ids' dtype.  Unsigned ids keep their dtype, any
    others are taken as int64; either way they lie below that maximum,
    in [0, 2**63 - 1) for int64."""
    n = pt.n
    ids = np.asarray(ids)
    if ids.dtype.kind != "u":
        ids = ids.astype(np.int64, copy=False)
    above = ids.dtype.type(np.iinfo(ids.dtype).max)
    if len(ids) and (ids.min() < 0 or ids.max() >= above):
        raise ValueError("identifier assignment is incomplete")
    nmem = n - 2 * tau + 1
    if nmem <= 0:
        return SyncSet(tau, n, np.zeros(0, dtype=np.int64))
    wmin = _window_min(np.where(q, above, ids), tau + 1)
    member = (wmin == ids[:nmem]) | (wmin == ids[tau:tau + nmem])
    return SyncSet(tau, n, np.flatnonzero(member) + 1)


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


@functools.lru_cache(maxsize=256)
def _bijection_rounds(w, seed):
    """Seeded (constant, odd multiplier, shift) triples of _bijection, as
    a tuple: the rounds are drawn once per (w, seed) and shared."""
    rng = np.random.default_rng(seed)
    rounds = []
    for _ in range(3):
        c, a = rng.integers(0, 1 << w, size=2, dtype=np.uint64)
        shift = rng.integers(max(1, w // 3), max(1, 2 * w // 3) + 1)
        rounds.append((c, a | np.uint64(1), np.uint64(shift)))
    return tuple(rounds)


def _bijection(keys, w, seed):
    """keys in [0, 2**w) mapped through a seeded bijection of [0, 2**w).

    Each of three rounds xors a constant, multiplies by an odd number
    mod 2**w and xors in the value shifted right.  Every step inverts
    mod 2**w, so distinct keys get distinct values, and since 2**w
    divides the dtype's modulus, every unsigned dtype of at least w bits
    gives the same values.  A uint32 array with w <= 32 and a uint64
    array are mapped in place; any other is copied to uint64 first.
    """
    x = keys
    if x.dtype != np.uint32 or w > 32:
        x = x.astype(np.uint64, copy=False)
    word = x.dtype.type
    mask = word((1 << w) - 1)
    for c, a, shift in _bijection_rounds(w, seed):
        x ^= word(c)
        x *= word(a)
        x &= mask
        x ^= x >> word(shift)
    return x


def construct_randomized(pt, tau, seed=0, keys=None):
    """Random ids, boundary windows drawing the smallest ones.

    A window's id is its key under a seeded bijection of [0, 2**w), plus
    2**w outside B.  The key is the window's base-sigma key, w = tau*bits,
    while that fits a word with the flag above it; past that it is the
    dense rank of the window from build_partition, w its bit length.
    keys, if given, are the one-column keys window_keys(pt, 3tau, n),
    and the base-sigma keys are their first tau digits, a right shift
    when sigma is a power of two.  The bijection runs in uint32 while
    w <= 32, and the window minimum in the narrowest unsigned dtype whose
    maximum, the Q mask, lies above every id of w + 1 bits.
    """
    if not 1 <= tau <= pt.n:
        raise ValueError("tau out of range")
    psets = compute_q_and_b(pt, tau)
    nwin = len(psets.b)
    w = tau * pt.bits_per_symbol
    if keys is not None:
        # 3tau * bits <= 62, so the tau digits take at most 20 bits
        key = _drop_digits(keys[:nwin], pt.sigma, 2 * tau,
                           np.empty(nwin, dtype=np.uint32))
    else:
        if w <= 61:
            key = window_keys(pt, tau, nwin)
        else:
            key = build_partition(pt, tau)
            w = max(1, int(key.max()).bit_length())
        key = key.astype(np.uint32) if w <= 32 else key.view(np.uint64)
    # key is this function's own array, so the bijection maps it in place
    ids = _bijection(key, w, seed).astype(_unsigned_dtype(1 << (w + 1)),
                                         copy=False)
    del key
    np.add(ids, 1 << w, out=ids, where=~psets.b)
    return construct_from_ids(pt, tau, ids, psets.q)


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
    taking the smallest-substring class whose starts have a non-negative
    score sum.  A score depends only on the set of defined starts, so a
    pick defines all its starts at once and then rewrites, in one pass,
    just the scores its active starts change.
    """
    psets = compute_q_and_b(pt, tau)
    class_of = build_partition(pt, tau)
    in_b, in_q = _class_flags(class_of, psets)
    nc, nwin = len(in_b), len(class_of)
    pos0 = np.argsort(class_of, kind="stable")
    starts = [0] + np.cumsum(np.bincount(class_of, minlength=nc)).tolist()
    early = np.concatenate([np.flatnonzero(in_b), np.flatnonzero(in_q)])
    ids = np.full(nc, -1, dtype=np.int64)
    ids[early] = np.arange(len(early))
    processed = in_b | in_q

    # Outside the text every start counts as defined, like the ends of
    # _scores' runs, so each start sees tau+1 neighbours on either side.
    reach = tau + 1
    fl = tau // 3
    pad = np.ones(nwin + 2 * reach, dtype=bool)
    defined = pad[reach:reach + nwin]
    defined[:] = processed[class_of]
    around = np.lib.stride_tricks.sliding_window_view(pad, 2 * reach + 1)
    score = _scores(defined, tau).astype(np.int8)
    agg = np.bincount(class_of, weights=score, minlength=nc).astype(np.int64)

    heap = np.flatnonzero(~processed & (agg >= 0)).tolist()
    heapq.heapify(heap)
    next_id = len(early)
    remaining = nc - next_id
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
        mem = pos0[starts[c]:starts[c + 1]]
        defined[mem] = True
        # Only starts of active runs move other scores.  Each such start p
        # splits its run: a side whose next defined start lies within
        # tau+1 is now a short run and scores 0; a longer side keeps its
        # scores but for the fl starts next to p, which turn -1.
        new_def = mem[score[mem] != 0]
        m = len(new_def)
        if not m:
            continue
        score[new_def] = 0
        near = around[new_def]
        # rows 0..m-1 look left of each new start, rows m..2m-1 right;
        # run counts the undefined starts before the first defined one
        sides = np.concatenate([near[:, reach - 1::-1], near[:, reach + 1:]])
        run = sides.argmax(axis=1)
        short = sides[np.arange(2 * m), run]
        size = np.where(short, run, fl)
        # a short run between two new starts is zeroed once, by the left one
        size[1:m][new_def[1:] - new_def[:-1] == run[1:m] + 1] = 0
        first = np.concatenate([new_def - size[:m], new_def + 1])
        at = np.arange(size.sum()) + (first - size.cumsum() + size).repeat(size)
        new = short.repeat(size) - 1
        delta = new - score[at]
        score[at] = new
        cls = class_of[at]
        before = agg[cls]
        np.add.at(agg, cls, delta)
        for cq in set(cls[(before < 0) & (agg[cls] >= 0)].tolist()):
            heapq.heappush(heap, cq)
    return construct_from_ids(pt, tau, ids[class_of], psets.q)


def construct(pt, tau, mode="det", seed=0, keys=None):
    """The "det" or "random" synchronizing set of a positive integer tau.

    keys, if given, are window_keys(pt, 3 * tau, n), which a caller
    that needs them anyway passes so that the random mode reads its
    window keys from them; they require 3tau * bits <= 62.
    """
    tau = check_tau(tau)
    if mode == "det":
        return construct_deterministic(pt, tau)
    if mode == "random":
        return construct_randomized(pt, tau, seed=seed, keys=keys)
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
    the leftmost offending window.  A tau that is not a positive integer
    raises ValueError; one above n/2 fails the structure condition.
    """
    n = pt.n
    tau = check_tau(tau)
    if 2 * tau > n:
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
        empty = _window_min(~member, tau)
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
