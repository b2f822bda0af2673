import numpy as np
import pytest

from sst.packed_text import pack
from sst.suffix_core import SuffixArrayIndex
from sst.sync_set import (SyncSet, construct_deterministic,
                          construct_randomized)
from sst.sync_sort import build_tprime, sort_sync_suffixes

from conftest import (all_binary_texts, full_profile, periodic_mosaic,
                      random_text)


def _check_order(seq, tau):
    pt = pack(seq, max(2, max(seq) + 1))
    s = construct_deterministic(pt, tau)
    reduced = sort_sync_suffixes(pt, s)[1]
    idx = SuffixArrayIndex(seq)
    want = sorted(s.positions, key=lambda p: idx.isa[p - 1])
    got = s.positions[reduced.sa - 1]
    assert list(got) == [int(p) for p in want]


def test_exhaustive_small_binary():
    nmax = 12 if full_profile() else 9
    for n in range(2, nmax + 1):
        for seq in all_binary_texts(n):
            for tau in (1, 2, 3):
                if 2 * tau > n:
                    continue
                _check_order(seq, tau)


def test_random_texts(rng):
    for sigma in (2, 4, 16):
        for _ in range(15):
            n = rng.randrange(12, 400)
            seq = random_text(rng, n, sigma)
            tau = rng.randrange(1, min(7, n // 2) + 1)
            _check_order(seq, tau)


def test_periodic_texts():
    for seq in ([0, 1] * 30, [0, 0, 1] * 20, [0] * 40 + [1] + [0] * 20):
        for tau in (2, 3, 6):
            _check_order(seq, tau)


def test_rank_of_index_inverts_order(rng):
    seq = random_text(rng, 150, 2)
    pt = pack(seq, 2)
    s = construct_deterministic(pt, 3)
    tp, reduced = sort_sync_suffixes(pt, s)
    assert len(tp) == len(s) == reduced.n
    for t in range(len(tp)):
        r = int(reduced.isa[t])
        assert int(reduced.sa[r - 1]) == t + 1


def test_tprime_orders_like_text_suffixes(rng):
    seq = random_text(rng, 160, 2)
    pt = pack(seq, 2)
    s = construct_deterministic(pt, 4)
    tp = build_tprime(pt, s)
    idx = SuffixArrayIndex(seq)
    pos = list(s.positions)
    sym = list(tp.symbols)
    # suffix comparisons of the reduced string agree with text suffix
    # comparisons at the matching set positions
    for a in range(0, len(pos), 3):
        for b in range(0, len(pos), 3):
            assert ((sym[a:] < sym[b:])
                    == (idx.isa[pos[a] - 1] < idx.isa[pos[b] - 1]))


def test_d_is_zero_without_long_gaps(rng):
    seq = random_text(rng, 120, 4)
    pt = pack(seq, 4)
    s = construct_deterministic(pt, 3)
    sp = list(s.positions)
    gaps = [b - a for a, b in zip(sp, sp[1:])] + [s.sentinel - sp[-1]]
    d = build_tprime(pt, s).d_values
    for g, dv in zip(gaps, d):
        if g <= 3:
            assert dv == 0
        else:
            assert dv != 0


def test_run_gap_gets_signed_d():
    # one long unary run; positions straddling it get nonzero d
    seq = [0, 1, 1, 0] + [0] * 30 + [1, 0, 1, 1]
    pt = pack(seq, 2)
    s = construct_deterministic(pt, 3)
    d = build_tprime(pt, s).d_values
    assert np.any(d != 0)


def test_rejects_uncovered_gap():
    # tau=2 admits no highly periodic window, so a gap above tau is
    # always a precondition violation
    seq = [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0]
    pt = pack(seq, 2)
    bad = SyncSet(2, len(seq), np.array([1], dtype=np.int64))
    with pytest.raises(AssertionError):
        build_tprime(pt, bad)


def _big_int_symbols(seq, sigma, positions, d, tau):
    # each member as one integer: its fragment of up to 3tau symbols,
    # 6tau - 2*len zeros, len ones, then d; equal integers share a rank
    n = len(seq)
    mod = 2 * n + 3
    enc = []
    for p, dv in zip(positions, d):
        frag = seq[p - 1:p - 1 + 3 * tau]
        digits = frag + [0] * (6 * tau - 2 * len(frag)) + [1] * len(frag)
        v = 0
        for c in digits:
            v = v * sigma + c
        enc.append(v * mod + int(dv) + n + 1)
    ranks = {v: r for r, v in enumerate(sorted(set(enc)))}
    return [ranks[v] for v in enc]


def _zero_padded_twin(rng, n, sigma, tau):
    # x 0^(3tau) x: fragments cut at the text end equal their twins in
    # the first copy once zero-padded, so only the length tells them apart
    x = random_text(rng, (n - 3 * tau) // 2, sigma)
    return x + [0] * (3 * tau) + x


def test_tprime_matches_big_int_encoding(rng):
    # 6tau*bits > 62 in every case, too wide for one padded integer; the
    # packed fields need one column or two, depending on sigma, tau and n.
    # At sigma = 3, tau = 14 and sigma = 100, tau = 4 the 3tau symbols
    # outrun one column (42 against 39, 12 against 9), sigma**c is no
    # power of two, and the last window is cut
    for sigma, tau in ((4, 8), (2, 11), (2, 16), (2, 25), (256, 3), (3, 14),
                       (100, 4)):
        n = rng.randrange(8 * tau, 600)
        for seq in (random_text(rng, n, sigma), periodic_mosaic(rng, n, sigma),
                    _zero_padded_twin(rng, n, sigma, tau)):
            pt = pack(seq, sigma)
            s = construct_randomized(pt, tau, seed=1)
            tp = build_tprime(pt, s)
            want = _big_int_symbols(seq, sigma, list(s.positions),
                                    tp.d_values, tau)
            assert list(tp.symbols) == want, (sigma, tau)
