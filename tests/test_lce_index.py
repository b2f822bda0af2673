import bisect
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sst import lce_index, packed_text
from sst.bwt_builder import build_bwt
from sst.lce_index import LceIndex, default_tau
from sst.packed_text import pack
from sst.reference_oracles import naive_lce
from sst.sync_set import construct

from conftest import (all_binary_texts, fibonacci_word, full_profile,
                      periodic_mosaic, random_text)


def _check_all_pairs(seq, tau=None, sigma=None):
    pt = pack(seq, sigma or max(2, max(seq) + 1))
    idx = LceIndex(pt, tau=tau)
    n = len(seq)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert idx.query(i, j) == naive_lce(seq, i, j), (seq, tau, i, j)
    i, j = np.divmod(np.arange(n * n), n)
    batch = idx.query_many(i + 1, j + 1).reshape(n, n)
    assert batch.tolist() == [[idx.query(a, b) for b in range(1, n + 1)]
                              for a in range(1, n + 1)], (seq, tau)


def test_exhaustive_tiny_binary():
    for n in range(1, 9):
        for seq in all_binary_texts(n):
            _check_all_pairs(seq)


def test_random_texts_all_pairs(rng):
    nmax = 160 if full_profile() else 90
    for sigma in (2, 4):
        for _ in range(4):
            n = rng.randrange(2, nmax)
            seq = random_text(rng, n, sigma)
            _check_all_pairs(seq)
            _check_all_pairs(seq, tau=rng.randrange(1, n // 2 + 1))


def test_structured_texts(rng):
    _check_all_pairs(fibonacci_word(100), tau=4)
    _check_all_pairs([0, 1] * 40, tau=6)
    _check_all_pairs([0] * 70, tau=8)
    _check_all_pairs(periodic_mosaic(rng, 120, 2), tau=5)


def test_mosaic_tau8_all_pairs():
    # 6tau*bits > 62 for the reduced string
    seq = periodic_mosaic(random.Random(8), 200, 4)
    _check_all_pairs(seq, tau=8)


def test_fragments_beyond_key_capacity(rng):
    # 3tau symbols exceed what one substring key holds
    for sigma, tau in ((4, 25), (256, 6)):
        seq = periodic_mosaic(rng, 160, sigma)
        _check_all_pairs(seq, tau=tau)


def _word_taus(n, sigma):
    """The default tau, the largest whose 3tau symbols fit 62 bits and
    the smallest whose 3tau symbols pass 64, which lcp_fragments takes."""
    bits = (sigma - 1).bit_length()
    return default_tau(n, sigma), 62 // (3 * bits), 64 // (3 * bits) + 1


@pytest.mark.parametrize("sigma", [2, 3, 4, 16, 256])
def test_one_word_compare_at_word_edges(rng, sigma):
    # n * bits at or next to 63, 64, 65, 127, 128 and 129 bits, so that
    # the one-word reads near the end reach into the zero padding words;
    # a text ending in zeros matches the padding past its end
    bits = (sigma - 1).bit_length()
    lengths = {f(total, bits) for total in (63, 64, 65, 127, 128, 129)
               for f in (int.__floordiv__, lambda a, b: -(-a // b))}
    for n in sorted(lengths):
        texts = (random_text(rng, n, sigma), periodic_mosaic(rng, n, sigma),
                 random_text(rng, n - n // 3, sigma) + [0] * (n // 3))
        for seq in texts:
            for tau in _word_taus(n, sigma):
                _check_all_pairs(seq, tau, sigma)


def test_scalar_query_compares_one_word(monkeypatch, rng):
    # at the default tau, head and tail read one word a side; a tau whose
    # 3tau symbols pass 64 bits still goes through lcp_fragments
    def refuse(*args):
        raise RuntimeError("lcp_fragments called")

    n, sigma = 3000, 4
    seq = _repetitive_text(rng, n, sigma)
    pt = pack(seq, sigma)
    idx = LceIndex(pt)
    gen = np.random.default_rng(25)
    i, j = gen.integers(1, n + 1, size=(2, 2000))
    # half the pairs compare two copies of the base at one offset
    j[1000:] = (i[1000:] - 1 + n // 8 * gen.integers(1, 8, 1000)) % n + 1
    cap = 3 * idx.tau
    assert np.sum(packed_text.lcp_fragments_many(pt, i, j, cap) == cap) > 500
    wide = LceIndex(pt, _word_taus(n, sigma)[2])
    monkeypatch.setattr(lce_index, "lcp_fragments", refuse)
    for a, b in zip(i.tolist(), j.tolist()):
        assert idx.query(a, b) == naive_lce(seq, a, b), (a, b)
    with pytest.raises(RuntimeError, match="lcp_fragments called"):
        wide.query(1, 2)


def test_unary_frozen():
    pt = pack([0] * 5000, 2)
    idx = LceIndex(pt)
    assert idx.query(1, 2) == 4999
    assert idx.query(1, 1) == 5000
    assert idx.query(5000, 4999) == 1


def test_equal_positions(rng):
    seq = random_text(rng, 50, 2)
    idx = LceIndex(pack(seq, 2))
    for i in (1, 25, 50):
        assert idx.query(i, i) == 50 - i + 1
    # a batch answers i == j before the hop, also where n - i + 1 > 3tau
    for seq, tau in ((seq, None), ([0] * 40, 2), ([0, 1, 1] * 30, 1)):
        n = len(seq)
        idx = LceIndex(pack(seq, 2), tau=tau)
        pos = np.arange(1, n + 1)
        assert idx.query_many(pos, pos).tolist() == list(range(n, 0, -1))


def test_direct_mode_tiny_text():
    idx = LceIndex(pack([1], 2))
    assert idx.query(1, 1) == 1
    idx = LceIndex(pack([0, 1, 0], 2), tau=1)
    assert idx.query(1, 3) == 1


def test_out_of_range_rejected(rng):
    idx = LceIndex(pack([0, 1, 0, 1], 2))
    with pytest.raises(IndexError):
        idx.query(0, 1)
    with pytest.raises(IndexError):
        idx.query(1, 5)


def _emission_bits(tau, n, bits):
    cap = 3 * tau - 1
    return (cap * bits + cap.bit_length()
            + math.ceil(Fraction(19, 10) * n / tau).bit_length())


def test_default_tau_caps():
    assert default_tau(1, 2) == 1
    for n in (10, 1000, 10 ** 6):
        t = default_tau(n, 2)
        assert 1 <= t <= n // 2 or n < 2


def test_default_tau_is_largest_within_both_bounds():
    lengths = set(range(2, 300))
    for k in range(9, 31):
        lengths |= {(1 << k) - 1, 1 << k, (1 << k) + 1, 3 << (k - 2)}
    for sigma in (2, 3, 4, 16, 255, 256):
        bits = (sigma - 1).bit_length()

        def ok(tau, n):
            return (tau <= n // 2 and 3 * tau * bits <= 62
                    and _emission_bits(tau, n, bits) <= 62)

        for n in sorted(lengths):
            tau = default_tau(n, sigma)
            assert ok(tau, n) and not ok(tau + 1, n), (sigma, n, tau)


@pytest.mark.parametrize("sigma", [2, 4, 16])
def test_default_tau_emission_key_takes_one_column(sigma):
    gen = random.Random(sigma)
    n = 1 << 16
    tau = default_tau(n, sigma)
    for seq in (random_text(gen, n, sigma), periodic_mosaic(gen, n, sigma)):
        pt = pack(seq, sigma)
        size = len(construct(pt, tau, "random", 0))
        assert sigma ** (3 * tau - 1) * 3 * tau * (size + 1) <= 1 << 62, \
            (sigma, tau, size)
        assert build_bwt(pt).meta["tau"] == tau


def test_module_level_helpers(rng):
    seq = random_text(rng, 80, 2)
    idx = LceIndex(pack(seq, 2))
    assert idx.query(3, 9) == naive_lce(seq, 3, 9)


def test_large_random_spot_checks(rng):
    n = 200_000 if full_profile() else 50_000
    seq = random_text(rng, n, 2)
    idx = LceIndex(pack(seq, 2))
    for _ in range(300):
        i, j = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
        assert idx.query(i, j) == naive_lce(seq, i, j)


def test_large_mosaic_spot_checks(rng):
    n = 100_000 if full_profile() else 30_000
    seq = periodic_mosaic(rng, n, 2)
    idx = LceIndex(pack(seq, 2))
    for _ in range(200):
        i, j = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
        assert idx.query(i, j) == naive_lce(seq, i, j)


def _repetitive_text(rng, n, sigma):
    """Mutated copies of one random base, so that long extensions abound."""
    base = random_text(rng, max(1, n // 8), sigma)
    seq = (base * (n // len(base) + 1))[:n]
    for _ in range(max(1, n // 100)):
        seq[rng.randrange(n)] = rng.randrange(sigma)
    return seq


def _runs_text(rng, n, sigma):
    """Copies of one head, each followed by a unary run of a length of its
    own, then noise."""
    head = random_text(rng, rng.randrange(5, 40), sigma)
    seq = []
    while len(seq) < n:
        seq += (head + [rng.randrange(sigma)] * rng.randrange(10, 60)
                + random_text(rng, 5, sigma))
    return seq[:n]


TEXTS = {"random": random_text, "mosaic": periodic_mosaic,
         "repetitive": _repetitive_text, "runs": _runs_text}


def test_runs_of_unequal_length(rng):
    # extensions from two copies of the head match the 3tau symbols after
    # the last common synchronizing position and end where the shorter
    # run ends: the answer comes from the gaps to the next members
    head = random_text(rng, 30, 4)
    seq = []
    for run in (40, 25, 33):
        seq += head + [1] * run + random_text(rng, 8, 4)
    for tau in (3, 4, 6):
        _check_all_pairs(seq, tau=tau)


def _check_batch(seq, sigma, tau, pairs):
    idx = LceIndex(pack(seq, sigma), tau=tau)
    i = np.array([p[0] for p in pairs], dtype=np.int64)
    j = np.array([p[1] for p in pairs], dtype=np.int64)
    got = idx.query_many(i, j)
    assert got.dtype == np.int64
    want = [idx.query(a, b) for a, b in pairs]
    assert got.tolist() == want, (seq, sigma, tau)
    assert want == [naive_lce(seq, a, b) for a, b in pairs]
    return idx


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([2, 4, 16, 256]), st.sampled_from(sorted(TEXTS)),
       st.integers(1, 420), st.integers(0, 2 ** 32), st.data())
def test_query_many_matches_query(sigma, kind, n, seed, data):
    rng = random.Random(seed)
    seq = TEXTS[kind](rng, n, sigma)
    bits = max(1, (sigma - 1).bit_length())
    word_limit = max(1, 62 // (3 * bits))
    # up to the word limit, past two key columns, and 2tau > n (direct)
    tau = data.draw(st.one_of(
        st.none(), st.integers(1, word_limit),
        st.sampled_from([1, word_limit, 128 // bits + 1, n // 2 + 1])))
    pos = st.integers(1, n)
    pairs = data.draw(st.lists(st.tuples(pos, pos), max_size=60))
    # i == j, and the last positions, whose successor is the sentinel
    tail = range(max(1, n - 6 * (tau or 4)), n + 1)
    pairs += [(p, p) for p in tail[:3]]
    pairs += [(a, b) for a in tail for b in tail][:200]
    _check_batch(seq, sigma, tau, pairs)


def test_query_many_successor_at_sentinel(rng):
    # a random head, then a tail of period at most tau/3, which holds no
    # synchronizing position: hops from the tail land on the sentinel
    for sigma, tau, period in ((2, 3, [1]), (4, 6, [3, 0]), (16, 9, [5])):
        seq = random_text(rng, 60, sigma) + (period * 180)[:180]
        n = len(seq)
        pairs = [(a, b) for a in range(1, n + 1, 3)
                 for b in range(1, n + 1, 2)]
        idx = _check_batch(seq, sigma, tau, pairs)
        assert int(idx.sync.positions.max()) < 60 + 2 * tau


def test_query_many_empty_and_out_of_range():
    idx = LceIndex(pack([0, 1, 0, 1, 1, 0, 1, 0], 2), tau=1)
    assert idx.query_many([], []).tolist() == []
    for i, j in (([0], [1]), ([1], [9]), ([1, 2], [3, 99])):
        with pytest.raises(IndexError):
            idx.query_many(i, j)
    with pytest.raises(ValueError):
        idx.query_many([1, 2], [3])
    direct = LceIndex(pack([1], 2))
    assert direct.query_many([1], [1]).tolist() == [1]


def test_query_many_rejects_non_integer_positions():
    idx = LceIndex(pack([0, 1, 0, 1, 1, 0, 1, 0], 2), tau=1)
    for i, j in (([1.9], [3.2]), ([1], [3.0]), ([True], [2]), (["1"], [3]),
                 ([1, 2], np.array([3, 4], dtype=np.float32))):
        with pytest.raises(ValueError):
            idx.query_many(i, j)
    assert idx.query_many(np.array([1], dtype=np.uint8),
                          np.array([3], dtype=np.int32)).tolist() == [
        idx.query(1, 3)]


def test_query_rejects_non_integer_positions():
    seq = [0, 1, 1, 0, 1, 0, 0, 1] * 25
    idx = LceIndex(pack(seq, 2), tau=4)
    for i, j in ((2.5, 2.5), (True, 5), (5, False), (np.float64(3.0), 7),
                 ("1", 3), (np.True_, 2)):
        with pytest.raises(ValueError):
            idx.query(i, j)
    for i, j in ((np.int64(3), 11), (np.uint8(9), np.int32(17)), (1, 9)):
        assert idx.query(i, j) == naive_lce(seq, int(i), int(j))
    with pytest.raises(IndexError):
        idx.query(np.int64(0), 1)


def test_tau_must_be_a_positive_integer():
    pt = pack([0, 1, 1, 0, 1, 0, 0, 1] * 25, 2)
    for tau in (2.5, 3.0, True, "3", 0, -2):
        with pytest.raises(ValueError, match="tau must be a positive integer"):
            LceIndex(pt, tau)
    idx = LceIndex(pt, np.int64(4))
    assert idx.tau == 4 and type(idx.tau) is int


def test_successor_search_within_one_bucket(rng):
    # tau = 1 makes every position a member, so a bucket holds all 64;
    # the periodic tail of the last text holds no member, which leaves
    # whole 64-position buckets empty
    texts = [(random_text(rng, 200, 256), 256, 1),
             (random_text(rng, 700, 2), 2, None),
             (random_text(rng, 60, 4) + [3, 0] * 150, 4, 6)]
    for seq, sigma, tau in texts:
        idx = LceIndex(pack(seq, sigma), tau=tau)
        pos = idx.sync.positions.tolist()
        sent = idx.sync.sentinel
        first = idx._first
        for i in range(1, sent):
            b = (i - 1) >> 6
            lo, hi = first[b], first[b + 1]
            rank = bisect.bisect_right(idx._succ_list, i - 1, lo, hi)
            want = sum(p < i for p in pos)
            assert lo <= want <= hi and hi - lo <= 64, (sigma, i)
            assert rank == want, (sigma, i)
            after = [p for p in pos if p >= i]
            assert idx._succ_list[rank] == (after[0] if after else sent)
        if tau == 1:
            assert pos == list(range(1, sent)) and first[2] - first[1] == 64
        if sigma == 4:
            assert pos[-1] + 128 < sent


def test_default_tau_encodes_the_windows_once(monkeypatch, rng):
    # the 3tau-window keys give the set's tau windows and the reduced
    # string's symbols
    calls = []
    doubled = packed_text._doubled_keys
    monkeypatch.setattr(packed_text, "_doubled_keys",
                        lambda *a: calls.append(1) or doubled(*a))
    for sigma in (2, 4, 256):
        seq = random_text(rng, 3000, sigma)
        del calls[:]
        idx = LceIndex(pack(seq, sigma))
        assert len(calls) == 1, sigma
        for i, j in [(1, 2), (5, 900), (1500, 2999), (77, 78)]:
            assert idx.query(i, j) == naive_lce(seq, i, j)
