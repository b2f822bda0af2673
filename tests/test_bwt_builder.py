import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sst import packed_text
from sst.bwt_builder import build_bwt, invert_bwt, read_bwt, write_bwt
from sst.lce_index import LceIndex
from sst.packed_text import pack
from sst.suffix_core import SuffixArrayIndex
from sst.sync_set import construct
from sst.sync_sort import build_tprime, find_runs, sort_sync_suffixes
from sst.reference_oracles import naive_bwt, naive_lce, naive_period

from conftest import (all_binary_texts, fibonacci_word, full_profile,
                      periodic_mosaic, random_text, thue_morse)


def _ords(text):
    return [ord(c) for c in text]


def _check(seq, sigma=None, tau=None):
    sigma = sigma if sigma else max(2, max(seq) + 1)
    res = build_bwt(pack(seq, sigma), tau=tau)
    want_bwt, want_primary = naive_bwt(seq)
    assert list(res.bwt) == want_bwt, (seq, tau)
    assert res.primary_index == want_primary, (seq, tau)
    return res


def test_frozen_examples():
    res = _check(_ords("banana"), sigma=256)
    assert bytes(bytearray(res.bwt)).decode() == "nnbaaa"
    assert res.primary_index == 4
    assert naive_bwt("ab")[0] == [ord("b"), ord("a")]
    res = _check(_ords("ab"), sigma=256)
    assert res.primary_index == 1
    res = _check(_ords("aaaa"), sigma=256)
    assert list(res.bwt) == _ords("aaaa") and res.primary_index == 4


def test_exhaustive_small_binary():
    nmax = 13 if full_profile() else 10
    for n in range(1, nmax + 1):
        for seq in all_binary_texts(n):
            _check(seq)


def test_small_binary_fixed_tau():
    for n in range(4, 10):
        for seq in all_binary_texts(n):
            for tau in (1, 2):
                _check(seq, tau=tau)


def test_random_texts(rng):
    for sigma in (2, 4, 16, 64):
        for _ in range(10):
            n = rng.randrange(10, 1500)
            seq = random_text(rng, n, sigma)
            _check(seq)
            _check(seq, tau=rng.randrange(1, 8))


def test_adversarial_texts():
    nmax = 30_000 if full_profile() else 6_000
    for seq in ([0] * nmax,
                [0, 1] * (nmax // 2),
                [0, 0, 1] * (nmax // 3),
                fibonacci_word(nmax),
                thue_morse(nmax)):
        res = build_bwt(pack(seq, 2))
        back = invert_bwt(res)
        assert list(back) == list(seq)
    # the label blocks of 0^50 1 0^50 and (01)^50 1 (01)^50 each hold a
    # run that breaks upward at the lone 1 and one that ends past the text
    for seq in ([0] * 400, [0, 1] * 200, [0, 0, 1] * 133,
                fibonacci_word(300), thue_morse(300),
                [0] * 50 + [1] + [0] * 50, [0, 1] * 50 + [1] + [0, 1] * 50):
        _check(seq)
        for tau in (2, 5, 6, 9):
            _check(seq, tau=tau)


def test_mosaic_texts(rng):
    for _ in range(6):
        seq = periodic_mosaic(rng, rng.randrange(50, 900), 2)
        _check(seq)


def _repetitive(rng, n, sigma):
    base = random_text(rng, rng.randrange(1, 60), sigma)
    seq = (base * (n // len(base) + 1))[:n]
    for _ in range(rng.randrange(4)):
        seq[rng.randrange(n)] = rng.randrange(sigma)
    return seq


def test_every_tau_matches_oracle():
    # every tau the packed pipeline accepts, up to 3 * tau * bits <= 62
    rng = random.Random(2019)
    for sigma in (2, 4, 16, 64, 256):
        bits = (sigma - 1).bit_length()
        for maker in (random_text, periodic_mosaic, _repetitive) * 2:
            seq = maker(rng, rng.randrange(200, 3000), sigma)
            want = naive_bwt(seq)
            pt = pack(seq, sigma)
            for tau in range(1, 62 // (3 * bits) + 1):
                res = build_bwt(pt, tau=tau)
                assert (list(res.bwt), res.primary_index) == want, \
                    (sigma, maker.__name__, len(seq), tau)


@settings(max_examples=4000 if full_profile() else 800, deadline=None)
@given(st.sampled_from([2, 3, 4, 16, 256]),
       st.sampled_from([random_text, periodic_mosaic, _repetitive]),
       st.integers(1, 3000), st.integers(0, 2 ** 32), st.data())
def test_bwt_differential(sigma, maker, n, seed, data):
    seq = maker(random.Random(seed), n, sigma)
    bits = (sigma - 1).bit_length()
    tau = data.draw(st.integers(1, 62 // (3 * bits)))
    res = build_bwt(pack(seq, sigma), tau=tau)
    assert (list(res.bwt), res.primary_index) == naive_bwt(seq), \
        (sigma, maker.__name__, n, tau)


def _brute_runs(seq, tau, positions):
    # (j, e, p, type) of each gap longer than tau, with the run extended
    # symbol by symbol to its break
    n = len(seq)
    prev = [0] + list(positions)
    nxt = list(positions) + [n - 2 * tau + 2]
    out = []
    for a, b in zip(prev, nxt):
        if b - a <= tau:
            continue
        j = a + 1
        p = naive_period(seq[j - 1:j + 3 * tau - 2])
        assert 3 * p <= tau
        e = j + p
        while e <= n and seq[e - 1] == seq[e - 1 - p]:
            e += 1
        typ = 1 if e <= n and seq[e - 1] > seq[e - 1 - p] else -1
        out.append((j, e, p, typ))
    return out


def test_find_runs_structure():
    # periodic heads and tails around mosaics: a run before the first
    # member, and a run whose end lies past the text
    rng = random.Random(6)
    for sigma, tau, head, tail in ((2, 9, [0, 1], [0, 0, 1]),
                                   (2, 6, [1], [1, 0]),
                                   (4, 6, [3, 1], [2])):
        for _ in range(4):
            seq = (head * 30 + periodic_mosaic(rng, rng.randrange(100, 600),
                                               sigma) + tail * 30)
            pt = pack(seq, sigma)
            s = construct(pt, tau, mode="random")
            _, j, e, p, typ = build_tprime(pt, s).runs
            got = list(zip(j.tolist(), e.tolist(), p.tolist(), typ.tolist()))
            assert got == _brute_runs(seq, tau, s.positions)
            assert j[0] == 1 and e[-1] == len(seq) + 1
    # tau 12 and 15 reach periods 4 and 5, whose multiples up to tau/3
    # are periods too; sigma 256, 1000 and 2**33 keep a uint8, a uint16
    # and an int64 copy of the symbols, which the period test reads.  No
    # tau fits 3tau symbols of 34 bits in one key column, so the runs of
    # sigma = 2**33 come through LceIndex, whose answers are checked too.
    # A stretch of period tau // 3 sits between two mosaics
    for sigma, tau, head, tail in ((2, 12, [0, 1, 1, 0], [1, 0, 0]),
                                   (4, 15, [2, 0, 3, 1, 1], [3, 0, 1, 2]),
                                   (4, 12, [1, 1], [2, 3]),
                                   (256, 9, [255, 0, 7], [200, 1]),
                                   (1000, 6, [999, 3], [512]),
                                   (2 ** 33, 6, [2 ** 33 - 1, 5], [2 ** 32]),
                                   (2 ** 33, 9, [7, 2 ** 32, 7], [1, 2])):
        for _ in range(2):
            block = random_text(rng, tau // 3, sigma)
            seq = (head * 30 + periodic_mosaic(rng, rng.randrange(100, 600),
                                               sigma) + block * 12
                   + periodic_mosaic(rng, rng.randrange(50, 300), sigma)
                   + tail * 30)
            pt = pack(seq, sigma)
            idx = LceIndex(pt, tau)
            _, j, e, p, typ = find_runs(pt, tau, idx.sync.positions)
            got = list(zip(j.tolist(), e.tolist(), p.tolist(), typ.tolist()))
            assert got == _brute_runs(seq, tau, idx.sync.positions), \
                (sigma, tau)
            assert j[0] == 1 and e[-1] == len(seq) + 1
            n = len(seq)
            i = [rng.randrange(1, n + 1) for _ in range(100)]
            # half the pairs a short shift apart, inside runs as often
            k = [min(n, a + rng.randrange(12)) for a in i[:50]] + [
                rng.randrange(1, n + 1) for _ in range(50)]
            want = [naive_lce(seq, a, b) for a, b in zip(i, k)]
            assert [idx.query(a, b) for a, b in zip(i, k)] == want
            assert idx.query_many(i, k).tolist() == want


def test_round_trip_random(rng):
    for sigma in (2, 4, 64):
        for _ in range(8):
            seq = random_text(rng, rng.randrange(1, 800), sigma)
            res = build_bwt(pack(seq, sigma))
            assert list(invert_bwt(res)) == seq


def test_round_trip_small_exhaustive():
    for n in range(1, 10):
        for seq in all_binary_texts(n):
            res = build_bwt(pack(seq, 2))
            assert list(invert_bwt(res)) == seq


def test_force_naive_agrees(rng):
    for _ in range(10):
        seq = random_text(rng, rng.randrange(5, 400), 4)
        pt = pack(seq, 4)
        a = build_bwt(pt)
        b = build_bwt(pt, force_naive=True)
        assert list(a.bwt) == list(b.bwt)
        assert a.primary_index == b.primary_index
        assert b.meta["pipeline"] == "naive-fallback"


@pytest.mark.parametrize("sigma", [2, 256, 300, 70000])
def test_backends_share_one_read_out(rng, sigma):
    # both backends read the transform out of their row order in one
    # place: equal symbols, primary index, dtype and meta keys, with
    # bytes for sigma <= 256 and int64 above (70000 is stored as uint32)
    pt = pack(random_text(rng, 2000, sigma), sigma)
    sync, naive = build_bwt(pt), build_bwt(pt, force_naive=True)
    assert (sync.meta["pipeline"], naive.meta["pipeline"]) == (
        "sync", "naive-fallback")
    assert np.array_equal(sync.bwt, naive.bwt)
    assert sync.primary_index == naive.primary_index
    want = np.uint8 if sigma <= 256 else np.int64
    assert sync.bwt.dtype == naive.bwt.dtype == want
    assert sync.meta.keys() == naive.meta.keys()


def test_meta_rounds_are_the_folds_of_the_suffix_sort_that_ran(rng):
    # the naive backend sorts the text, the sync pipeline the reduced
    # string of its seed-0 random set
    base = random_text(rng, 200, 4)
    seq = base * 15
    pt = pack(seq, 4)
    naive = build_bwt(pt, force_naive=True)
    assert naive.meta["rounds"] == SuffixArrayIndex(seq).rounds
    assert len(naive.meta["rounds"]) >= 2
    sync = build_bwt(pt)
    s = construct(pt, sync.meta["tau"], mode="random", seed=0)
    reduced = sort_sync_suffixes(pt, s)[1]
    assert sync.meta["rounds"] == reduced.rounds


def test_meta_fields(rng):
    seq = random_text(rng, 300, 4)
    res = build_bwt(pack(seq, 4), tau=3)
    assert res.meta["n"] == 300
    assert res.meta["sigma"] == 4
    assert res.meta["tau"] == 3
    assert res.meta["primary_index"] == res.primary_index
    assert res.meta["pipeline"] == "sync"
    assert res.meta["sync_size"] > 0
    assert res.meta["sync_size"] == len(
        construct(pack(seq, 4), 3, mode="random", seed=0))


def test_tau_must_be_a_positive_integer(rng):
    pt = pack(random_text(rng, 200, 2), 2)
    for tau in (2.7, 3.0, True, "3", 0, -1):
        with pytest.raises(ValueError, match="tau must be a positive integer"):
            build_bwt(pt, tau)
    res = build_bwt(pt, np.int64(3))
    assert res.meta["tau"] == 3 and type(res.meta["tau"]) is int
    assert res.bwt.tolist() == build_bwt(pt, 3).bwt.tolist()


def test_tiny_text_falls_back():
    res = build_bwt(pack([1, 0, 1], 2), tau=2)
    assert res.meta["pipeline"] == "naive-fallback"
    assert list(invert_bwt(res)) == [1, 0, 1]


def test_write_read_round_trip(tmp_path, rng):
    seq = random_text(rng, 120, 16)
    res = build_bwt(pack(seq, 16))
    bp, mp = tmp_path / "t.bwt", tmp_path / "t.meta"
    write_bwt(res, bp, mp)
    lines = mp.read_text().splitlines()
    assert lines[0] == "n=120"
    assert "primary_index=%d" % res.primary_index in lines
    back = read_bwt(bp, mp)
    assert list(back.bwt) == list(res.bwt)
    assert back.primary_index == res.primary_index
    assert list(invert_bwt(back)) == seq
    # sidecars of earlier versions also name their range counter
    mp.write_text(mp.read_text() + "range_count=fenwick\n")
    back = read_bwt(bp, mp)
    assert back.meta["range_count"] == "fenwick"
    assert list(invert_bwt(back)) == seq


def test_read_rejects_length_mismatch(tmp_path, rng):
    seq = random_text(rng, 60, 4)
    res = build_bwt(pack(seq, 4))
    bp, mp = tmp_path / "t.bwt", tmp_path / "t.meta"
    write_bwt(res, bp, mp)
    bp.write_bytes(bp.read_bytes()[:-1])
    with pytest.raises(ValueError):
        read_bwt(bp, mp)


@pytest.mark.parametrize("line", ["primary_index=0", "primary_index=61",
                                  "sigma=2", "sigma=four"])
def test_read_rejects_out_of_range_fields(tmp_path, line):
    seq = [3, 0, 2, 1] * 15
    bp, mp = tmp_path / "t.bwt", tmp_path / "t.meta"
    write_bwt(build_bwt(pack(seq, 4)), bp, mp)
    key = line.split("=")[0]
    kept = [ln for ln in mp.read_text().splitlines()
            if not ln.startswith(key + "=")]
    mp.write_text("\n".join(kept + [line]) + "\n")
    with pytest.raises(ValueError):
        read_bwt(bp, mp)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=60))
def test_bwt_property(seq):
    res = build_bwt(pack(seq, 4))
    want_bwt, want_primary = naive_bwt(seq)
    assert list(res.bwt) == want_bwt
    assert res.primary_index == want_primary


def test_sync_path_encodes_the_windows_once(monkeypatch, rng):
    # the 3tau-window keys give the set's tau windows, the reduced
    # string's symbols and the emission windows
    calls = []
    doubled = packed_text._doubled_keys
    monkeypatch.setattr(packed_text, "_doubled_keys",
                        lambda *a: calls.append(1) or doubled(*a))
    for sigma in (2, 4, 256):
        seq = random_text(rng, 3000, sigma)
        pt = pack(seq, sigma)
        del calls[:]
        res = build_bwt(pt)
        assert res.meta["pipeline"] == "sync"
        assert len(calls) == 1, sigma
        assert (res.bwt.tolist(), res.primary_index) == naive_bwt(seq)


def test_naive_bwt_peak_memory():
    # the suffix sort's one-column start frees its padded symbols before
    # the sort and keeps no keys through the rounds, so the doubling
    # rounds set the peak, about 65 bytes a symbol
    n = 1 << 18
    pt = pack(np.random.default_rng(2).integers(0, 2, n).astype(np.uint8), 2)
    tracemalloc.start()
    try:
        build_bwt(pt, force_naive=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 66 * n, peak / n


def test_sync_bwt_peak_memory():
    # the emission column is built in place over the 3tau-window keys,
    # with int32 ties and narrow ids in the construction, so the window
    # keys' doubling sets the peak, about 25 bytes a symbol; the int64
    # ties, lengths and packed column of the emission read 56
    n = 1 << 18
    pt = pack(np.random.default_rng(2).integers(0, 2, n).astype(np.uint8), 2)
    tracemalloc.start()
    try:
        res = build_bwt(pt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.meta["pipeline"] == "sync"
    assert peak <= 37 * n, peak / n


@pytest.mark.parametrize("sigma", [1 << 33, 1 << 41])
def test_round_trip_huge_alphabet(sigma):
    # invert_bwt counts the symbols below the primary slot's symbol
    # instead of building a table as large as the alphabet
    res = build_bwt(pack([5, 2 ** 32, 3, 2 ** 32, 0], sigma))
    assert invert_bwt(res).tolist() == [5, 2 ** 32, 3, 2 ** 32, 0]
    rng = random.Random(sigma)
    seq = [rng.choice([0, 1, 7, sigma // 2, sigma - 1]) if rng.random() < 0.5
           else rng.randrange(sigma) for _ in range(300)]
    res = build_bwt(pack(seq, sigma))
    assert invert_bwt(res).tolist() == seq


def _walk_inverse(bwt, p):
    # the one-step-per-symbol walk of the 1-based last-to-first mapping
    bwt = np.asarray(bwt, dtype=np.int64)
    n = len(bwt)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(bwt, kind="stable")] = np.arange(n)
    lf = rank + 1
    lf[(np.arange(n) < p - 1) & (bwt == bwt[p - 1])] += 1
    lf[p - 1] = int(np.count_nonzero(bwt < bwt[p - 1])) + 1
    out = np.zeros(n, dtype=np.int64)
    lf_l, bwt_l = lf.tolist(), bwt.tolist()
    i = p
    for k in range(n - 1, -1, -1):
        out[k] = bwt_l[i - 1]
        i = lf_l[i - 1]
    return out


def _same_as_walk(bwt, p):
    got = invert_bwt(SimpleNamespace(bwt=bwt, primary_index=p))
    want = _walk_inverse(bwt, p)
    assert got.dtype == np.int64 and got.tolist() == want.tolist(), p


def test_invert_bwt_matches_the_walk_at_every_primary_index():
    # LF is a permutation for every (bwt, p), valid transform or not, so
    # the strided walk reads the same symbols as the one-step walk
    gen = np.random.default_rng(24)
    for n in (1, 2, 31, 32, 33, 65, 1000):
        for sigma in (2, 4, 256):
            bwt = gen.integers(0, sigma, n).astype(np.uint8)
            for p in range(1, n + 1):
                _same_as_walk(bwt, p)


def test_invert_bwt_matches_the_walk_on_periodic_texts():
    for n in (1, 2, 31, 32, 33, 65, 1000):
        for seq in ([0] * n, ([0, 1] * n)[:n], ([0, 0, 1] * n)[:n],
                    ([2, 0, 1] * n)[:n]):
            res = build_bwt(pack(seq, max(2, max(seq) + 1)))
            assert invert_bwt(res).tolist() == seq
            # the periodic sequences as transforms themselves
            for p in range(1, n + 1):
                _same_as_walk(np.array(seq, dtype=np.uint8), p)


def test_invert_bwt_matches_the_walk_on_wide_symbols():
    bwt = [5, 2 ** 32, 3, 2 ** 32, 0, 7, 2 ** 32, 1] * 9
    for p in range(1, len(bwt) + 1):
        _same_as_walk(bwt, p)
    res = build_bwt(pack([5, 2 ** 32, 3, 2 ** 32, 0], 1 << 33))
    back = invert_bwt(SimpleNamespace(bwt=res.bwt.tolist(),
                                      primary_index=res.primary_index))
    assert back.dtype == np.int64
    assert back.tolist() == [5, 2 ** 32, 3, 2 ** 32, 0]


def test_invert_bwt_peak_memory():
    # the ranks, two powers of LF and the int64 output, about 26 bytes a
    # symbol; the one-step walk kept Python lists of both arrays, 88
    n = 1 << 18
    seq = np.random.default_rng(3).integers(0, 2, n).astype(np.uint8)
    res = build_bwt(pack(seq, 2))
    tracemalloc.start()
    try:
        back = invert_bwt(res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, seq)
    assert peak <= 40 * n, peak / n
