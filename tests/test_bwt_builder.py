import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sst.bwt_builder import (build_bwt, count_freq, derive_runs, invert_bwt,
                             offline_range_count, read_bwt, write_bwt)
from sst.packed_text import extract, pack, substring_period
from sst.sync_set import construct
from sst.reference_oracles import naive_bwt

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
    for seq in ([0] * 400, [0, 1] * 200, [0, 0, 1] * 133,
                fibonacci_word(300), thue_morse(300)):
        _check(seq)
        for tau in (2, 5):
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


def test_count_freq_matches_counter(rng):
    from collections import Counter
    seq = random_text(rng, 300, 4)
    pt = pack(seq, 4)
    for ell in (1, 2, 5, 9):
        ft = count_freq(pt, ell)
        want = Counter(extract(pt, i, ell).value
                       for i in range(1, 300 - ell + 2))
        assert ft.total() == 300 - ell + 1
        for key, cnt in want.items():
            assert ft.get(key) == cnt
        assert ft.get(-1) == 0
    assert count_freq(pt, 301).total() == 0


def test_offline_range_count_frozen():
    assert offline_range_count([(1, 1), (2, 2)], [(1, 2)]) == [2]
    assert offline_range_count([], [(0, 5)]) == [0]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                max_size=40),
       st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                min_size=1, max_size=10))
def test_offline_range_count_property(points, queries):
    got = offline_range_count(points, queries)
    for (xmin, ymax), cnt in zip(queries, got):
        assert cnt == sum(1 for x, y in points if x >= xmin and y <= ymax)


def test_derive_runs_structure():
    seq = [1, 0, 1] + [0, 1] * 20 + [1, 1, 0, 0, 1, 0, 1, 1, 0]
    pt = pack(seq, 2)
    tau = 6
    s = construct(pt, tau, mode="fast")
    runs, roots = derive_runs(pt, tau, s)
    assert runs
    for run in runs:
        # run start is highly periodic and the root id indexes a
        # primitive minimal rotation
        p = substring_period(pt, run.j, 3 * tau - 1)
        assert 3 * p <= tau
        assert 0 <= run.lroot_id < len(roots)
        assert run.type in (-1, 1)


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


def test_meta_fields(rng):
    seq = random_text(rng, 300, 4)
    res = build_bwt(pack(seq, 4), tau=3)
    assert res.meta["n"] == 300
    assert res.meta["sigma"] == 4
    assert res.meta["tau"] == 3
    assert res.meta["primary_index"] == res.primary_index
    assert res.meta["pipeline"] == "sync"
    assert res.meta["range_count"] == "fenwick"
    assert res.meta["sync_size"] > 0
    assert res.meta["sync_size"] == len(construct(pack(seq, 4), 3))


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


def test_read_rejects_length_mismatch(tmp_path, rng):
    seq = random_text(rng, 60, 4)
    res = build_bwt(pack(seq, 4))
    bp, mp = tmp_path / "t.bwt", tmp_path / "t.meta"
    write_bwt(res, bp, mp)
    bp.write_bytes(bp.read_bytes()[:-1])
    with pytest.raises(ValueError):
        read_bwt(bp, mp)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=60))
def test_bwt_property(seq):
    res = build_bwt(pack(seq, 4))
    want_bwt, want_primary = naive_bwt(seq)
    assert list(res.bwt) == want_bwt
    assert res.primary_index == want_primary
