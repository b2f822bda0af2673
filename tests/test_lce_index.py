import pytest

from sst.lce_index import LceIndex, default_tau
from sst.packed_text import pack
from sst.reference_oracles import naive_lce

from conftest import (all_binary_texts, fibonacci_word, full_profile,
                      periodic_mosaic, random_text)


def _check_all_pairs(seq, tau=None):
    pt = pack(seq, max(2, max(seq) + 1))
    idx = LceIndex(pt, tau=tau)
    n = len(seq)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert idx.query(i, j) == naive_lce(seq, i, j), (seq, tau, i, j)


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


def test_default_tau_monotone_caps():
    assert default_tau(1, 2) == 1
    for n in (10, 1000, 10 ** 6):
        t = default_tau(n, 2)
        assert 1 <= t <= n // 2 or n < 2


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
