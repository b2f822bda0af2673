import pytest

from sst.suffix_core import SuffixArrayIndex, build_suffix_array
from sst.reference_oracles import (doubling_suffix_array, naive_lce,
                                   naive_suffix_array)

from conftest import all_binary_texts, random_text


def test_banana_suffix_array():
    assert build_suffix_array("banana").sa.tolist() == [6, 4, 2, 1, 5, 3]


def test_exhaustive_small_binary():
    for n in range(1, 11):
        for seq in all_binary_texts(n):
            assert build_suffix_array(seq).sa.tolist() == \
                naive_suffix_array(seq)


def test_random_texts_match_oracles(rng):
    for sigma in (2, 4, 16, 256):
        for _ in range(15):
            seq = random_text(rng, rng.randrange(1, 300), sigma)
            sa = build_suffix_array(seq).sa.tolist()
            assert sa == naive_suffix_array(seq)
            assert sa == doubling_suffix_array(seq)


def test_empty_sequence():
    idx = SuffixArrayIndex([])
    assert len(idx.sa) == 0


def test_isa_inverts_sa(rng):
    seq = random_text(rng, 150, 3)
    idx = SuffixArrayIndex(seq)
    for r, p in enumerate(idx.sa, 1):
        assert idx.isa[p - 1] == r


def test_lcp_array_definition(rng):
    seq = random_text(rng, 200, 2)
    idx = SuffixArrayIndex(seq)
    # lcp[r] is the extension between rank-r and rank-(r+1) suffixes
    for r in range(len(seq) - 1):
        assert idx.lcp[r] == naive_lce(seq, int(idx.sa[r]),
                                       int(idx.sa[r + 1]))


def test_lce_all_pairs(rng):
    for sigma in (2, 4):
        seq = random_text(rng, 70, sigma)
        idx = SuffixArrayIndex(seq)
        for i in range(1, 71):
            for j in range(1, 71):
                assert idx.lce(i, j) == naive_lce(seq, i, j)


def test_lce_identical_suffix():
    idx = SuffixArrayIndex([0, 1, 0])
    assert idx.lce(2, 2) == 2


def test_lce_out_of_range():
    idx = SuffixArrayIndex([0, 1])
    with pytest.raises(IndexError):
        idx.lce(0, 1)
    with pytest.raises(IndexError):
        idx.lce(1, 3)
