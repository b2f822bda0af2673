import itertools
import random

import numpy as np
import pytest

from sst.lce_index import LceIndex
from sst.packed_text import lcp_fragments_many, pack
from sst import suffix_core
from sst.suffix_core import (SuffixArrayIndex, _bit_length, _build_sparse_min,
                             _range_min, _range_min_many, build_suffix_array)
from sst.reference_oracles import (doubling_suffix_array, naive_lce,
                                   naive_suffix_array)

from conftest import (all_binary_texts, fibonacci_word, periodic_mosaic,
                      random_text)


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


def test_lcp_by_lifting_matches_brute_force(rng):
    texts = [[0], [1, 1], [0, 1], fibonacci_word(300), [0] * 257]
    for sigma in (2, 4, 256):
        texts += [random_text(rng, rng.randrange(3, 400), sigma),
                  periodic_mosaic(rng, rng.randrange(3, 400), sigma)]
    for seq in texts:
        idx = SuffixArrayIndex(seq)
        sa = idx.sa.tolist()
        want = [naive_lce(seq, a, b) for a, b in zip(sa, sa[1:])]
        assert idx.lcp.tolist() == want, seq


def _rank_pairs(n):
    a, b = np.triu_indices(n, 1)
    return a.astype(np.int64), b.astype(np.int64)


def test_lce_many_matches_lce(rng):
    # one vectorised range minimum per level agrees with the scalar one
    for seq in (random_text(rng, 90, 2), periodic_mosaic(rng, 90, 4), [3]):
        table = _build_sparse_min(SuffixArrayIndex(seq).lcp)
        a, b = _rank_pairs(len(seq))
        got = _range_min_many(table, a, b)
        assert got.tolist() == [_range_min(table, x, y)
                                for x, y in zip(a.tolist(), b.tolist())]


def test_lce_all_pairs(rng):
    # the common prefix of the suffixes of ranks a < b is the minimum
    # of the LCP array over [a..b-1]
    for sigma in (2, 4):
        for seq in (random_text(rng, 70, sigma),
                    periodic_mosaic(rng, 70, sigma)):
            idx = SuffixArrayIndex(seq)
            table = _build_sparse_min(idx.lcp)
            sa = idx.sa.tolist()
            a, b = _rank_pairs(len(seq))
            want = [naive_lce(seq, sa[x], sa[y])
                    for x, y in zip(a.tolist(), b.tolist())]
            assert _range_min_many(table, a, b).tolist() == want
            assert [_range_min(table, x, y) for x, y in
                    zip(a.tolist(), b.tolist())] == want


def test_lce_identical_suffix():
    # a suffix shares its whole length with itself, which no LCP entry
    # holds; the index answers i == j without a range minimum
    seq = [0, 1, 0]
    idx = LceIndex(pack(seq, 2))
    assert idx.query(2, 2) == 2 == naive_lce(seq, 2, 2)


def test_without_lcp_keeps_no_ranks_and_refuses_lcp(rng):
    seq = random_text(rng, 300, 2)
    full = SuffixArrayIndex(seq)
    bare = build_suffix_array(seq, with_lcp=False)
    assert bare.sa.tolist() == full.sa.tolist()
    assert bare.isa.tolist() == full.isa.tolist()
    assert bare.lcp is None and len(full.lcp) == len(seq) - 1


def test_lcp_past_int16_ranks_on_repeats():
    # n = 2^15 + 5 lies just past where the kept ranks turn from int16
    # to int32; mutated copies of one base make common prefixes of
    # thousands of symbols, so the lifting reads a dozen kept rounds
    rng = random.Random(15)
    base = random_text(rng, 3000, 4)
    seq = []
    while len(seq) < (1 << 15) + 5:
        copy = list(base)
        for _ in range(3):
            copy[rng.randrange(len(copy))] = rng.randrange(4)
        seq += copy
    seq = seq[:(1 << 15) + 5]
    n = len(seq)
    idx = SuffixArrayIndex(seq)
    sa = idx.sa
    assert sorted(sa.tolist()) == list(range(1, n + 1))
    want = lcp_fragments_many(pack(seq, 4), sa[:-1], sa[1:], n)
    assert want.max() > 2000
    assert np.array_equal(idx.lcp, want)
    # each adjacent pair is in order: past the common prefix the first
    # suffix has the smaller symbol, or -1 where it ended
    arr = np.array(seq + [-1])
    assert np.all(arr[sa[:-1] - 1 + want] < arr[sa[1:] - 1 + want])


def test_negative_values_sort_like_the_oracle():
    seq = [-3, 5, -3, 2]
    assert build_suffix_array(seq).sa.tolist() == [3, 1, 4, 2]
    assert naive_suffix_array(seq) == [3, 1, 4, 2]


def test_rejects_float_values():
    # truncated to [0, 0, 0], these sorted as [3, 2, 1]; the values sort
    # as [2, 1, 3]
    with pytest.raises(ValueError, match="1-D sequence of integers"):
        build_suffix_array([0.5, 0.2, 0.7])


def test_rejects_digit_strings():
    with pytest.raises(ValueError, match="1-D sequence of integers"):
        build_suffix_array(["1", "0"])


def test_rejects_two_dimensional_input():
    with pytest.raises(ValueError, match="1-D sequence of integers"):
        build_suffix_array([[0, 1], [1, 0]])


def test_rejects_uint64_past_int64():
    # 2**63 would wrap to the smallest int64 and sort first
    with pytest.raises(ValueError, match="below 2\\*\\*63"):
        build_suffix_array(np.array([1 << 63, 1], dtype=np.uint64))
    ok = np.array([(1 << 63) - 1, 1], dtype=np.uint64)
    assert build_suffix_array(ok).sa.tolist() == [2, 1]


def _check_index(seq):
    """sa, isa and lcp of seq against the oracles."""
    vals = [int(v) for v in seq]
    idx = SuffixArrayIndex(seq)
    sa = idx.sa.tolist()
    assert sa == naive_suffix_array(vals), vals
    assert idx.isa.tolist() == [sa.index(p) + 1 for p in range(1, len(sa) + 1)]
    assert idx.lcp.tolist() == [naive_lce(vals, a, b)
                                for a, b in zip(sa, sa[1:])], vals
    return idx


def _width(n, u):
    """The start's column: c symbols of bit_length(u) bits and the row
    index of n rows fit 63 bits, cut to n."""
    return min(n, (63 - (n - 1).bit_length()) // u.bit_length())


def test_start_on_every_short_sequence():
    vals = [-(1 << 63), -1, 0, 1, 5, (1 << 63) - 1]
    for n in range(3):
        for seq in itertools.product(vals, repeat=n):
            _check_index(np.array(seq, dtype=np.int64))


def test_start_on_permutations_and_near_permutations(rng):
    # a permutation of lo..lo+n-1 ranks without a sort; one repeat makes
    # the same span take the key column
    for n in (1, 2, 3, 17, 64, 200):
        for lo in (0, -7, -(1 << 63), (1 << 63) - n):
            perm = list(range(n))
            rng.shuffle(perm)
            idx = _check_index(np.array(perm, dtype=np.int64) + lo)
            assert idx.lcp.tolist() == [0] * (n - 1)
            if n > 1:
                near = list(perm)
                near[rng.randrange(n)] = near[rng.randrange(n)]
                _check_index(np.array(near, dtype=np.int64) + lo)


def test_start_on_extreme_values(rng):
    ends = [-(1 << 63), (1 << 63) - 1]
    for n in (3, 40, 150):
        _check_index(np.array([rng.choice(ends) for _ in range(n)],
                              dtype=np.int64))
        _check_index(np.array([rng.randrange(1 << 63) for _ in range(n)],
                              dtype=np.uint64))
        # sigma = 2^62: the span exceeds n, so the symbols are dense ranks
        _check_index(np.array([rng.choice([0, 1, (1 << 62) - 1]) if
                               rng.random() < 0.5 else rng.randrange(1 << 62)
                               for _ in range(n)], dtype=np.int64))


def test_start_on_unary_text_around_three_columns():
    for n in range(2, 400):
        c = _width(n, 1)
        if n in (3 * c - 1, 3 * c + 1):
            idx = _check_index(np.full(n, 9, dtype=np.int64))
            assert idx.lcp.tolist() == list(range(1, n))


def test_start_on_common_prefixes_around_one_column(rng):
    # a random block A over 1..4 planted twice, each copy followed by
    # its own separator: the longest common prefix is |A|
    for sigma in (4, 16):
        for n in (100, 300):
            c = _width(n, sigma + 2)
            for length in (c - 1, c, c + 1, 2 * c):
                block = [rng.randrange(1, sigma + 1) for _ in range(length)]
                tail = [rng.randrange(1, sigma + 1)
                        for _ in range(n - 2 * length - 2)]
                seq = block + [0] + block + [sigma + 1] + tail
                idx = _check_index(np.array(seq, dtype=np.int64))
                assert int(idx.lcp.max()) == length, (sigma, n, length)


def test_start_column_is_the_widest_that_fits(monkeypatch, rng):
    # the key column's top digit holds the largest symbol u, so its
    # largest key has c * b bits; with the row index those fit the 63
    # bits of _sort's value sort, and one more symbol would not
    cols = []
    ranks = suffix_core.dense_ranks
    monkeypatch.setattr(suffix_core, "dense_ranks",
                        lambda c: cols.append(c[0]) or ranks(c))
    for sigma, n in ((1, 5), (2, 40), (2, 1 << 12), (4, 3000), (256, 5000),
                     (1000, 1 << 16)):
        del cols[:]
        seq = np.array([rng.randrange(sigma) for _ in range(n)])
        seq[:2] = sigma - 1, 0
        SuffixArrayIndex(seq, with_lcp=False)
        b, row = sigma.bit_length(), (n - 1).bit_length()
        top = int(cols[0].max()).bit_length()
        assert top % b == 0 and top + row <= 63, (sigma, n)
        assert top // b == n or top + b + row > 63, (sigma, n)


def test_bit_length_at_powers_of_two():
    # float64 rounds 2^k - 1 up to 2^k for k > 53
    xs = [(1 << k) - 1 for k in range(1, 64)] + [1 << k for k in range(63)]
    got = _bit_length(np.array(xs, dtype=np.int64))
    assert got.tolist() == [x.bit_length() for x in xs]
