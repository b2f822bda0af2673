import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sst.packed_text import (_column_symbols, dense_ranks, doubled_classes,
                             lcp_fragments_many, pack, pack_columns,
                             sort_rows, window_keys)
from sst.reference_oracles import naive_lce

from conftest import periodic_mosaic, random_text


def test_pack_round_trip(rng):
    for sigma in (2, 3, 4, 16, 200, 256):
        seq = random_text(rng, 97, sigma)
        pt = pack(seq, sigma)
        assert pt.n == 97
        assert pt.to_list() == seq
    # bools and unsigned arrays are integers too
    assert pack(np.array([True, False]), 2).to_list() == [1, 0]
    assert pack(np.array([7, 0], dtype=np.uint64), 8).to_list() == [7, 0]


def test_pack_rejects_out_of_range():
    with pytest.raises(ValueError):
        pack([0, 3], 3)
    with pytest.raises(ValueError):
        pack([-1], 2)


def test_pack_rejects_floats():
    with pytest.raises(ValueError):
        pack([0.9, 1.7, 0.2], 2)


def test_pack_rejects_strings():
    with pytest.raises(ValueError):
        pack(["1", "0", "1"], 2)


def test_pack_rejects_two_dimensional_input():
    with pytest.raises(ValueError):
        pack([[0, 1], [1, 0]], 2)


def test_pack_rejects_sigma_past_the_key_column():
    # 2**62 symbols still fit one window key column; one more does not
    with pytest.raises(ValueError):
        pack([0, 1], (1 << 62) + 1)
    assert pack([0, (1 << 62) - 1], 1 << 62).to_list() == [0, (1 << 62) - 1]


@pytest.mark.parametrize("sigma", [2, 3, 5, 200, 256, 257, 1 << 20, 1 << 62])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
def test_pack_words_match_bitwise_reference(sigma, n):
    rng = random.Random(sigma * 1000 + n)
    seq = [rng.randrange(sigma) for _ in range(n)]
    pt = pack(seq, sigma)
    bits = max(1, (sigma - 1).bit_length())
    want = [0] * -(-n * bits // 64)
    for k in range(n * bits):
        if seq[k // bits] >> (k % bits) & 1:
            want[k // 64] |= 1 << (k % 64)
    assert pt.words.tolist() == want
    assert pt.symbols.dtype == (np.uint8 if sigma <= 1 << 8 else
                                np.uint16 if sigma <= 1 << 16 else
                                np.uint32 if sigma <= 1 << 32 else np.int64)


@pytest.mark.parametrize("sigma", [2, 256, 1000])
def test_pack_peak_memory(sigma):
    # the encoder reads each byte's bits once: about 10 bytes a symbol
    # at sigma <= 256, against 24 and 89 for a shift matrix of uint64
    # rows; at sigma = 1000 a uint16 copy and its unpacked bits take
    # about 29, against 83 for an int64 copy
    n = 1 << 20
    arr = np.random.default_rng(sigma).integers(0, sigma, n)
    if sigma <= 256:
        arr = arr.astype(np.uint8)
    bound = 12 if sigma <= 256 else 40
    tracemalloc.start()
    try:
        pack(arr, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * n, peak / n


def test_extract_matches_digits(rng):
    # a window's key reads as a base-sigma number, most significant
    # symbol first, for every length of one key column
    for sigma in (2, 5, 16):
        seq = random_text(rng, 80, sigma)
        pt = pack(seq, sigma)
        for ln in range(1, _column_symbols(sigma) + 1):
            keys = window_keys(pt, ln, 80 - ln + 1)
            for i in rng.sample(range(1, 80 - ln + 2), 5):
                want = 0
                for c in seq[i - 1:i - 1 + ln]:
                    want = want * sigma + c
                assert keys[i - 1] == want, (sigma, ln, i)


def test_key_order_is_lex_order(rng):
    # equal-length fragment keys compare exactly like the fragments
    seq = random_text(rng, 50, 4)
    pt = pack(seq, 4)
    keys = window_keys(pt, 7, 44)
    for _ in range(200):
        i, j = rng.randrange(1, 45), rng.randrange(1, 45)
        a, b = int(keys[i - 1]), int(keys[j - 1])
        assert (a < b) == (seq[i - 1:i + 6] < seq[j - 1:j + 6])


def _lcp(pt, i, j, cap):
    """lcp_fragments_many on one pair, through one-element arrays."""
    return int(lcp_fragments_many(pt, [i], [j], [cap])[0])


def test_lcp_fragments_frozen():
    pt = pack([ord(c) - ord("a") for c in "abaababa"], 2)
    assert _lcp(pt, 1, 4, 3) == 3


def test_lcp_fragments_matches_naive(rng):
    for sigma in (2, 4, 30):
        seq = random_text(rng, 120, sigma)
        pt = pack(seq, sigma)
        for _ in range(150):
            i, j = rng.randrange(1, 121), rng.randrange(1, 121)
            cap = rng.randrange(0, 130)
            assert _lcp(pt, i, j, cap) == min(cap, naive_lce(seq, i, j))


def test_lcp_fragments_self():
    pt = pack([1, 1, 0, 1], 2)
    assert _lcp(pt, 2, 2, 99) == 3


def test_bulk_keys_matches_extract(rng):
    # a count k gives the first k keys of any larger count, and the
    # windows at starts past n read as all zeros
    seq = random_text(rng, 70, 4)
    pt = pack(seq, 4)
    for ln in (1, 3, 8, 31):
        full = window_keys(pt, ln, 75)
        assert len(full) == 75 and not full[70:].any()
        for k in (0, 1, 2, 35, 70 - ln + 1, 70):
            assert window_keys(pt, ln, k).tolist() == full[:k].tolist()


def test_bulk_keys_dtype_is_int64(rng):
    pt = pack(random_text(rng, 30, 2), 2)
    assert window_keys(pt, 20, 11).dtype == np.int64
    assert window_keys(pt, 20, 0).dtype == np.int64


@pytest.mark.parametrize("sigma", [2, 3, 256, 1 << 20, 1 << 62])
def test_window_keys_lengths_within_one_column(sigma):
    # windows of 1..c symbols, c one key column's worth; a count of 0
    # gives no keys
    pt = pack([sigma - 1] * 80, sigma)
    c = _column_symbols(sigma)
    for length in (0, c + 1):
        with pytest.raises(ValueError):
            window_keys(pt, length, 5)
    assert window_keys(pt, c, 0).tolist() == []
    assert window_keys(pt, c, 1).tolist() == [sigma ** c - 1]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=2, max_size=40),
       st.data())
def test_lcp_fragments_property(seq, data):
    pt = pack(seq, 4)
    i = data.draw(st.integers(1, len(seq)))
    j = data.draw(st.integers(1, len(seq)))
    cap = data.draw(st.integers(0, 50))
    assert _lcp(pt, i, j, cap) == min(cap, naive_lce(seq, i, j))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 16, 256]), st.integers(1, 300),
       st.integers(0, 2 ** 32), st.data())
def test_lcp_fragments_many_matches_scalar(sigma, n, seed, data):
    # periodic stretches make matches that run over several words
    seq = periodic_mosaic(random.Random(seed), n, sigma)
    pt = pack(seq, sigma)
    pos = st.integers(1, n)
    rows = data.draw(st.lists(st.tuples(pos, pos, st.integers(-1, n + 2)),
                              max_size=40))
    i, j, cap = (np.array([r[t] for r in rows], dtype=np.int64)
                 for t in range(3))
    # a cap below 0 gives 0, one past n + 1 - max(i, j) gives the LCE
    want = [max(0, min(c, naive_lce(seq, a, b))) for a, b, c in rows]
    assert lcp_fragments_many(pt, i, j, cap).tolist() == want
    assert lcp_fragments_many(pt, i, j, n).tolist() == [
        naive_lce(seq, a, b) for a, b, _ in rows]
    with pytest.raises(IndexError):
        lcp_fragments_many(pt, [1], [n + 1], n)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([([3, 5, 7], 1), ([2 ** 31, 2 ** 31], 1),
                        ([2 ** 32, 2 ** 31], 2), ([2 ** 40, 2 ** 30], 2),
                        ([2, 2 ** 61, 5, 2 ** 40], 2),
                        ([2 ** 61, 2 ** 61, 2 ** 61], 3)]),
       st.integers(0, 25), st.data())
def test_pack_columns_ranks_like_tuples(shape, m, data):
    radices, ncols = shape
    rows = [tuple(data.draw(st.one_of(st.integers(0, 2), st.just(r - 1),
                                      st.integers(0, r - 1)))
                  for r in radices) for _ in range(m)]
    fields = [(np.array([row[f] for row in rows], dtype=np.int64), r)
              for f, r in enumerate(radices)]
    cols = pack_columns(fields, m)
    assert len(cols) == ncols
    order = sorted(set(rows))
    assert dense_ranks(cols).tolist() == [order.index(row) for row in rows]


def _horner_key(seq, sigma, i, length):
    # the key of T[i..i+length), zeros read past the text end
    v = 0
    for t in range(i - 1, i - 1 + length):
        v = v * sigma + (seq[t] if t < len(seq) else 0)
    return v


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 4, 16, 256, 1 << 20, 1 << 62]),
       st.integers(1, 200), st.integers(0, 2 ** 32), st.data())
def test_window_keys_matches_horner(sigma, n, seed, data):
    # every length of one column (62, 39, 31, 15, 7, 3 and 1 symbols
    # for these sigma), counts past n - length + 1, so that windows run
    # past the text end, and past n
    seq = periodic_mosaic(random.Random(seed), n, sigma)
    pt = pack(seq, sigma)
    length = data.draw(st.integers(1, _column_symbols(sigma)))
    count = data.draw(st.integers(0, n + 5))
    got = window_keys(pt, length, count)
    assert got.dtype == np.int64
    assert got.tolist() == [_horner_key(seq, sigma, i, length)
                            for i in range(1, count + 1)]
    # the keys rank like the zero-padded windows
    padded = seq + [0] * (length + 5)
    wins = [tuple(padded[i - 1:i - 1 + length]) for i in range(1, count + 1)]
    assert dense_ranks([got]).tolist() == [sorted(set(wins)).index(x)
                                           for x in wins]


def _tuple_ranks(seq, length, count):
    # dense ranks of the fragments seq[i:i+length], i < count, cut short
    # by the end of seq; a proper prefix sorts first, as tuples do
    frags = [tuple(seq[i:i + length]) for i in range(count)]
    order = sorted(set(frags))
    return [order.index(f) for f in frags]


def _doubling_texts(rng, n, sigma):
    return {"random": random_text(rng, n, sigma),
            "period-3": (random_text(rng, 3, sigma) * n)[:n],
            "unary": [sigma - 1] * n}


def _fold(cls, got, length=None):
    # the fold rule: as many digits of bit_length(C) bits as fit 63 bits
    # beside the row index, no more than reach past the end, at least 2,
    # and with a bound no more than reach it
    m = len(cls)
    fit = (63 - (m - 1).bit_length()) // (int(cls.max()) + 1).bit_length()
    k = max(2, min(fit, -(-m // got)))
    return k if length is None else min(k, -(-length // got))


@pytest.mark.parametrize("sigma", [2, 4, 256])
def test_doubled_classes_unbounded_rank_suffixes(rng, sigma):
    # from single symbols with no bound: each round folds k columns by
    # the rule, the length grows k-fold, and the rounds stop at the first
    # one whose classes are all distinct
    for kind, seq in _doubling_texts(rng, 150, sigma).items():
        cls = dense_ranks([np.array(seq)])
        rounds = list(doubled_classes(cls, 1))
        prev, got = cls, 1
        for ranks, k in rounds:
            assert k == _fold(prev, got), kind
            got *= k
            assert ranks.tolist() == _tuple_ranks(seq, got, len(seq)), kind
            prev = ranks
        distinct = [len(set(c.tolist())) == len(seq)
                    for c in [cls] + [r for r, _ in rounds]]
        assert distinct[-1] and not any(distinct[:-1]), kind


@pytest.mark.parametrize("sigma", [2, 3, 4, 16, 256])
def test_doubled_classes_bounded_from_one_key_column(rng, sigma):
    # from the window keys of one column up to a length bound: each round
    # folds k columns by the rule, cut to reach the bound; the starts
    # whose fragment lies in the text rank like tuples after every round
    c = _column_symbols(sigma)
    for length in (c + 1, 2 * c, 2 * c + 7, 5 * c - 3):
        n = length + 40
        for kind, seq in _doubling_texts(rng, n, sigma).items():
            pt = pack(seq, sigma)
            cls = dense_ranks([window_keys(pt, c, n - c + 1)])
            rounds = list(doubled_classes(cls, c, length))
            prev, got = cls, c
            for ranks, k in rounds:
                assert k == _fold(prev, got, length), (kind, length, got)
                got = min(k * got, length)
                fit = n - got + 1
                assert dense_ranks([ranks[:fit]]).tolist() == _tuple_ranks(
                    seq, got, fit), (kind, length, got)
                prev = ranks
            # a round runs only while some class repeats, and the rounds
            # end before the bound only once every class is distinct
            distinct = [len(set(r.tolist())) == len(r)
                        for r in [cls] + [r for r, _ in rounds]]
            assert not any(distinct[:-1]), (kind, length)
            assert got == length or distinct[-1], (kind, length)


def test_doubled_classes_fold_per_round():
    # 150 starts leave 55 bits beside the row index.  Unary text: one
    # class of 1 bit folds 55 columns, then 55 classes of 6 bits fold
    # 9, cut to the 3 that reach past the end.  Period 3: 3 classes of
    # 2 bits fold 27, then 3 + 26 classes of 5 bits fold 11, cut to 6
    for seq, want in (([0] * 150, [55, 3]), ([0, 1, 2] * 50, [27, 6])):
        cls = dense_ranks([np.array(seq)])
        assert [k for _, k in doubled_classes(cls, 1)] == want
    # with a bound of 100 symbols the last unary round folds 2 columns,
    # the second at offset 100 - 55
    cls = dense_ranks([np.zeros(150, dtype=np.int64)])
    assert [k for _, k in doubled_classes(cls, 1, 100)] == [55, 2]


def _check_sorted(cols, order):
    # order is a permutation of the rows that sorts them, and the dense
    # ranks number the distinct rows in that order
    m = len(cols[0])
    rows = list(zip(*[c.tolist() for c in cols]))
    assert sorted(order.tolist()) == list(range(m))
    assert [rows[r] for r in order.tolist()] == sorted(rows)
    want = np.unique(np.stack(cols, axis=1), axis=0, return_inverse=True)[1]
    assert dense_ranks(cols).tolist() == want.reshape(-1).tolist()


def _value_sort_side(monkeypatch, cols):
    """sort_rows' order of cols, and whether it sorted by value (no
    np.argsort call)."""
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort",
                        lambda *a, **k: calls.append(1) or argsort(*a, **k))
    order = sort_rows(cols)
    monkeypatch.undo()
    return order, not calls


@pytest.mark.parametrize("m", [1, 2, 5, 64, 65, 1000])
def test_sort_rows_value_sort_bit_bound(monkeypatch, m):
    # keys of exactly 63 - bit_length(m - 1) bits sort by value; one bit
    # more, and the column takes np.argsort
    rng = np.random.default_rng(m)
    for width, by_value in ((63 - (m - 1).bit_length(), True),
                            (64 - (m - 1).bit_length(), False)):
        if width > 63:
            continue
        top = np.int64((1 << width) - 1)
        col = rng.integers(0, 1 << (width - 1), size=m, dtype=np.int64)
        col[::3] += top - (1 << (width - 1)) + 1
        col[rng.integers(0, m)] = top
        cols = [col]
        order, side = _value_sort_side(monkeypatch, cols)
        assert side == by_value, (m, width)
        _check_sorted(cols, order)


def test_sort_rows_negative_empty_single_and_ties(monkeypatch):
    rng = np.random.default_rng(5)
    neg = rng.integers(-50, 50, size=300)
    order, side = _value_sort_side(monkeypatch, [neg])
    assert not side
    _check_sorted([neg], order)
    for col in (np.zeros(0, dtype=np.int64), np.array([9]),
                np.array([0]), rng.integers(0, 3, size=2000),
                np.full(777, 12345, dtype=np.int64)):
        order, side = _value_sort_side(monkeypatch, [col])
        assert side == (len(col) > 0)
        _check_sorted([col], order)
    # several columns keep the lexsort
    cols = [rng.integers(0, 4, size=500), rng.integers(-3, 3, size=500)]
    _check_sorted(cols, sort_rows(cols))


def test_sort_rows_and_dense_ranks_reject_bare_arrays():
    # a bare array would read as columns of one row each
    col = np.array([7, 3, 7, 5])
    for fn in (sort_rows, dense_ranks):
        with pytest.raises(ValueError):
            fn(col)
    assert sort_rows((col,)).tolist() == sort_rows([col]).tolist()
    assert dense_ranks((col,)).tolist() == [2, 0, 2, 1]
