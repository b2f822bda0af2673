import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sst.packed_text import (_column_symbols, dense_ranks, doubled_classes,
                             lcp_fragments, lcp_fragments_many, pack,
                             pack_columns, short_periods, sort_rows,
                             window_keys, window_radices)
from sst.reference_oracles import naive_lce, naive_period

from conftest import periodic_mosaic, random_text


def test_pack_round_trip(rng):
    for sigma in (2, 3, 4, 16, 200, 256):
        seq = random_text(rng, 97, sigma)
        pt = pack(seq, sigma)
        assert pt.n == 97
        assert [pt.char_at(i) for i in range(1, 98)] == seq
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
    assert pt._wlist == pt.words.tolist() + [0, 0]
    assert pt.symbols.dtype == (np.uint8 if sigma <= 256 else np.int64)


@pytest.mark.parametrize("sigma", [2, 256])
def test_pack_peak_memory(sigma):
    # the encoder reads each byte's bits once: about 10 bytes a symbol,
    # against 24 and 89 for a shift matrix of uint64 rows
    n = 1 << 20
    arr = np.random.default_rng(sigma).integers(0, sigma, n).astype(np.uint8)
    tracemalloc.start()
    try:
        pack(arr, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * n, peak / n


def test_char_at_bounds():
    pt = pack([1, 0], 2)
    with pytest.raises(IndexError):
        pt.char_at(0)
    with pytest.raises(IndexError):
        pt.char_at(3)


def test_extract_matches_digits(rng):
    # a single window's key reads as a base-sigma number, most significant
    # symbol first (the one-start read that extract used to make)
    for sigma in (2, 5, 16):
        seq = random_text(rng, 60, sigma)
        pt = pack(seq, sigma)
        for _ in range(80):
            i = rng.randrange(1, 61)
            ln = rng.randrange(1, min(60 - i + 1,
                                        128 // pt.bits_per_symbol) + 1)
            want = 0
            for c in seq[i - 1:i - 1 + ln]:
                want = want * sigma + c
            # the columns joined by their radices give the whole key
            got = 0
            for col, radix in zip(window_keys(pt, ln, [i]),
                                  window_radices(sigma, ln)):
                got = got * radix + int(col[0])
            assert got == want


def test_key_order_is_lex_order(rng):
    # equal-length fragment keys compare exactly like the fragments
    seq = random_text(rng, 50, 4)
    pt = pack(seq, 4)
    for _ in range(200):
        i, j = rng.randrange(1, 44), rng.randrange(1, 44)
        (keys,) = window_keys(pt, 7, [i, j])
        a, b = int(keys[0]), int(keys[1])
        assert (a < b) == (seq[i - 1:i + 6] < seq[j - 1:j + 6])


def test_lcp_fragments_frozen():
    pt = pack([ord(c) - ord("a") for c in "abaababa"], 2)
    assert lcp_fragments(pt, 1, 4, 3) == 3


def test_lcp_fragments_matches_naive(rng):
    for sigma in (2, 4, 30):
        seq = random_text(rng, 120, sigma)
        pt = pack(seq, sigma)
        for _ in range(150):
            i, j = rng.randrange(1, 121), rng.randrange(1, 121)
            cap = rng.randrange(0, 130)
            assert lcp_fragments(pt, i, j, cap) == min(
                cap, naive_lce(seq, i, j))


def test_lcp_fragments_self():
    pt = pack([1, 1, 0, 1], 2)
    assert lcp_fragments(pt, 2, 2, 99) == 3


def _short_period(frag, pmax):
    p = naive_period(frag)
    return p if p <= pmax else 0


def test_short_periods_matches_naive(rng):
    # fragments longer than one 64-bit word, periodic stretches, and
    # every pmax from none to past the fragment length
    for sigma in (2, 4, 256):
        seq = periodic_mosaic(rng, 400, sigma)
        pt = pack(seq, sigma)
        for length in (1, 2, 7, 70, 150):
            starts = [rng.randrange(1, 400 - length + 2) for _ in range(60)]
            for pmax in (0, 1, 3, 8, length, length + 5):
                want = [_short_period(seq[i - 1:i - 1 + length], pmax)
                        for i in starts]
                got = short_periods(pt, starts, length, pmax)
                assert got.tolist() == want, (sigma, length, pmax)


def test_short_periods_known_words():
    pt = pack([0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 0, 7], 8)
    assert short_periods(pt, [1, 4, 8], 4, 3).tolist() == [1, 2, 3]
    assert short_periods(pt, [1, 4, 8], 4, 2).tolist() == [1, 2, 0]
    assert short_periods(pt, [12, 1], 1, 1).tolist() == [1, 1]
    assert short_periods(pt, [12], 1, 0).tolist() == [0]
    assert short_periods(pt, [], 5, 2).tolist() == []
    with pytest.raises(IndexError):
        short_periods(pt, [10], 4, 2)
    with pytest.raises(ValueError):
        short_periods(pt, [1], 0, 2)


def test_bulk_keys_matches_extract(rng):
    # counted starts (the all-windows read bulk_keys made) agree with
    # gathered single starts (the per-window read extract made)
    seq = random_text(rng, 70, 4)
    pt = pack(seq, 4)
    for ln in (1, 3, 8, 31):
        (got,) = window_keys(pt, ln, 70 - ln + 1)
        assert len(got) == 70 - ln + 1
        for p in (1, 2, 35, 70 - ln + 1):
            assert got[p - 1] == window_keys(pt, ln, [p])[0][0]
    (part,) = window_keys(pt, 3, np.arange(5, 10))
    assert list(part) == [window_keys(pt, 3, [p])[0][0] for p in range(5, 10)]


def test_bulk_keys_dtype_is_int64(rng):
    pt = pack(random_text(rng, 30, 2), 2)
    assert all(col.dtype == np.int64 for col in window_keys(pt, 20, 11))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=2, max_size=40),
       st.data())
def test_lcp_fragments_property(seq, data):
    pt = pack(seq, 4)
    i = data.draw(st.integers(1, len(seq)))
    j = data.draw(st.integers(1, len(seq)))
    cap = data.draw(st.integers(0, 50))
    assert lcp_fragments(pt, i, j, cap) == min(cap, naive_lce(seq, i, j))


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
    want = [lcp_fragments(pt, a, b, c) for a, b, c in rows]
    assert lcp_fragments_many(pt, i, j, cap).tolist() == want
    assert lcp_fragments_many(pt, i, j, n).tolist() == [
        lcp_fragments(pt, a, b, n) for a, b, _ in rows]
    with pytest.raises(IndexError):
        lcp_fragments_many(pt, [1], [n + 1], n)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 4, 256]), st.lists(st.integers(0, 255), min_size=1,
                                             max_size=90), st.data())
def test_short_periods_property(sigma, raw, data):
    seq = [c % sigma for c in raw]
    pt = pack(seq, sigma)
    length = data.draw(st.integers(1, len(seq)))
    pmax = data.draw(st.integers(0, length + 1))
    starts = list(range(1, len(seq) - length + 2))
    assert short_periods(pt, starts, length, pmax).tolist() == [
        _short_period(seq[i - 1:i - 1 + length], pmax) for i in starts]


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


def _horner_columns(seq, sigma, i, length):
    # the key of T[i..i+length) column by column, each holding the most
    # symbols c with sigma**c <= 2**62, zeros read past the text end
    c = 1
    while sigma ** (c + 1) <= 1 << 62:
        c += 1
    cols = []
    for lo in range(0, length, c):
        v = 0
        for t in range(lo, min(lo + c, length)):
            v = v * sigma + (seq[i - 1 + t] if i - 1 + t < len(seq) else 0)
        cols.append(v)
    return tuple(cols)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 4, 16, 256, 1 << 20, 1 << 62]),
       st.integers(1, 200), st.integers(0, 2 ** 32), st.integers(1, 200),
       st.data())
def test_window_keys_matches_horner(sigma, n, seed, length, data):
    # lengths past three columns for every sigma (62, 39, 31, 15, 7, 3
    # and 1 symbols per column), counted starts and gathered starts,
    # windows that run past the text end included
    seq = periodic_mosaic(random.Random(seed), n, sigma)
    pt = pack(seq, sigma)
    count = data.draw(st.integers(0, n))
    starts = data.draw(st.lists(st.integers(1, n), max_size=30))
    for got, at in ((window_keys(pt, length, count), range(1, count + 1)),
                    (window_keys(pt, length, starts), starts)):
        assert all(col.dtype == np.int64 for col in got)
        rows = [tuple(int(col[k]) for col in got) for k in range(len(at))]
        assert rows == [_horner_columns(seq, sigma, i, length) for i in at]
        # the column tuples rank like the zero-padded windows
        wins = [tuple(seq[i - 1:i - 1 + length])
                + (0,) * max(0, i - 1 + length - n) for i in at]
        assert dense_ranks(got).tolist() == [sorted(set(wins)).index(x)
                                             for x in wins]


@pytest.mark.parametrize("sigma", [2, 3, 256, 1 << 20, 1 << 62])
def test_window_keys_sparse_starts_match_counted(sigma):
    # four windows of at most 130 symbols over a span of 2984 starts take
    # the per-window branch; the first window runs past the text end
    seq = periodic_mosaic(random.Random(sigma), 3000, sigma)
    pt = pack(seq, sigma)
    starts = np.array([2990, 7, 1500, 2201])
    for length in (1, 5, 62, 130):
        dense = window_keys(pt, length, 3000)
        got = window_keys(pt, length, starts)
        assert len(got) == len(dense)
        for col, full in zip(got, dense):
            assert col.tolist() == full[starts - 1].tolist()
        assert [tuple(int(c[k]) for c in got) for k in range(4)] == [
            _horner_columns(seq, sigma, int(i), length) for i in starts]


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


@pytest.mark.parametrize("sigma", [2, 4, 256])
def test_doubled_classes_unbounded_rank_suffixes(rng, sigma):
    # from single symbols with no bound: the lengths double, and the
    # rounds stop at the first one whose classes are all distinct
    for kind, seq in _doubling_texts(rng, 150, sigma).items():
        cls = dense_ranks([np.array(seq)])
        rounds = list(doubled_classes(cls, 1))
        for k, got in enumerate(rounds, 1):
            assert got.tolist() == _tuple_ranks(seq, 2 ** k, len(seq)), kind
        distinct = [len(set(c.tolist())) == len(seq) for c in [cls] + rounds]
        assert distinct[-1] and not any(distinct[:-1]), kind


@pytest.mark.parametrize("sigma", [2, 3, 4, 16, 256])
def test_doubled_classes_bounded_from_one_key_column(rng, sigma):
    # from the window keys of one column up to a length bound: the steps
    # are got, cut to reach the bound; the starts whose fragment lies in
    # the text rank like tuples after every round
    c = _column_symbols(sigma)
    for length in (c + 1, 2 * c, 2 * c + 7, 5 * c - 3):
        n = length + 40
        for kind, seq in _doubling_texts(rng, n, sigma).items():
            pt = pack(seq, sigma)
            cls = dense_ranks(window_keys(pt, c, n - c + 1))
            lengths, got = [], c
            while got < length:
                got += min(got, length - got)
                lengths.append(got)
            rounds = list(doubled_classes(cls, c, length))
            assert len(rounds) <= len(lengths)
            for got, ranks in zip(lengths, rounds):
                fit = n - got + 1
                assert dense_ranks([ranks[:fit]]).tolist() == _tuple_ranks(
                    seq, got, fit), (kind, length, got)
            # a round runs only while some class repeats, and the rounds
            # end before the bound only once every class is distinct
            distinct = [len(set(r.tolist())) == len(r)
                        for r in [cls] + rounds]
            assert not any(distinct[:-1]), (kind, length)
            assert len(rounds) == len(lengths) or distinct[-1], (kind, length)


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
