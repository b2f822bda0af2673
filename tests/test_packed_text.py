import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sst.packed_text import (bulk_keys, extract, lcp_fragments, pack,
                             period_of, substring_period)
from sst.reference_oracles import naive_lce, naive_period

from conftest import random_text


def test_pack_round_trip(rng):
    for sigma in (2, 3, 4, 16, 200, 256):
        seq = random_text(rng, 97, sigma)
        pt = pack(seq, sigma)
        assert pt.n == 97
        assert [pt.char_at(i) for i in range(1, 98)] == seq


def test_pack_rejects_out_of_range():
    with pytest.raises(ValueError):
        pack([0, 3], 3)
    with pytest.raises(ValueError):
        pack([-1], 2)


def test_char_at_bounds():
    pt = pack([1, 0], 2)
    with pytest.raises(IndexError):
        pt.char_at(0)
    with pytest.raises(IndexError):
        pt.char_at(3)


def test_extract_matches_digits(rng):
    # keys read as base-sigma numbers, most significant symbol first
    for sigma in (2, 5, 16):
        seq = random_text(rng, 60, sigma)
        pt = pack(seq, sigma)
        base = sigma
        for _ in range(80):
            i = rng.randrange(1, 61)
            ln = rng.randrange(1, min(60 - i + 1, pt.key_cap) + 1)
            want = 0
            for c in seq[i - 1:i - 1 + ln]:
                want = want * base + c
            assert extract(pt, i, ln).value == want


def test_key_order_is_lex_order(rng):
    # equal-length fragment keys compare exactly like the fragments
    seq = random_text(rng, 50, 4)
    pt = pack(seq, 4)
    for _ in range(200):
        i, j = rng.randrange(1, 44), rng.randrange(1, 44)
        a, b = extract(pt, i, 7).value, extract(pt, j, 7).value
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


def test_substring_period_matches_naive(rng):
    for sigma in (2, 3):
        seq = random_text(rng, 80, sigma)
        pt = pack(seq, sigma)
        for _ in range(120):
            i = rng.randrange(1, 81)
            ln = rng.randrange(1, 81 - i + 1)
            assert substring_period(pt, i, ln) == naive_period(
                seq[i - 1:i - 1 + ln])


def test_period_of_known_words():
    assert period_of([0, 0, 0, 0]) == 1
    assert period_of([0, 1, 0, 1, 0]) == 2
    assert period_of([0, 1, 1, 0]) == 3
    assert period_of([7]) == 1


def test_bulk_keys_matches_extract(rng):
    seq = random_text(rng, 70, 4)
    pt = pack(seq, 4)
    for ln in (1, 3, 8, 31):
        got = bulk_keys(pt, ln)
        assert len(got) == 70 - ln + 1
        for p in (1, 2, 35, 70 - ln + 1):
            assert got[p - 1] == extract(pt, p, ln).value
    part = bulk_keys(pt, 3, start=5, stop=9)
    assert list(part) == [extract(pt, p, 3).value for p in range(5, 10)]


def test_bulk_keys_dtype_is_int64(rng):
    pt = pack(random_text(rng, 30, 2), 2)
    assert bulk_keys(pt, 20).dtype == np.int64


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
@given(st.lists(st.integers(0, 1), min_size=1, max_size=50))
def test_substring_period_property(seq):
    pt = pack(seq, 2)
    assert substring_period(pt, 1, len(seq)) == naive_period(seq)
