import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sst.succinct import RankBitvector, count_inversions_bits


def test_rank_small():
    rb = RankBitvector([1, 0, 1, 1, 0])
    assert [rb.rank1(i) for i in range(6)] == [0, 1, 1, 2, 3, 3]


def test_rank_bounds():
    rb = RankBitvector([1, 0])
    with pytest.raises(IndexError):
        rb.rank1(3)
    with pytest.raises(IndexError):
        rb.rank1(-1)


def test_rank_across_word_boundaries(rng):
    bits = [rng.randrange(2) for _ in range(777)]
    rb = RankBitvector(bits)
    run = 0
    for i, b in enumerate(bits, 1):
        run += b
        assert rb.rank1(i) == run
    assert rb.rank1(0) == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=300))
def test_rank_property(bits):
    rb = RankBitvector(bits)
    pref = np.cumsum([0] + bits)
    for i in (0, len(bits) // 2, len(bits)):
        assert rb.rank1(i) == pref[i]


def test_count_inversions_bits_frozen():
    assert count_inversions_bits([1, 0, 1, 0, 0]) == 5
    assert count_inversions_bits([1, 0, 1, 0]) == 3
    assert count_inversions_bits([]) == 0
    assert count_inversions_bits([0, 0, 1, 1]) == 0


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=200))
def test_count_inversions_bits_property(bits):
    want = sum(1 for i in range(len(bits)) for j in range(i + 1, len(bits))
               if bits[i] > bits[j])
    assert count_inversions_bits(bits) == want
