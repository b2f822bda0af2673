import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sst.inversions import (_blocks_small, build_reduction_general,
                            build_reduction_small, count_inversions_bits,
                            count_inversions_via_bwt, extract_wavelet_blocks)
from sst.cli import main
from sst.reference_oracles import (fenwick_inversions, naive_bwt,
                                   naive_inversions, naive_suffix_array,
                                   naive_wavelet_bitvectors)

from conftest import full_profile


def _bits(rt):
    return rt.bits.to_list()


def _padded(a, domain):
    m = 1
    while m < max(2, len(a)):
        m *= 2
    return list(a) + [domain - 1] * (m - len(a))


def test_small_layout_frozen():
    # [1, 0] with k=1: per entry rev(value), 01, 1, zero-interleaved
    # index bits, closing 0
    rt = build_reduction_small([1, 0], 1)
    assert (rt.m, rt.k, rt.variant) == (2, 1, "small")
    assert _bits(rt) == [1, 0, 1, 1, 0, 0, 0,
                         0, 0, 1, 1, 0, 1, 0]
    # four entries pin the bit order of values (least significant
    # first) and of indices (most significant first)
    rt = build_reduction_small([3, 0, 2, 1], 2)
    assert (rt.m, rt.k) == (4, 2)
    assert _bits(rt) == [1, 1, 0, 1, 1, 1, 0, 0, 0, 0, 0,
                         0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 0,
                         0, 1, 0, 1, 1, 1, 0, 1, 0, 0, 0,
                         1, 0, 0, 1, 1, 1, 0, 1, 0, 1, 0]


def test_general_layout_frozen():
    rt = build_reduction_general([1, 0])
    assert (rt.m, rt.k, rt.variant) == (2, 1, "general")
    assert _bits(rt) == [1, 0, 1, 1, 0, 0, 0, 1, 0,
                         0, 0, 1, 1, 0, 1, 0, 1, 0]
    rt = build_reduction_general([3, 0, 2, 1])
    assert (rt.m, rt.k) == (4, 2)
    assert _bits(rt) == [1, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0,
                         0, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0,
                         0, 1, 0, 1, 1, 1, 0, 1, 0, 0, 1, 1, 0,
                         1, 0, 0, 1, 1, 1, 0, 1, 1, 0, 1, 1, 0]


def _pow2_len(m):
    p = 2
    while p < m:
        p *= 2
    return p


def test_layout_lengths(rng):
    for _ in range(10):
        m = rng.randrange(1, 40)
        logm = _pow2_len(m).bit_length() - 1
        k = rng.randrange(1, logm + 1)
        a = [rng.randrange(1 << k) for _ in range(m)]
        rt = build_reduction_small(a, k)
        assert rt.bits.n == rt.m * (3 + 2 * logm + 2 * k)
        rg = build_reduction_general(a)
        assert rg.bits.n == rg.m * (4 * logm + 5)


def test_domain_errors():
    with pytest.raises(ValueError):
        build_reduction_small([2], 1)
    with pytest.raises(ValueError):
        build_reduction_small([0], 0)
    with pytest.raises(ValueError):
        build_reduction_small([0, 1, 2, 3], 9)
    with pytest.raises(ValueError):
        build_reduction_general([4, 0])
    with pytest.raises(ValueError):
        build_reduction_general([-1])
    # no truncation of fractions, no parsing of strings, no nesting
    for bad in ([0.9, 0.1], [1, 0.5], ["1", "0"], [[1, 0], [0, 1]], 3):
        with pytest.raises(ValueError):
            build_reduction_general(bad)
        with pytest.raises(ValueError):
            build_reduction_small(bad, 1)
    for bad in ([0.9, 0.1], ["1", "0"], [0.5], [[1, 0]]):
        with pytest.raises(ValueError):
            count_inversions_via_bwt(bad, "general")


def test_frozen_counts():
    assert count_inversions_via_bwt([2, 0, 1], "small", k=2) == 2
    assert count_inversions_via_bwt([2, 0, 1], "general") == 2
    assert count_inversions_via_bwt([2, 0, 3, 1], "general") == 3


def test_frozen_bitvectors():
    blocks = extract_wavelet_blocks([2, 0, 3, 1], "general")
    assert list(blocks[""]) == [1, 0, 1, 0]
    assert list(blocks["0"]) == [0, 1]
    assert list(blocks["1"]) == [0, 1]


def test_degenerate_arrays():
    assert count_inversions_via_bwt([], "general") == 0
    assert count_inversions_via_bwt([7], "general") == 0
    assert count_inversions_via_bwt([3, 3, 3, 3], "general") == 0
    assert count_inversions_via_bwt(list(range(16)), "general") == 0
    rev = list(range(15, -1, -1))
    assert count_inversions_via_bwt(rev, "general") == 15 * 16 // 2
    assert count_inversions_via_bwt(rev, "small", k=4) == 15 * 16 // 2


def test_random_arrays_both_variants(rng):
    trials = 120 if full_profile() else 50
    for _ in range(trials):
        m = rng.randrange(0, 70)
        mp = max(2, 1 << (m - 1).bit_length()) if m > 1 else 2
        logm = mp.bit_length() - 1
        k = rng.randrange(1, logm + 1)
        a = [rng.randrange(1 << k) for _ in range(m)]
        want = naive_inversions(a)
        assert fenwick_inversions(a) == want
        assert count_inversions_via_bwt(a, "small", k=k) == want
        assert count_inversions_via_bwt(a, "general") == want


def test_full_range_general(rng):
    for _ in range(30):
        m = rng.randrange(2, 130)
        mp = 1 << (m - 1).bit_length()
        a = [rng.randrange(mp) for _ in range(m)]
        assert count_inversions_via_bwt(a, "general") == naive_inversions(a)


def test_blocks_match_direct_wavelet(rng):
    for _ in range(25):
        m = rng.randrange(0, 40)
        mp = max(2, 1 << (m - 1).bit_length()) if m > 1 else 2
        logm = mp.bit_length() - 1
        k = rng.randrange(1, logm + 1)
        a = [rng.randrange(1 << k) for _ in range(m)]
        a2 = [rng.randrange(mp) for _ in range(m)]
        for blocks, want in (
                (extract_wavelet_blocks(a, "small", k=k),
                 naive_wavelet_bitvectors(_padded(a, 1 << k), k)),
                (extract_wavelet_blocks(a2, "general"),
                 naive_wavelet_bitvectors(_padded(a2, mp), logm))):
            want = {label: bits for label, bits in want.items() if bits}
            assert set(blocks) == set(want)
            for label, bits in want.items():
                assert list(blocks[label]) == bits


def test_blocks_are_pattern_ranges(rng):
    # every node's block is the naive transform over the suffix range of
    # P(w) = w' 0 1^(k+1) in the naive suffix array, and the blocks come
    # in the order of their ranges
    for m in list(range(0, 41, 3)) + [5, 17, 40]:
        mp = max(2, 1 << (m - 1).bit_length())
        logm = mp.bit_length() - 1
        k = rng.randrange(1, logm + 1)
        small = [rng.randrange(1 << k) for _ in range(m)]
        wide = [rng.randrange(mp) for _ in range(m)]
        for variant, width, a, rt in (
                ("small", k, small, build_reduction_small(small, k)),
                ("general", None, wide, build_reduction_general(wide))):
            text = rt.bits.to_list()
            bwt = naive_bwt(text)[0]
            starts = [text[p - 1:] for p in naive_suffix_array(text)]
            want = []
            for d in range(rt.k):
                for w in range(1 << d):
                    label = format(w, "0%db" % d) if d else ""
                    pat = [int(c) for c in reversed(label)]
                    pat += [0] + [1] * (rt.k + 1)
                    rows = [r for r, s in enumerate(starts)
                            if s[:len(pat)] == pat]
                    if rows:
                        lo, hi = rows[0], rows[-1] + 1
                        assert rows == list(range(lo, hi))
                        want.append((lo, hi, label, bwt[lo:hi]))
            want.sort()
            _, _, lo, hi = _blocks_small(rt)
            assert list(zip(lo.tolist(), hi.tolist())) == [
                row[:2] for row in want]
            got = extract_wavelet_blocks(a, variant, k=width)
            assert [(label, bits.tolist()) for label, bits
                    in got.items()] == [row[2:] for row in want]


def test_default_small_width(tmp_path, capsys):
    # without k the small variant takes its width from the largest value
    assert count_inversions_via_bwt([1, 0, 1, 0]) == 3
    assert count_inversions_via_bwt([2, 0, 3, 1]) == 3
    assert count_inversions_via_bwt([0, 0, 0]) == 0
    assert set(extract_wavelet_blocks([2, 0, 3, 1])) == {"", "0", "1"}
    arr = tmp_path / "a.txt"
    arr.write_text("2 0 3 1\n")
    assert main(["inversions", "--input", str(arr), "--variant", "small"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_unknown_variant_rejected():
    for a in ([1, 0], [1], []):
        with pytest.raises(ValueError):
            count_inversions_via_bwt(a, variant="bogus")
    with pytest.raises(ValueError):
        extract_wavelet_blocks([1, 0], variant="bogus")
    # k is the small variant's width; the general variant refuses it,
    # also for arrays too short to need the reduction
    for a in ([3, 1, 2, 0, 5, 4], [1], []):
        for k in (-7, 1):
            with pytest.raises(ValueError, match="small variant"):
                count_inversions_via_bwt(a, "general", k=k)
    with pytest.raises(ValueError, match="small variant"):
        extract_wavelet_blocks([3, 1, 2, 0], "general", k=2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 63), max_size=40), st.data())
def test_general_variant_property(raw, data):
    mp = _pow2_len(len(raw))
    k = data.draw(st.integers(1, mp.bit_length() - 1))
    a = [v % mp for v in raw]
    narrow = [v % (1 << k) for v in raw]
    assert count_inversions_via_bwt(a, "general") == naive_inversions(a)
    assert count_inversions_via_bwt(
        narrow, "small", k=k) == naive_inversions(narrow)


def test_count_inversions_bits_frozen():
    assert count_inversions_bits([1, 0, 1, 0, 0]) == 5
    assert count_inversions_bits([1, 0, 1, 0]) == 3
    assert count_inversions_bits([]) == 0
    assert count_inversions_bits([0, 0, 1, 1]) == 0
    assert count_inversions_bits(np.array([True, False, True])) == 1


@pytest.mark.parametrize("bits", [[0.5, 1.7], np.array([1.9, 0.2]),
                                  ["1", "0"], [-1], [256], [1, 2, 0],
                                  [[1, 0]]])
def test_count_inversions_bits_rejects_non_bits(bits):
    # only the integers 0 and 1 are bits: floats and strings no longer
    # cast to them, and out-of-range values no longer overflow
    with pytest.raises(ValueError):
        count_inversions_bits(bits)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=200))
def test_count_inversions_bits_property(bits):
    want = sum(1 for i in range(len(bits)) for j in range(i + 1, len(bits))
               if bits[i] > bits[j])
    assert count_inversions_bits(bits) == want
