"""Count array inversions by reading wavelet-tree bitvectors out of one BWT.

The array is serialised into a bit string whose BWT contains every
bitvector of the wavelet tree of the array as a contiguous block.  Each
node owns the suffixes that start with one bit pattern, and backward
search over the same BWT finds every pattern's range, one wavelet level
per step; the inversion counts of the blocks sum to the answer.
"""

import numpy as np

from sst.inversions import (build_reduction_small, count_inversions_via_bwt,
                            extract_wavelet_blocks)
from sst.reference_oracles import fenwick_inversions

a = [2, 0, 3, 1]
print("array", a)

rt = build_reduction_small(a, k=2)
bits = rt.bits.to_list()[:28]
print("encoding: m=%d k=%d, %d bits, first entry block %s..."
      % (rt.m, rt.k, rt.bits.n, "".join(map(str, bits[:14]))))

blocks = extract_wavelet_blocks(a, "small", k=2)
for label in sorted(blocks, key=len):
    print("  bitvector at node %-4r = %s"
        % (label, "".join(str(int(b)) for b in blocks[label])))

total = count_inversions_via_bwt(a, "small", k=2)
print("inversions =", total)
assert total == fenwick_inversions(a) == 3

# the general variant needs no value-width hint, only values < 2^ceil(log m)
rng = np.random.default_rng(2)
big = rng.integers(0, 1024, size=1024).tolist()
got = count_inversions_via_bwt(big, "general")
want = fenwick_inversions(big)
print("m=1024 random: via bwt %d, via fenwick %d" % (got, want))
assert got == want
