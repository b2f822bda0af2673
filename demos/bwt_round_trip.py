"""Sentinel-free BWT through the synchronizing-set pipeline, and back."""

import numpy as np

from sst.bwt_builder import build_bwt, invert_bwt
from sst.packed_text import pack
from sst.reference_oracles import naive_bwt

text = "banana"
pt = pack([ord(c) for c in text], 256)
res = build_bwt(pt)
print("text        ", text)
print("bwt         ", "".join(chr(c) for c in res.bwt))
print("primary     ", res.primary_index)
print("pipeline    ", res.meta["pipeline"])

want, primary = naive_bwt([ord(c) for c in text])
assert list(res.bwt) == want and res.primary_index == primary

back = invert_bwt(res)
print("round trip  ", "".join(chr(c) for c in back))
assert "".join(chr(c) for c in back) == text

# the same machinery at a less toy size; meta records the pieces used
rng = np.random.default_rng(5)
arr = rng.integers(0, 4, size=50000)
res = build_bwt(pack(arr, 4))
assert np.array_equal(invert_bwt(res), arr)
print()
print("n=50000 sigma=4:")
for key in ("tau", "sync_size", "pipeline"):
    print("  %-12s %s" % (key, res.meta[key]))
