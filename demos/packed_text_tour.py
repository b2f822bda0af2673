"""Tour of the packed text layer: keys and fragment LCP."""

import numpy as np

from sst.packed_text import lcp_fragments_many, pack, window_keys

# pack stores ceil(log2 sigma) bits per symbol inside 64-bit words
text = "abaababaabaab"
symbols = [ord(c) - ord('a') for c in text]
pt = pack(symbols, 2)
print("text   ", text)
print("n=%d sigma=%d bits_per_symbol=%d words=%d"
      % (pt.n, pt.sigma, pt.bits_per_symbol, len(pt.words)))

# window_keys gives the base-sigma keys of the windows at starts 1..k,
# built by key doubling in floor(log2 length) + popcount(length) passes;
# the keys order like the windows, and a window that runs past n reads
# zeros there
keys = window_keys(pt, 5, pt.n)
for i in (1, 2, 4):
    print("key of T[%d..%d) = %d  (%s)"
          % (i, i + 5, keys[i - 1], text[i - 1:i + 4]))
assert keys[0] < keys[1]  # "abaab" < "baaba"
keys = window_keys(pt, 3, pt.n - 2)
order = np.argsort(keys, kind="stable") + 1
print("3-windows sorted:", [text[i - 1:i + 2] for i in order[:5]], "...")

# fragment LCP compares 64-bit windows of the packed words, so long
# matches are cheap; it takes arrays of position pairs and caps
hit = lcp_fragments_many(pt, [1, 2], [4, 7], cap=8)
print("lcp of suffixes 1, 4 and 2, 7 capped at 8:", hit.tolist())

