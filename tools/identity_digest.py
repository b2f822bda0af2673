"""Print one sha1 digest per output kind over a seeded grid of texts.

The script imports whichever ``sst`` is first on ``PYTHONPATH``, so the
outputs of two checkouts compare with one diff:

    diff <(PYTHONPATH=old/src python tools/identity_digest.py) \\
         <(PYTHONPATH=new/src python tools/identity_digest.py)

The grid crosses sigma in {2, 3, 4, 5, 16, 100, 256, 1000} with random,
mosaic, repeats, unary, Fibonacci and Thue-Morse text at ten lengths from
40 to 2500, built by the generators in tests/conftest.py.  Each text
runs at tau = default_tau, 1, 2, 62 // (3 * bits), c + 1 and
2 * (62 // bits) + 3, c being one key column's symbols, wherever
2tau <= n.  The kinds are:

- bwt: build_bwt's transform, primary index and pipeline;
- lce: LceIndex query and query_many on seeded position pairs;
- det, random7: the det set and the seed-7 random set;
- periodic: the Q, B and R masks;
- tprime: build_tprime's symbols for the seed-0 random set;
- runs: find_runs' (j, e, p, type) for the seed-0 random set.
"""

import collections
import hashlib
import os
import random
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))

from conftest import (fibonacci_word, periodic_mosaic,  # noqa: E402
                      random_text, thue_morse)
from sst import LceIndex, build_bwt, default_tau, pack  # noqa: E402
from sst.packed_text import _column_symbols  # noqa: E402
from sst.sync_set import compute_q_and_b, construct, r_mask  # noqa: E402
from sst.sync_sort import build_tprime, find_runs  # noqa: E402

SIGMAS = (2, 3, 4, 5, 16, 100, 256, 1000)
LENGTHS = (40, 61, 97, 150, 233, 377, 610, 987, 1597, 2500)


def repeats(rng, n, sigma):
    """Eight copies of one random base, each with one point mutation."""
    base = random_text(rng, n // 8 + 1, sigma)
    out = []
    for _ in range(8):
        copy = list(base)
        k = rng.randrange(len(copy))
        copy[k] = (copy[k] + 1) % sigma
        out += copy
    return out[:n]


TEXTS = {
    "random": random_text,
    "mosaic": periodic_mosaic,
    "repeats": repeats,
    "unary": lambda rng, n, sigma: [sigma - 1] * n,
    "fibonacci": lambda rng, n, sigma: fibonacci_word(n),
    "thue-morse": lambda rng, n, sigma: thue_morse(n),
}


def taus(n, sigma):
    bits = max(1, (sigma - 1).bit_length())
    grid = {default_tau(n, sigma), 1, 2, 62 // (3 * bits),
            _column_symbols(sigma) + 1, 2 * (62 // bits) + 3}
    return sorted(t for t in grid if 1 <= t and 2 * t <= n)


def outputs(pt, tau):
    """Every kind's output at one cell, as a list of arrays per kind."""
    res = build_bwt(pt, tau)
    idx = LceIndex(pt, tau)
    gen = np.random.default_rng([pt.sigma, pt.n, tau])
    i, j = gen.integers(1, pt.n + 1, size=(2, 64))
    scalar = [idx.query(int(a), int(b)) for a, b in zip(i, j)]
    psets = compute_q_and_b(pt, tau)
    return {
        "bwt": [res.bwt, [res.primary_index],
                np.frombuffer(res.meta["pipeline"].encode(), np.uint8)],
        "lce": [scalar, idx.query_many(i, j)],
        "det": [construct(pt, tau, mode="det").positions],
        "random7": [construct(pt, tau, mode="random", seed=7).positions],
        "periodic": [psets.q, psets.b, r_mask(psets)],
        "tprime": [build_tprime(pt, idx.sync).symbols],
        "runs": list(find_runs(pt, tau, idx.sync.positions)[1:]),
    }


def texts():
    """(sigma, name, n, symbols) of every text of the grid, in order."""
    for sigma in SIGMAS:
        for name, make in TEXTS.items():
            for n in LENGTHS:
                rng = random.Random("%d %s %d" % (sigma, name, n))
                yield sigma, name, n, make(rng, n, sigma)


def main():
    hashes = collections.defaultdict(hashlib.sha1)
    count = cells = 0
    for sigma, name, n, seq in texts():
        pt = pack(seq, sigma)
        count += 1
        for tau in taus(n, sigma):
            cells += 1
            cell = ("%d %s %d %d;" % (sigma, name, n, tau)).encode()
            for kind, arrays in outputs(pt, tau).items():
                hashes[kind].update(cell)
                for a in arrays:
                    a = np.asarray(a, dtype=np.int64)
                    hashes[kind].update(b"%d:" % len(a))
                    hashes[kind].update(a.tobytes())
    print("texts %d cells %d" % (count, cells))
    for kind, h in hashes.items():
        print("%-8s %s" % (kind, h.hexdigest()))


if __name__ == "__main__":
    main()
