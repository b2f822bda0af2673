"""Shared text generators and scale profiles for the test suite.

Set SST_ACCEPTANCE_FULL=1 to run the acceptance suite at its stated
sample counts; the default desk profile keeps the same checks at
reduced scale so the whole suite stays fast.
"""

import functools
import os
import random

import numpy as np
import pytest

from sst.packed_text import pack
from sst.sync_set import SyncSet, compute_q_and_b, construct


def full_profile():
    return os.environ.get("SST_ACCEPTANCE_FULL", "") == "1"


def random_text(rng, n, sigma):
    return [rng.randrange(sigma) for _ in range(n)]


def random_packed(rng, n, sigma):
    return pack(random_text(rng, n, sigma), sigma)


def fibonacci_word(n):
    """Prefix of the infinite word over {0, 1} from s -> s(0->01, 1->0)."""
    a, b = [0], [0, 1]
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def thue_morse(n):
    bits = np.arange(n, dtype=np.int64)
    return list(np.bitwise_count(bits) & 1)


def periodic_mosaic(rng, n, sigma):
    """Random concatenation of repeated short blocks and noise stretches."""
    out = []
    while len(out) < n:
        if rng.random() < 0.5:
            p = rng.randrange(1, 5)
            block = random_text(rng, p, sigma)
            reps = rng.randrange(2, 40)
            out.extend(block * reps)
        else:
            out.extend(random_text(rng, rng.randrange(1, 30), sigma))
    return out[:n]


@functools.lru_cache(maxsize=1)
def large_tampered_sets():
    """A sigma=4 text A B A of more than 100 000 windows at tau=16, two
    tamperings of a valid set on it, and the witness each must report.

    Dropping a member whose neighbours lie more than tau apart empties
    the windows from max(prev + 1, member - tau + 1) on, and the text has
    no highly periodic window, so the first of them is the density
    witness.  2tau-contexts repeat only between the copies of A, so
    dropping a member q of the second copy leaves its twin in the first
    as the one member of q's context: the consistency witness is
    (twin, q).
    """
    rng = random.Random(2019)
    tau = 16
    a, b = random_text(rng, 2000, 4), random_text(rng, 110_000, 4)
    seq = a + b + a
    pt = pack(seq, 4)
    if compute_q_and_b(pt, tau).q.any():
        raise ValueError("the text has a highly periodic window")
    s = construct(pt, tau, mode="random", seed=0)
    pos = s.positions
    k = next(k for k in range(1, len(pos) - 1)
             if pos[k] > 3000 and pos[k + 1] - pos[k - 1] > tau)
    dropped = SyncSet(tau, pt.n, np.delete(pos, k))
    density = (max(int(pos[k - 1]) + 1, int(pos[k]) - tau + 1),)
    shift = len(a) + len(b)
    q = next(k for k in range(len(pos)) if pos[k] > shift)
    flipped = SyncSet(tau, pt.n, np.delete(pos, q))
    consistency = (int(pos[q]) - shift, int(pos[q]))
    return seq, tau, s, (dropped, density), (flipped, consistency)


def all_binary_texts(n):
    for v in range(1 << n):
        yield [(v >> (n - 1 - t)) & 1 for t in range(n)]


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
