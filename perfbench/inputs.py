"""Seeded input generators for the benchmark workloads.

Every generator draws from its own ``numpy.random.Generator`` so the same
seed always yields the same texts, query pairs and arrays.  Nothing here
imports the package under test.
"""

import numpy as np


def random_text(rng, n, sigma):
    """Uniform i.i.d. symbols over [0, sigma)."""
    return rng.integers(0, sigma, size=n, dtype=np.int64)


# the mosaic's layout is the same for every seed, so that its work is too
MOSAIC_LAYOUT_SEED = 20190404


def _primitive_block(rng, period, sigma):
    """Random block of exactly this smallest period."""
    while True:
        block = random_text(rng, period, sigma)
        if not any(period % q == 0 and
                   np.array_equal(block, np.tile(block[:q], period // q))
                   for q in range(1, period)):
            return block


def periodic_mosaic(rng, n, sigma):
    """Blocks of period 1-4 repeated 2-39 times between noise stretches
    of 1-29 symbols, each piece chosen with probability one half.

    The layout (each piece's kind, period, repeat count or length) comes
    from MOSAIC_LAYOUT_SEED; rng draws the order of the pieces and every
    symbol.  A block's smallest period is the one the layout gives."""
    layout = np.random.default_rng(MOSAIC_LAYOUT_SEED)
    pieces = []
    total = 0
    while total < n:
        if layout.random() < 0.5:
            period = int(layout.integers(1, 5))
            reps = int(layout.integers(2, 40))
        else:
            period, reps = int(layout.integers(1, 30)), None
        pieces.append((period, reps))
        total += period * (reps or 1)
    parts = []
    for k in rng.permutation(len(pieces)):
        period, reps = pieces[k]
        if reps is None:
            parts.append(random_text(rng, period, sigma))
        else:
            parts.append(np.tile(_primitive_block(rng, period, sigma), reps))
    return np.concatenate(parts)[:n]


def repetitive_collection(rng, base_len, copies, sigma, mutation_rate):
    """``copies`` copies of one random base, each with its own point
    mutations at ``mutation_rate`` per symbol (at least one); a mutated
    symbol always changes.  The mutations of a copy are spread one to
    each of equal stretches of the base, at a random place in each, so
    that the lengths of the shared stretches vary little between seeds.
    """
    base = random_text(rng, base_len, sigma)
    nmut = max(1, int(round(mutation_rate * base_len)))
    stretch = base_len // nmut
    parts = []
    for _ in range(copies):
        copy = base.copy()
        where = (np.arange(nmut) * stretch
                 + rng.integers(0, stretch, size=nmut))
        shift = rng.integers(1, sigma, size=nmut, dtype=np.int64)
        copy[where] = (copy[where] + shift) % sigma
        parts.append(copy)
    return np.concatenate(parts)


def uniform_pairs(rng, n, count):
    """1-based position pairs drawn uniformly from [1, n]."""
    return rng.integers(1, n + 1, size=(count, 2), dtype=np.int64)


def aligned_pairs(rng, base_len, copies, count):
    """Pairs that compare the same offset in two different copies."""
    off = rng.integers(0, base_len, size=count, dtype=np.int64)
    a = rng.integers(0, copies, size=count, dtype=np.int64)
    b = (a + rng.integers(1, copies, size=count, dtype=np.int64)) % copies
    return np.stack([a * base_len + off + 1, b * base_len + off + 1], axis=1)


def shifted_pairs(rng, n, count, max_shift):
    """Pairs (i, i + p) with 1 <= p <= max_shift; inside a run of period
    dividing p their common extension reaches the end of the run."""
    p = rng.integers(1, max_shift + 1, size=count, dtype=np.int64)
    i = rng.integers(1, n - max_shift + 1, size=count, dtype=np.int64)
    return np.stack([i, i + p], axis=1)


def interleave(a, b):
    """Rows of a and b alternately, so that every stretch of the result
    holds both kinds of pair in equal parts."""
    out = np.empty((len(a) + len(b), a.shape[1]), dtype=a.dtype)
    out[0::2], out[1::2] = a, b
    return out
