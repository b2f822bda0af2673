"""The four workloads: what each generates from its seed.

Every workload carries the same kinds of input, so every run times every
operation: a text with its alphabet size and window parameter, LCE query
pairs over that text, and two integer arrays for the two inversion
variants.  The make-up differs per workload; the README says why.
"""

from dataclasses import dataclass, field

import numpy as np

import inputs

NAMES = ("random-bin", "mosaic-tau8", "repeats", "inversions")


@dataclass
class Inputs:
    text: np.ndarray        # int64 symbols of the text under BWT and LCE
    sigma: int
    tau: int                # None: the package's default_tau
    pairs: np.ndarray       # (count, 2) 1-based LCE query positions
    general: list           # array for the general inversion variant
    small: list             # array for the small variant, values < 2**k
    k: int
    # calls per round of the operations too short to time once; keyed
    # by the metric that times them
    reps: dict = field(default_factory=dict)


def _rng(name, seed):
    # one stream per (workload, seed), so workloads differ for equal seeds
    return np.random.default_rng([NAMES.index(name), int(seed)])


def random_bin(rng, reduction):
    # tau=2 is the default from 2^16 symbols on; this text is kept small
    # enough for invert_bwt's random walk to stay in a core's own cache
    n = 1 << 14
    text = inputs.random_text(rng, n, 2)
    pairs = inputs.uniform_pairs(rng, n, 16_000)
    m = 1 << 8
    general = inputs.random_text(rng, m, m).tolist()
    small = inputs.random_text(rng, m, 16).tolist()
    return Inputs(text, 2, 2, pairs, general, small, 4,
                  {"unbwt_s": 4, "inv_small_s": 2})


def mosaic_tau8(rng, reduction):
    n = 1 << 12
    text = inputs.periodic_mosaic(rng, n, 4)
    half = 4_000
    pairs = inputs.interleave(inputs.uniform_pairs(rng, n, half),
                              inputs.shifted_pairs(rng, n, half, 4))
    m = 1 << 8
    general = inputs.periodic_mosaic(rng, m, 4).tolist()
    small = inputs.periodic_mosaic(rng, m, 16).tolist()
    return Inputs(text, 4, 8, pairs, general, small, 4,
                  {"bwt_naive_s": 4, "unbwt_s": 8, "inv_small_s": 2})


def repeats(rng, reduction):
    base, copies = 1 << 10, 16
    text = inputs.repetitive_collection(rng, base, copies, 4, 0.004)
    half = 8_000
    pairs = inputs.interleave(inputs.aligned_pairs(rng, base, copies, half),
                              inputs.uniform_pairs(rng, base * copies, half))
    m_base = 1 << 4
    general = inputs.repetitive_collection(
        rng, m_base, copies, m_base * copies, 0.001).tolist()
    small = inputs.repetitive_collection(
        rng, m_base, copies, 16, 0.001).tolist()
    return Inputs(text, 4, None, pairs, general, small, 4,
                  {"unbwt_s": 4, "inv_small_s": 2})


def inversions(rng, reduction):
    m_general, m_small = 1 << 8, 1 << 11
    general = inputs.random_text(rng, m_general, m_general).tolist()
    small = inputs.random_text(rng, m_small, 16).tolist()
    # the BWT and LCE operations run on the bit text the general variant
    # hands to build_bwt
    bits = reduction(general).bits
    text = np.asarray(bits.symbols[:bits.n], dtype=np.int64)
    pairs = inputs.uniform_pairs(rng, len(text), 16_000)
    return Inputs(text, 2, None, pairs, general, small, 4,
                  {"unbwt_s": 4})


_MAKERS = {"random-bin": random_bin, "mosaic-tau8": mosaic_tau8,
           "repeats": repeats, "inversions": inversions}


def generate(name, seed, reduction):
    """Inputs of one workload; reduction is build_reduction_general."""
    return _MAKERS[name](_rng(name, seed), reduction)
