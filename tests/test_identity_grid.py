"""The identity grid of tools/identity_digest.py, checked against the
brute-force oracles.

The test loads the script by path, as test_tracer_seam.py loads the
benchmark's tracer, so the grid has one definition.  The desk profile
checks a seeded slice of its cells; SST_ACCEPTANCE_FULL=1 checks them
all.  Each cell checks build_bwt against naive_bwt, invert_bwt against
the text, LceIndex's query and query_many against naive_lce, and the
det set against naive_det_positions.  Each text of the cells checks the
sa kind: the suffix array against naive_suffix_array, the inverse
against it, and the LCP array against naive_lce.
"""

import importlib.util
import pathlib
import random

import numpy as np

from sst.bwt_builder import build_bwt, invert_bwt
from sst.lce_index import LceIndex
from sst.packed_text import pack
from sst.reference_oracles import (naive_bwt, naive_det_positions,
                                   naive_lce, naive_suffix_array)
from sst.sync_set import construct

from conftest import full_profile

DIGEST = (pathlib.Path(__file__).resolve().parents[1] / "tools"
          / "identity_digest.py")

# cells of the desk slice, drawn by random.Random(22); about 6 s
SLICE = 60


def _grid():
    spec = importlib.util.spec_from_file_location("_sst_identity_digest",
                                                  DIGEST)
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    return grid


def _check_suffixes(grid, seq):
    sa, isa, lcp = grid.suffix_outputs(seq)
    want = naive_suffix_array(seq)
    assert sa.tolist() == want
    assert isa[sa - 1].tolist() == list(range(1, len(seq) + 1))
    assert lcp.tolist() == [naive_lce(seq, a, b)
                            for a, b in zip(want, want[1:])]


def _check_cell(seq, pt, tau, want_bwt):
    res = build_bwt(pt, tau)
    assert (res.bwt.tolist(), res.primary_index) == want_bwt
    assert invert_bwt(res).tolist() == seq
    idx = LceIndex(pt, tau)
    gen = np.random.default_rng([pt.sigma, pt.n, tau])
    i, j = gen.integers(1, pt.n + 1, size=(2, 64))
    # half the pairs a short shift apart, where common extensions run long
    j[::2] = np.minimum(i[::2] + gen.integers(0, 8, size=32), pt.n)
    want = [naive_lce(seq, int(a), int(b)) for a, b in zip(i, j)]
    assert [idx.query(int(a), int(b)) for a, b in zip(i, j)] == want
    assert idx.query_many(i, j).tolist() == want
    det = construct(pt, tau, mode="det").positions
    assert det.tolist() == naive_det_positions(seq, tau)


def test_identity_grid_matches_oracles():
    grid = _grid()
    cells = [(t, tau) for t in grid.texts() for tau in grid.taus(t[2], t[0])]
    if not full_profile():
        cells = random.Random(22).sample(cells, SLICE)
    oracle = {}
    for (sigma, name, n, seq), tau in cells:
        pt = pack(seq, sigma)
        key = (sigma, name, n)
        try:
            if key not in oracle:
                oracle[key] = naive_bwt(seq)
                _check_suffixes(grid, seq)
            _check_cell(seq, pt, tau, oracle[key])
        except AssertionError as err:
            raise AssertionError("sigma=%d %s n=%d tau=%d"
                                 % (sigma, name, n, tau)) from err
