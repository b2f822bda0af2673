"""The benchmark's tracer wraps package names it looks up by string.

A name that no longer resolves is skipped silently and the per-layer
metric that reads it drops to zero, so this test pins which names of
perfbench/tracer.py's WRAPPED the package still provides.
"""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# wrapped names of stages the package has since folded or dropped
ABSENT = {
    "bwt_builder.augment_sync_set",
    "bwt_builder.build_wavelet_degree",
    "bwt_builder.derive_runs",
    "bwt_builder.LceIndex",
    "bwt_builder.correct_periodic",
    "suffix_core._kasai",
    "sync_set.construct_packed_fast",
    "sync_set.RankBitvector",
    "lce_index.construct_packed_fast",
    "inversions.count_freq",
    "inversions._blocks_general",
}


def _wrapped():
    spec = importlib.util.spec_from_file_location("_sst_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAPPED


def test_wrapped_names_resolve():
    missing = {"%s.%s" % (mod, name) for mod, name, _ in _wrapped()
               if not hasattr(importlib.import_module("sst." + mod), name)}
    assert missing == ABSENT
