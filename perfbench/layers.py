"""Per-layer metrics derived from the spans of one traced round.

Operation spans carry the label ``op:<metric>`` of the end-to-end metric
they time; the other labels are ``<module>.<name>`` from tracer.WRAPPED.
Times are self times summed over the round; sizes are read under the
round's ``bwt_s`` operation, the default pipeline on the workload text.
"""

from collections import defaultdict

MB = float(1 << 20)

# nearest enclosing suffix-array build decides which text a table indexes
_SA_CONTEXT = {"sync_sort.build_suffix_array": "reduced",
               "bwt_builder.SuffixArrayIndex": "text"}


def _ancestors(spans, span):
    idx = span.parent
    while idx is not None:
        yield spans[idx]
        idx = spans[idx].parent


def _sa_context(spans, span):
    for anc in _ancestors(spans, span):
        if anc.label in _SA_CONTEXT:
            return _SA_CONTEXT[anc.label]
    return None


def _under(spans, span, label):
    return any(anc.label == label for anc in _ancestors(spans, span))


def round_metrics(spans, lo, hi):
    """Per-layer values of the traced round whose spans are [lo, hi)."""
    own = spans[lo:hi]
    self_s = defaultdict(float)
    for s in own:
        self_s[s.label] += s.self_s

    def total(*labels):
        return sum(self_s[label] for label in labels)

    def under_bwt(label):
        return sum(s.value for s in own if s.label == label
                   and s.value is not None and _under(spans, s, "op:bwt_s"))

    sa_s = defaultdict(float)
    rmq_mb = defaultdict(float)
    for s in own:
        if s.label in ("suffix_core._kasai", "suffix_core._build_sparse_min"):
            ctx = _sa_context(spans, s)
            part = "kasai" if s.label.endswith("_kasai") else "rmq"
            sa_s[ctx, part] += s.self_s
            if part == "rmq" and s.value is not None:
                rmq_mb[ctx] = max(rmq_mb[ctx], s.value / MB)

    fallbacks = sum(
        1 for s in own if s.label == "sync_set.construct_deterministic"
        and s.parent is not None
        and spans[s.parent].label.endswith(".construct_packed_fast"))

    return {
        "sync_set.q_and_b_s": total("sync_set.compute_q_and_b"),
        "sync_set.partition_s": total("sync_set.build_partition"),
        "sync_set.assign_s": total("bwt_builder.construct",
                                   "sync_set.construct_packed_fast",
                                   "lce_index.construct_packed_fast",
                                   "sync_set.construct_deterministic"),
        "sync_set.select_s": total("sync_set.construct_from_ids"),
        "sync_set.det_fallbacks": fallbacks,
        "sync_set.size": under_bwt("sync_set.construct_from_ids"),
        "sync_sort.tprime_s": total("sync_sort.build_tprime"),
        "sync_sort.reduced_len": under_bwt("sync_sort.build_tprime"),
        "suffix_core.reduced_doubling_s":
            total("sync_sort.build_suffix_array"),
        "suffix_core.reduced_kasai_s": sa_s["reduced", "kasai"],
        "suffix_core.reduced_rmq_s": sa_s["reduced", "rmq"],
        "suffix_core.reduced_rmq_mb": rmq_mb["reduced"],
        "suffix_core.text_doubling_s": total("bwt_builder.SuffixArrayIndex"),
        "suffix_core.text_kasai_s": sa_s["text", "kasai"],
        "suffix_core.text_rmq_s": sa_s["text", "rmq"],
        "suffix_core.text_rmq_mb": rmq_mb["text"],
        "succinct.rank_build_s": total("sync_set.RankBitvector"),
        "succinct.wavelet_build_s": total("bwt_builder.build_wavelet_degree"),
        "bwt_builder.augment_s": total("bwt_builder.augment_sync_set"),
        "bwt_builder.augmented_size":
            under_bwt("bwt_builder.augment_sync_set"),
        "bwt_builder.emit_s": total("bwt_builder._emit_blocks"),
        "bwt_builder.runs_s": total("bwt_builder.derive_runs"),
        "bwt_builder.patch_s": total("bwt_builder.correct_periodic",
                                     "bwt_builder.LceIndex"),
        "bwt_builder.periodic_runs": under_bwt("bwt_builder.derive_runs"),
        "bwt_builder.unattributed_s": total("op:bwt_s"),
        "lce_index.build_self_s": total("op:lce_build_s", "cli.LceIndex"),
        "cli.lce_rest_s": total("op:lce_cli_s"),
        "inversions.encode_s": total("inversions.build_reduction_general",
                                     "inversions.build_reduction_small"),
        "inversions.bwt_s": sum(s.duration for s in own
                                if s.label == "inversions.build_bwt"),
        "inversions.freq_s": total("inversions.count_freq"),
        "inversions.locate_s": total("inversions._blocks_general",
                                     "inversions._blocks_small"),
        "inversions.count_s": total("inversions.count_inversions_bits"),
        "inversions.text_len": sum(
            s.value for s in own if s.value is not None
            and s.label.startswith("inversions.build_reduction_")),
    }


def bwt_stages(spans, lo, hi):
    """Self times of every span inside the round's bwt_s operation,
    the operation's own self time included, against its duration."""
    root = next(s for s in spans[lo:hi] if s.label == "op:bwt_s")
    stages = defaultdict(float)
    stages["unattributed"] = root.self_s
    for s in spans[lo:hi]:
        if _under(spans, s, "op:bwt_s"):
            stages[s.label] += s.self_s
    return root.duration, dict(stages)


UNITS = {"_s": "s", "_mb": "MB", "_us": "us"}


def unit_of(name):
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"
