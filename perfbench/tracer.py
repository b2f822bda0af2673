"""Spans recorded from outside the package.

The tracer replaces module-level names with timing wrappers at the place
where each caller looks the name up (``sst.bwt_builder.construct`` is the
name ``build_bwt`` calls, not ``sst.sync_set.construct``), records one span
per call into an in-memory list, and puts the originals back on
``uninstall``.  A name that no longer exists is skipped and listed in
``absent``.  A span's self time is its duration minus its children's.
"""

import time

# (module, name, counter) for every wrapped name; the counter turns the
# call's result into the one integer that the span keeps, if any
WRAPPED = (
    ("bwt_builder", "construct", None),
    ("bwt_builder", "augment_sync_set", len),
    ("bwt_builder", "sort_sync_suffixes", None),
    ("bwt_builder", "_emit_blocks", None),
    ("bwt_builder", "build_wavelet_degree", None),
    ("bwt_builder", "derive_runs", lambda r: len(r[0])),
    ("bwt_builder", "LceIndex", None),
    ("bwt_builder", "correct_periodic", None),
    ("bwt_builder", "SuffixArrayIndex", None),
    ("sync_set", "compute_q_and_b", None),
    ("sync_set", "build_partition", None),
    ("sync_set", "construct_packed_fast", None),
    ("sync_set", "construct_deterministic", None),
    ("sync_set", "construct_from_ids", len),
    ("sync_set", "RankBitvector", None),
    ("sync_sort", "build_tprime", len),
    ("sync_sort", "build_suffix_array", None),
    ("suffix_core", "_kasai", None),
    ("suffix_core", "_build_sparse_min",
     lambda table: sum(row.nbytes for row in table)),
    ("lce_index", "construct_packed_fast", None),
    ("lce_index", "sort_sync_suffixes", None),
    ("inversions", "build_reduction_general", lambda rt: rt.bits.n),
    ("inversions", "build_reduction_small", lambda rt: rt.bits.n),
    ("inversions", "_blocks_general", None),
    ("inversions", "_blocks_small", None),
    ("inversions", "build_bwt", None),
    ("inversions", "count_freq", None),
    ("inversions", "count_inversions_bits", None),
    ("cli", "LceIndex", None),
)


class Span:
    __slots__ = ("label", "parent", "start", "end", "value", "children_s")

    def __init__(self, label, parent):
        self.label = label
        self.parent = parent
        self.start = self.end = 0.0
        self.value = None
        self.children_s = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.children_s


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._saved = []

    def _open(self, label):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(label, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def _close(self, idx):
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].children_s += span.duration

    def call(self, label, fn, *args, **kwargs):
        """Run fn inside a span of its own; for the benchmark's calls."""
        idx = self._open(label)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrapper(self, label, orig, counter):
        def traced(*args, **kwargs):
            idx = self._open(label)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                try:
                    self.spans[idx].value = counter(result)
                except (TypeError, AttributeError, IndexError):
                    pass    # a changed return shape leaves the count unset
            return result
        return traced

    def install(self, modules):
        """Wrap every name of WRAPPED in the given {name: module} map."""
        for mod_name, attr, counter in WRAPPED:
            module = modules.get(mod_name)
            label = "%s.%s" % (mod_name, attr)
            orig = getattr(module, attr, None)
            if orig is None:
                if label not in self.absent:
                    self.absent.append(label)
                continue
            setattr(module, attr, self._wrapper(label, orig, counter))
            self._saved.append((module, attr, orig))

    def uninstall(self):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def dump(self):
        return [[s.label, s.parent, s.start, s.end, s.value]
                for s in self.spans]
