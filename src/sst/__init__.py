"""String synchronizing sets with LCE, BWT, and counting applications."""

from .packed_text import (PackedText, SubstringKey, bulk_keys, extract,
                          lcp_fragments, pack, substring_period)
from .succinct import RankBitvector, count_inversions_bits
from .suffix_core import SuffixArrayIndex, build_suffix_array
from .sync_set import (SyncSet, compute_q_and_b, construct,
                       construct_deterministic, construct_packed_fast,
                       construct_randomized, load_sync_set, save_sync_set,
                       validate_sync_set)
from .sync_sort import SortedSyncOrder, TPrimeString, sort_sync_suffixes
from .lce_index import LceIndex, default_tau
from .bwt_builder import (BwtResult, FreqTable, PeriodicRun, build_bwt,
                          count_freq, invert_bwt, offline_range_count,
                          read_bwt, write_bwt)
from .inversions import (ReductionText, build_reduction_general,
                         build_reduction_small, count_inversions_via_bwt,
                         extract_wavelet_blocks)

__version__ = "0.1.0"
