"""Independent output checks.

Every reference here is computed from the raw inputs with numpy and plain
Python; nothing imports the package under test.  Each checker returns the
number of failed operations among the outputs it was given, so a wrong
result is counted, never raised.
"""

import numpy as np


def suffix_array(text):
    """0-based suffix array of a symbol array, no sentinel appended.

    Prefix doubling on one composite integer key per suffix: a suffix
    that runs off the end ranks its missing half as 0, below every real
    rank, so a proper prefix sorts before its extensions.
    """
    n = len(text)
    rank = np.unique(text, return_inverse=True)[1].astype(np.int64) + 1
    k = 1
    while True:
        second = np.zeros(n, dtype=np.int64)
        second[:n - k] = rank[k:]
        key = rank * (n + 1) + second
        order = np.argsort(key, kind="stable")
        sk = key[order]
        new = np.empty(n, dtype=np.int64)
        new[order] = np.cumsum(np.concatenate([[1], sk[1:] != sk[:-1]]))
        rank = new
        if rank[order[-1]] == n or k >= n:
            return order
        k *= 2


def reference_bwt(text):
    """Transform and 1-based primary index read off suffix_array."""
    text = np.asarray(text, dtype=np.int64)
    sa = suffix_array(text)
    bwt = text[sa - 1]  # sa == 0 wraps to the last symbol
    primary = int(np.nonzero(sa == 0)[0][0]) + 1
    return bwt, primary


def check_bwt(result, ref_bwt, ref_primary):
    """1 when the transform or its primary index differs, else 0."""
    bwt, primary = result
    ok = np.array_equal(np.asarray(bwt, dtype=np.int64), ref_bwt)
    return 0 if ok and int(primary) == ref_primary else 1


def check_text(got, text):
    """1 when a recovered text differs from the original, else 0."""
    return 0 if np.array_equal(np.asarray(got, dtype=np.int64), text) else 1


def lce_holds(tb, i, j, ell):
    """Whether ell is the longest common extension of the 1-based
    suffixes i and j of the byte string tb."""
    n = len(tb)
    a, b = i - 1, j - 1
    if ell < 0 or a + ell > n or b + ell > n:
        return False
    if tb[a:a + ell] != tb[b:b + ell]:
        return False
    return a + ell == n or b + ell == n or tb[a + ell] != tb[b + ell]


def check_lce(tb, pairs, answers):
    """Number of wrong answers; a missing answer counts as wrong."""
    if len(answers) != len(pairs):
        return len(pairs)
    return sum(1 for (i, j), ell in zip(pairs, answers)
               if not lce_holds(tb, i, j, ell))


def inversions(values):
    """Pairs i < j with values[i] > values[j], by merge sort."""
    a = [int(v) for v in values]
    count = 0
    width = 1
    n = len(a)
    while width < n:
        out = []
        for lo in range(0, n, 2 * width):
            left = a[lo:lo + width]
            right = a[lo + width:lo + 2 * width]
            li = ri = 0
            while li < len(left) and ri < len(right):
                if right[ri] < left[li]:
                    out.append(right[ri])
                    count += len(left) - li
                    ri += 1
                else:
                    out.append(left[li])
                    li += 1
            out.extend(left[li:])
            out.extend(right[ri:])
        a = out
        width *= 2
    return count


def check_count(got, want):
    return 0 if int(got) == int(want) else 1


class RoundChecker:
    """References computed once per run; counts the failed operations of
    one round.  A round maps each end-to-end metric to the outputs of the
    calls it timed, one entry per call."""

    def __init__(self, text, pairs, general, small):
        self.text = np.asarray(text, dtype=np.int64)
        self.pairs = pairs
        self.bwt, self.primary = reference_bwt(self.text)
        self.tb = self.text.astype(np.uint8).tobytes()
        self.inv_general = inversions(general)
        self.inv_small = inversions(small)
        self._checked = (None, 0)

    def _wrong(self, answers):
        # repeated batches usually repeat their answers; check those once
        if answers != self._checked[0]:
            self._checked = (answers, check_lce(self.tb, self.pairs, answers))
        return self._checked[1]

    def round(self, out):
        """(attempted, failed): one operation per call, one per query."""
        results = []
        for key in ("bwt_s", "bwt_naive_s"):
            results += [check_bwt(o, self.bwt, self.primary) for o in out[key]]
        results += [check_text(o, self.text) for o in out["unbwt_s"]]
        results += [check_count(o, self.inv_general)
                    for o in out["inv_general_s"]]
        results += [check_count(o, self.inv_small) for o in out["inv_small_s"]]
        batches = out["lce_query_rate"]
        wrong = [self._wrong(answers) for answers in batches]
        # an index fails when any batch it answered holds a wrong answer
        results += [1 if any(wrong) else 0 for _ in out["lce_build_s"]]
        results += [0 if status == 0 and not any(wrong) and
                    lines == [str(a) for a in batches[0]] else 1
                    for status, lines in out["lce_cli_s"]]
        attempted = len(results) + len(self.pairs) * len(batches)
        return attempted, sum(results) + sum(wrong)
