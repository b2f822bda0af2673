"""Self-test of the output checkers at toy sizes.

Builds one round of real outputs on a small text, confirms the checkers
pass them, then corrupts one output at a time and confirms each
corruption is counted as exactly one failed operation (or, for query
answers, one per wrong answer).  run.py calls this at the end of every
run; it also runs on its own:

    python3 perfbench/selftest.py
"""

import importlib
import os
import sys

import numpy as np

import checks


def _toy_round(mods, text, pairs, general, small, k):
    pt = mods["packed_text"].pack(text, 2)
    build_bwt = mods["bwt_builder"].build_bwt
    res = build_bwt(pt)
    naive = build_bwt(pt, force_naive=True)
    idx = mods["lce_index"].LceIndex(pt)
    answers = [idx.query(i, j) for i, j in pairs]
    count = mods["inversions"].count_inversions_via_bwt
    return {
        "bwt_s": [(np.array(res.bwt), res.primary_index)],
        "bwt_naive_s": [(np.array(naive.bwt), naive.primary_index)],
        "unbwt_s": [mods["bwt_builder"].invert_bwt(res)],
        "lce_build_s": [idx.tau],
        "lce_query_rate": [answers],
        "lce_cli_s": [(0, [str(a) for a in answers])],
        "inv_general_s": [count(general, "general")],
        "inv_small_s": [count(small, "small", k=k)],
    }


def _swap_unequal(bwt):
    out = np.array(bwt)
    a = 0
    b = int(np.nonzero(out != out[a])[0][0])
    out[a], out[b] = out[b], out[a]
    return out


def run(mods):
    """Problems found; an empty list means every corruption was caught."""
    rng = np.random.default_rng(20190404)
    n = 400
    text = rng.integers(0, 2, size=n)
    text[100:160] = np.tile([0, 1, 1], 20)      # one periodic stretch
    pairs = [tuple(p) for p in rng.integers(1, n + 1, size=(200, 2)).tolist()]
    pairs += [(101, 104), (104, 110)]
    general = rng.integers(0, 64, size=64).tolist()
    small = rng.integers(0, 8, size=64).tolist()
    checker = checks.RoundChecker(text, pairs, general, small)
    problems = []

    brute = sorted(range(n), key=lambda i: text[i:].tolist())
    if checks.suffix_array(text).tolist() != brute:
        problems.append("reference suffix array disagrees with sorting")
    quad = sum(1 for i in range(64) for j in range(i + 1, 64)
               if general[i] > general[j])
    if checks.inversions(general) != quad:
        problems.append("reference inversion count disagrees with pairs")

    good = _toy_round(mods, text, pairs, general, small, 3)
    attempted, failed = checker.round(good)
    if failed:
        problems.append("%d failures on untouched outputs" % failed)

    bwt, primary = good["bwt_s"][0]
    answers = good["lce_query_rate"][0]
    lines = good["lce_cli_s"][0][1]
    corruptions = {
        "BWT with two symbols swapped":
            ("bwt_s", (_swap_unequal(bwt), primary), 1),
        "naive BWT with two symbols swapped":
            ("bwt_naive_s", (_swap_unequal(bwt), primary), 1),
        "primary index one too high": ("bwt_s", (bwt, primary + 1), 1),
        "primary index one too low": ("bwt_naive_s", (bwt, primary - 1), 1),
        "inverted text with one symbol changed":
            ("unbwt_s", np.concatenate([[1 - text[0]], text[1:]]), 1),
        # a wrong answer fails the query and the index that gave it, and
        # the command-line output that repeats it
        "LCE answer one too high":
            ("lce_query_rate", [answers[0] + 1] + answers[1:], 3),
        "LCE answer one too low":
            ("lce_query_rate", answers[:-1] + [answers[-1] - 1], 3),
        "command-line answer one too high":
            ("lce_cli_s", (0, [str(answers[0] + 1)]
                           + [str(a) for a in answers[1:]]), 1),
        "command-line exit status 1": ("lce_cli_s", (1, lines), 1),
        "general inversion count one too high":
            ("inv_general_s", good["inv_general_s"][0] + 1, 1),
        "small inversion count one too low":
            ("inv_small_s", good["inv_small_s"][0] - 1, 1),
    }
    for label, (key, value, want) in corruptions.items():
        bad = dict(good)
        bad[key] = [value]
        got = checker.round(bad)
        if got != (attempted, want):
            problems.append("%s: counted %d failed of %d, expected %d"
                            % (label, got[1], got[0], want))
    return problems


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    mods = {name: importlib.import_module("sst." + name)
            for name in ("packed_text", "bwt_builder", "lce_index",
                         "inversions")}
    problems = run(mods)
    for line in problems:
        print(line)
    print("checker self-test: %s" % ("ok" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
