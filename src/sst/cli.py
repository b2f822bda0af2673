"""Command line surface for batch transforms, queries, and benchmarks.

Texts are raw bytes; the alphabet size defaults to the largest byte
value plus one.  All randomness is seeded, so identical inputs and
flags produce identical outputs.
"""

import argparse
import functools
import json
import resource
import sys
import time

import numpy as np

from . import reference_oracles as oracles
from .bwt_builder import build_bwt, invert_bwt, read_bwt, write_bwt
from .inversions import count_inversions_via_bwt
from .lce_index import LceIndex, default_tau
from .packed_text import pack
from .sync_set import (compute_q_and_b, construct, load_sync_set,
                       save_sync_set, validate_sync_set)


class CliError(ValueError):
    """An input problem; main reports it, like any ValueError, with exit
    status 2."""


def _read_text(path):
    """The ASCII text of a file, or of stdin for "-"."""
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _packed_from_file(path, sigma=None):
    with open(path, "rb") as fh:
        data = fh.read()
    if not data:
        raise CliError("%s: empty input text" % path)
    if sigma is None:
        sigma = max(2, max(data) + 1)
    if max(data) >= sigma:
        raise CliError("%s: byte value %d outside alphabet of size %d"
                       % (path, max(data), sigma))
    return pack(np.frombuffer(data, dtype=np.uint8), sigma)


def _meta_path(args):
    return args.meta if args.meta else args.output + ".meta"


def cmd_bwt(args):
    pt = _packed_from_file(args.input, args.sigma)
    res = build_bwt(pt, tau=args.tau, force_naive=args.naive)
    if args.verify:
        want_bwt, want_primary = oracles.naive_bwt(pt.to_list())
        if (list(res.bwt) != list(want_bwt)
                or res.primary_index != want_primary):
            print("verification failed: transform disagrees with the "
                  "direct suffix-sort oracle", file=sys.stderr)
            return 1
    write_bwt(res, args.output, _meta_path(args))
    return 0


def cmd_unbwt(args):
    # read_bwt checks every payload byte against sigma, so the inverse
    # holds only byte values
    res = read_bwt(args.input, args.meta)
    with open(args.output, "wb") as fh:
        fh.write(invert_bwt(res).astype(np.uint8).tobytes())
    return 0


def cmd_sync(args):
    pt = _packed_from_file(args.input, args.sigma)
    if args.action == "validate":
        if not args.set:
            raise CliError("validate requires --set")
        s = load_sync_set(args.set)
        tau = args.tau if args.tau is not None else s.tau
        if s.n != pt.n or s.tau != tau:
            print("structure violation: set header (tau=%d n=%d) does not "
                  "match the text (tau=%d n=%d)" % (s.tau, s.n, tau, pt.n))
            return 1
        report = validate_sync_set(pt, tau, s)
        if report.ok:
            print("valid")
            return 0
        if report.condition == "density":
            print("density violation at i=%d: %s"
                  % (report.witness[0], report.message))
        elif report.condition == "consistency":
            print("consistency violation at i=%d j=%d: %s"
                  % (report.witness[0], report.witness[1], report.message))
        else:
            print("structure violation: %s" % report.message)
        return 1
    tau = args.tau if args.tau is not None else default_tau(pt.n, pt.sigma)
    if not 1 <= tau <= pt.n // 2:
        raise CliError("tau must satisfy 1 <= tau <= n/2 (n=%d)" % pt.n)
    if args.action == "build":
        if not args.output:
            raise CliError("build requires --output")
        s = construct(pt, tau, mode=args.mode, seed=args.seed)
        save_sync_set(s, args.output)
        return 0
    s = construct(pt, tau, mode=args.mode, seed=args.seed)
    psets = compute_q_and_b(pt, tau)
    print("n=%d tau=%d" % (pt.n, tau))
    print("size=%d" % len(s))
    print("bound_30n_over_tau=%d" % (30 * pt.n // tau))
    print("q_size=%d" % len(psets.q_positions))
    print("b_size=%d" % len(psets.b_positions))
    return 0


def _parse_query_line(line, lineno, n):
    parts = line.split()
    if len(parts) != 2:
        raise CliError("line %d: expected two integers, got %r"
                       % (lineno, line.strip()))
    try:
        i, j = int(parts[0]), int(parts[1])
    except ValueError:
        raise CliError("line %d: non-integer token in %r"
                       % (lineno, line.strip()))
    if not (1 <= i <= n and 1 <= j <= n):
        raise CliError("line %d: position out of range [1..%d]" % (lineno, n))
    return i, j


def _plain_queries(text, n):
    """The numbers of a query text as one int64 array, i1 j1 i2 j2 ...,
    when the text holds only digits, spaces and newlines, each non-blank
    line holds two numbers of at most 18 digits, and all lie in [1..n];
    None otherwise."""
    buf = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
    digit = (buf >= 48) & (buf <= 57)
    if not np.all(digit | (buf == 32) | (buf == 10)):
        return None
    # the starts and ends of the numbers alternate
    edges = np.flatnonzero(np.diff(digit, prepend=False, append=False))
    starts, ends = edges[0::2], edges[1::2]
    if len(starts) % 2 or np.any(ends - starts > 18):
        return None
    line = np.searchsorted(np.flatnonzero(buf == 10), starts)
    if np.any(line[0::2] != line[1::2]) or np.any(line[2::2] == line[1:-1:2]):
        return None
    vals = np.fromstring(text, dtype=np.int64, sep=" ")
    if np.any((vals < 1) | (vals > n)):
        return None
    return vals


def _parse_queries(text, n):
    """Both columns of a query text as int64 arrays.

    A plain text is parsed in bulk; any other is scanned line by line,
    which accepts what int() accepts and raises at the first bad line.
    """
    vals = _plain_queries(text, n)
    if vals is None:
        vals = np.array([_parse_query_line(line, lineno, n)
                         for lineno, line in enumerate(text.split("\n"), 1)
                         if line.strip()], dtype=np.int64).reshape(-1)
    return vals[0::2], vals[1::2]


def cmd_lce(args):
    pt = _packed_from_file(args.input, args.sigma)
    idx = LceIndex(pt, tau=args.tau)
    text = _read_text(args.queries)
    qi, qj = _parse_queries(text, pt.n)
    answers = idx.query_many(qi, qj).tolist()
    if args.verify:
        seq = pt.to_list()
        for k, (i, j, ans) in enumerate(zip(qi.tolist(), qj.tolist(),
                                            answers)):
            if ans != oracles.naive_lce(seq, i, j):
                lineno = [no for no, line in enumerate(text.split("\n"), 1)
                          if line.strip()][k]
                print("verification failed at line %d (query %d %d)"
                      % (lineno, i, j), file=sys.stderr)
                return 1
    sys.stdout.write("%d\n" * len(answers) % tuple(answers))
    return 0


def _read_int_list(path):
    out = []
    for tok in _read_text(path).replace(",", " ").split():
        try:
            out.append(int(tok))
        except ValueError:
            raise CliError("non-integer token %r" % tok)
    return out


def cmd_inversions(args):
    a = _read_int_list(args.input)
    if any(v < 0 for v in a):
        raise CliError("values must be nonnegative")
    if args.variant == "naive":
        if args.k is not None:
            raise CliError("--k sets the small variant's width only")
        count = oracles.fenwick_inversions(a)
    else:
        # the count depends only on the order of the values, so the
        # reductions read their dense ranks, which --k then bounds
        ranks = np.unique(a, return_inverse=True)[1]
        count = count_inversions_via_bwt(ranks, variant=args.variant,
                                         k=args.k)
    print(count)
    return 0


BENCH_QUERY_PAIRS = 1 << 16


def _bench_text(n, seed):
    rng = np.random.default_rng(seed)
    return pack(rng.integers(0, 2, size=n, dtype=np.uint8), 2)


def _time_call(fn, repeat):
    """Best time over repeat calls, the minor page faults per call (the
    process's ru_minflt over the calls, averaged), and the last call's
    result."""
    best = float("inf")
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return best, round(faults / repeat), out


def cmd_bench(args):
    if args.repeat < 1:
        raise CliError("--repeat must be at least 1")
    sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    rows = []
    for n in sizes:
        pt = _bench_text(n, args.seed)
        tau = default_tau(n, pt.sigma)
        # (name, call, size of the synchronizing set the call built), run
        # in this order; unbwt inverts the kept build_bwt_sync result
        kept = {}
        tasks = [
            ("sync_construct_det",
             lambda pt=pt, tau=tau: construct(pt, tau, mode="det"), len),
            ("sync_construct_random",
             lambda pt=pt, tau=tau: construct(pt, tau, mode="random"), len),
            ("lce_build", lambda pt=pt, tau=tau: LceIndex(pt, tau),
             lambda idx: len(idx.sync)),
            ("build_bwt_sync", lambda pt=pt, tau=tau: build_bwt(pt, tau),
             lambda res: res.meta["sync_size"]),
            ("build_bwt_naive",
             lambda pt=pt, tau=tau: build_bwt(pt, tau, force_naive=True),
             None),
            ("unbwt", lambda kept=kept: invert_bwt(kept["build_bwt_sync"]),
             None),
        ]
        # the same seeded pairs through the batch and the scalar path
        idx = LceIndex(pt, tau)
        qi, qj = np.random.default_rng([args.seed, n]).integers(
            1, n + 1, size=(2, BENCH_QUERY_PAIRS))
        pairs = list(zip(qi.tolist(), qj.tolist()))
        tasks += [
            ("lce_query_scalar",
             lambda idx=idx, pairs=pairs: [idx.query(i, j) for i, j in pairs],
             None),
            ("lce_query_many",
             lambda idx=idx, qi=qi, qj=qj: idx.query_many(qi, qj), None),
        ]
        timed = {}
        for name, fn, size_of in tasks:
            timed[name], faults, out = _time_call(fn, args.repeat)
            row = {"n": n, "task": name, "seconds": timed[name], "tau": tau,
                   "minor_faults": faults}
            if size_of is not None:
                row["sync_size"] = int(size_of(out))
            rows.append(row)
            if name == "build_bwt_sync":
                kept[name] = out
            elif name == "unbwt" and not np.array_equal(out, pt.symbols[:n]):
                raise AssertionError("invert_bwt did not recover the text")
        ratio = timed["build_bwt_naive"] / max(timed["build_bwt_sync"], 1e-9)
        rows.append({"n": n, "task": "naive_over_sync_ratio",
                     "seconds": ratio, "tau": tau})
    if args.json:
        print(json.dumps(rows))
        return 0
    for row in rows:
        print("%-12d %-24s %10.4f  tau=%d" % (row["n"], row["task"],
                                              row["seconds"], row["tau"]))
    for row in rows:
        if row["task"] == "naive_over_sync_ratio" and row["seconds"] < 1.5:
            print("note: sync speedup below 1.5x at n=%d (ratio %.2f)"
                  % (row["n"], row["seconds"]))
    return 0


# built once per process: parse_args leaves the parser unchanged
@functools.lru_cache(maxsize=1)
def build_parser():
    top = argparse.ArgumentParser(
        prog="sst",
        description="Synchronizing-set text index toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bwt", help="build the transform of a byte text")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--meta", help="metadata sidecar path "
                                  "(default: <output>.meta)")
    p.add_argument("--sigma", type=int)
    p.add_argument("--tau", type=int)
    p.add_argument("--naive", action="store_true",
                   help="use the direct suffix-sort backend")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the direct oracle")
    p.set_defaults(fn=cmd_bwt)

    p = sub.add_parser("unbwt", help="invert a transform back to the text")
    p.add_argument("--input", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_unbwt)

    p = sub.add_parser("sync", help="build, validate, or describe a "
                                    "synchronizing set")
    p.add_argument("action", choices=["build", "validate", "stats"])
    p.add_argument("--input", required=True)
    p.add_argument("--output", help="set file to write (build)")
    p.add_argument("--set", help="set file to check (validate)")
    p.add_argument("--sigma", type=int)
    p.add_argument("--tau", type=int)
    p.add_argument("--mode", choices=["det", "random"], default="det")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_sync)

    p = sub.add_parser("lce", help="answer longest-common-extension queries")
    p.add_argument("--input", required=True)
    p.add_argument("--queries", default="-",
                   help="file of 'i j' lines (default: stdin)")
    p.add_argument("--sigma", type=int)
    p.add_argument("--tau", type=int)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(fn=cmd_lce)

    p = sub.add_parser("inversions", help="count inversions of an "
                                          "integer list")
    p.add_argument("--input", required=True,
                   help="whitespace- or comma-separated integers "
                        "('-' for stdin)")
    p.add_argument("--variant", choices=["small", "general", "naive"],
                   default="general")
    p.add_argument("--k", type=int, help="value width for the small variant")
    p.set_defaults(fn=cmd_inversions)

    p = sub.add_parser("bench", help="wall-time table, no pass/fail")
    p.add_argument("--sizes", default="1048576,4194304,16777216",
                   help="comma-separated text lengths")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_bench)
    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print("sst: error: %s" % exc, file=sys.stderr)
        return 1 if isinstance(exc, OSError) else 2


if __name__ == "__main__":
    sys.exit(main())
