"""Command line surface for batch transforms, queries, and benchmarks.

Texts are raw bytes; the alphabet size defaults to the largest byte
value plus one.  All randomness is seeded, so identical inputs and
flags produce identical outputs.
"""

import argparse
import json
import sys
import time

import numpy as np

from . import reference_oracles as oracles
from .bwt_builder import build_bwt, invert_bwt, read_bwt, write_bwt
from .inversions import count_inversions_via_bwt
from .lce_index import LceIndex
from .packed_text import pack
from .sync_set import (compute_q_and_b, construct, load_sync_set,
                       save_sync_set, validate_sync_set)


class CliError(Exception):
    """Raised for input problems; carries the process exit status."""

    def __init__(self, message, status=2):
        super().__init__(message)
        self.status = status


def _read_bytes(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(str(exc), status=1)


def _packed_from_file(path, sigma=None):
    data = _read_bytes(path)
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
        want_bwt, want_primary = oracles.naive_bwt(
            [pt.char_at(i) for i in range(1, pt.n + 1)])
        if (list(res.bwt) != list(want_bwt)
                or res.primary_index != want_primary):
            print("verification failed: transform disagrees with the "
                  "direct suffix-sort oracle", file=sys.stderr)
            return 1
    write_bwt(res, args.output, _meta_path(args))
    return 0


def cmd_unbwt(args):
    try:
        res = read_bwt(args.input, args.meta)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc), status=1 if isinstance(exc, OSError) else 2)
    text = np.asarray(invert_bwt(res), dtype=np.int64)
    if text.size and text.max() > 255:
        raise CliError("decoded symbols exceed the byte range")
    with open(args.output, "wb") as fh:
        fh.write(text.astype(np.uint8).tobytes())
    return 0


def cmd_sync(args):
    pt = _packed_from_file(args.input, args.sigma)
    if args.action == "validate":
        if not args.set:
            raise CliError("validate requires --set")
        try:
            s = load_sync_set(args.set)
        except (OSError, ValueError) as exc:
            raise CliError(str(exc),
                           status=1 if isinstance(exc, OSError) else 2)
        tau = args.tau if args.tau else s.tau
        if s.n != pt.n or s.tau != tau:
            print("structure violation: set header (tau=%d n=%d) does not "
                  "match the text (tau=%d n=%d)" % (s.tau, s.n, tau, pt.n))
            return 1
        report = validate_sync_set(pt, tau, s, seed=args.seed)
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
    tau = args.tau if args.tau else max(1, pt.n // 64)
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


def cmd_lce(args):
    pt = _packed_from_file(args.input, args.sigma)
    idx = LceIndex(pt, tau=args.tau)
    if args.queries == "-":
        lines = sys.stdin.readlines()
    else:
        try:
            with open(args.queries, "r", encoding="ascii") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise CliError(str(exc), status=1)
    seq = None
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        i, j = _parse_query_line(line, lineno, pt.n)
        ans = idx.query(i, j)
        if args.verify:
            if seq is None:
                seq = [pt.char_at(p) for p in range(1, pt.n + 1)]
            if ans != oracles.naive_lce(seq, i, j):
                print("verification failed at line %d (query %d %d)"
                      % (lineno, i, j), file=sys.stderr)
                return 1
        print(ans)
    return 0


def _read_int_list(path):
    if path == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="ascii") as fh:
                raw = fh.read()
        except OSError as exc:
            raise CliError(str(exc), status=1)
    out = []
    for tok in raw.replace(",", " ").split():
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
        count = oracles.fenwick_inversions(a)
    else:
        count = count_inversions_via_bwt(
            a, variant=args.variant, k=args.k,
            force_naive_bwt=args.naive_bwt)
    print(count)
    return 0


def _bench_text(n, seed):
    rng = np.random.default_rng(seed)
    return pack(rng.integers(0, 2, size=n, dtype=np.uint8), 2)


def _time_call(fn, repeat):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def cmd_bench(args):
    sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    rows = []
    for n in sizes:
        pt = _bench_text(n, args.seed)
        tau = max(1, min(8, n // 2))
        tasks = [
            ("sync_construct_fast",
             lambda pt=pt, tau=tau: construct(pt, tau, mode="fast")),
            ("lce_build", lambda pt=pt: LceIndex(pt)),
            ("build_bwt_sync", lambda pt=pt: build_bwt(pt)),
            ("build_bwt_naive",
             lambda pt=pt: build_bwt(pt, force_naive=True)),
        ]
        if n <= 1 << 20:
            tasks.insert(1, ("sync_construct_det",
                             lambda pt=pt, tau=tau: construct(
                                 pt, tau, mode="det")))
        timed = {}
        for name, fn in tasks:
            timed[name] = _time_call(fn, args.repeat)
            rows.append({"n": n, "task": name, "seconds": timed[name]})
        ratio = timed["build_bwt_naive"] / max(timed["build_bwt_sync"], 1e-9)
        rows.append({"n": n, "task": "naive_over_sync_ratio",
                     "seconds": ratio})
    if args.json:
        print(json.dumps(rows))
        return 0
    for row in rows:
        print("%-12d %-24s %10.4f" % (row["n"], row["task"], row["seconds"]))
    for row in rows:
        if row["task"] == "naive_over_sync_ratio" and row["seconds"] < 1.5:
            print("note: sync speedup below 1.5x at n=%d (ratio %.2f)"
                  % (row["n"], row["seconds"]))
    return 0


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
    p.add_argument("--mode", choices=["det", "fast", "random"],
                   default="fast")
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
    p.add_argument("--naive-bwt", action="store_true",
                   help="run the reduction on the direct transform backend")
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
    except CliError as exc:
        print("sst: error: %s" % exc, file=sys.stderr)
        return exc.status
    except ValueError as exc:
        print("sst: error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
