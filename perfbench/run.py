r"""Checked end-to-end and per-layer benchmark of the sst package.

    python3 perfbench/run.py --workload random-bin --seed 1 \
        --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and nothing else.  One process at a time runs the workload as a
single caller in a closed loop: each round calls every operation, in a
fixed order, and the next round starts only when the previous one has
ended.  Rounds repeat while another round still fits (at least one
runs).  Each round's outputs are checked when it ends, outside the
timed calls, against references computed without the package; a wrong
output counts as one failed operation.

``--trace 0`` first times nine set-ups, each in a fresh process
(``--setup-only``), then splits ``--seconds`` over WORKERS fresh
processes (``--worker``), one after the other, and pools what they
measured: each end-to-end metric is a median over every call, adjusted
for the host's drifting speed (hostspeed.py).  ``--trace 1`` runs in
this process alone: it alternates untraced and traced rounds, then
measures peak memory under tracemalloc, and prints the per-layer
metrics.  The last line of standard output is the JSON result.  See
README.md.
"""

import os
import sys
import time

T0 = time.perf_counter()

# one caller, no helper threads: keep numerical libraries single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import hostspeed
SPEED = hostspeed.HostSpeed()
SPEED.call("numpy_import", importlib.import_module, "numpy")
import numpy as np

import checks
import layers
import selftest
import workloads
from tracer import Tracer

# the layers the operations call or the tracer wraps
MODULES = ("packed_text", "sync_set", "sync_sort", "suffix_core",
           "lce_index", "bwt_builder", "inversions", "cli")
SETUP_REPS = 9
WORKERS = 10
CHILD_TIMEOUT_S = 60
QUERY_CHUNK = 1000
OPS = ("bwt_s", "bwt_naive_s", "unbwt_s", "lce_build_s", "lce_query_rate",
       "lce_cli_s", "inv_general_s", "inv_small_s")
UNITS = {"setup_s": "s", "lce_query_rate": "queries/s", "peak_rss_mb": "MB"}
WORK_ROOT = ".perfbench_tmp"
TRACE_DIR = ".perfbench_out"


class BenchError(Exception):
    """The benchmark cannot run or cannot trust its own measurement."""


def load_package():
    """Import the package fresh from src/, so each set-up pays for it."""
    if not os.path.isfile(os.path.join(SRC, "sst", "__init__.py")):
        raise BenchError("no package source under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "sst" or m.startswith("sst.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {}
    for name in MODULES:
        try:
            mods[name] = importlib.import_module("sst." + name)
        except ModuleNotFoundError as exc:
            if exc.name != "sst." + name:
                raise
            # a removed layer: the tracer reports its names as absent
    origin = os.path.dirname(os.path.abspath(sys.modules["sst"].__file__))
    if origin != os.path.join(SRC, "sst"):
        raise BenchError("imported sst from %s, not from %s" % (origin, SRC))
    return mods


class Context:
    """Everything one set-up produces."""

    def __init__(self, name, seed, workdir, tracer=None):
        self.mods = load_package()
        self.inp = workloads.generate(
            name, seed, self.mods["inversions"].build_reduction_general)
        pack = self.mods["packed_text"].pack
        if tracer is None:
            self.pt = pack(self.inp.text, self.inp.sigma)
        else:
            self.pt = tracer.call("packed_text.pack", pack,
                                  self.inp.text, self.inp.sigma)
        self.pairs = [tuple(p) for p in self.inp.pairs.tolist()]
        self.text_path = os.path.join(workdir, "text.bin")
        self.query_path = os.path.join(workdir, "queries.txt")
        self.cli_out = os.path.join(workdir, "lce.out")
        with open(self.text_path, "wb") as fh:
            fh.write(self.inp.text.astype(np.uint8).tobytes())
        with open(self.query_path, "w") as fh:
            fh.write("".join("%d %d\n" % p for p in self.pairs))

    def cli_argv(self):
        argv = ["lce", "--input", self.text_path, "--queries",
                self.query_path, "--sigma", str(self.inp.sigma)]
        if self.inp.tau is not None:
            argv += ["--tau", str(self.inp.tau)]
        return argv


def run_round(ctx, reps, speed=None, tracer=None):
    """Call each operation reps[metric] times in a row (once if absent);
    return the duration and the output of every call, by metric.  Calls
    are timed against the host speed, or traced, or neither."""
    m, inp, pt = ctx.mods, ctx.inp, ctx.pt
    bwt_mod = m["bwt_builder"]
    times, out = {}, {}

    def timed(metric, fn, *args, **kwargs):
        results, times[metric] = [], []
        for _ in range(reps.get(metric, 1)):
            t0 = time.perf_counter()
            if speed is not None:
                result, elapsed = speed.call(metric, fn, *args, **kwargs)
            elif tracer is not None:
                result = tracer.call("op:" + metric, fn, *args, **kwargs)
                elapsed = time.perf_counter() - t0
            else:
                result = fn(*args, **kwargs)
                elapsed = time.perf_counter() - t0
            results.append(result)
            times[metric].append(elapsed)
        return results

    res = timed("bwt_s", bwt_mod.build_bwt, pt, inp.tau)
    out["bwt_s"] = [(np.array(r.bwt), r.primary_index) for r in res]
    naive = timed("bwt_naive_s", bwt_mod.build_bwt, pt, force_naive=True)
    out["bwt_naive_s"] = [(np.array(r.bwt), r.primary_index) for r in naive]
    del naive
    out["unbwt_s"] = timed("unbwt_s", bwt_mod.invert_bwt, res[0])
    del res
    idx = timed("lce_build_s", m["lce_index"].LceIndex, pt, inp.tau)[0]
    out["lce_build_s"] = [idx.tau]

    query, clock = idx.query, time.perf_counter
    ctx.query_samples = []

    def answer(chunk):
        return [query(i, j) for i, j in chunk]
    if tracer is None:
        # one sample per QUERY_CHUNK queries
        out["lce_query_rate"], times["lce_query_rate"] = [], []
        for _ in range(reps.get("lce_query_rate", 1)):
            answers = []
            for lo in range(0, len(ctx.pairs), QUERY_CHUNK):
                chunk = ctx.pairs[lo:lo + QUERY_CHUNK]
                if speed is None:
                    t0 = clock()
                    got = answer(chunk)
                    elapsed = clock() - t0
                else:
                    got, elapsed = speed.call("lce_query_rate", answer,
                                              chunk)
                times["lce_query_rate"].append(elapsed)
                answers += got
            out["lce_query_rate"].append(answers)
    else:
        def batch():
            answers = []
            for i, j in ctx.pairs:
                t0 = clock()
                answers.append(query(i, j))
                ctx.query_samples.append(clock() - t0)
            return answers
        out["lce_query_rate"] = timed("lce_query_rate", batch)
    del idx, query, answer

    paths = []

    def cli():
        paths.append("%s.%d" % (ctx.cli_out, len(paths)))
        with open(paths[-1], "w") as fh, contextlib.redirect_stdout(fh):
            return m["cli"].main(ctx.cli_argv())
    statuses = timed("lce_cli_s", cli)
    out["lce_cli_s"] = []
    for status, path in zip(statuses, paths):
        with open(path) as fh:
            out["lce_cli_s"].append((status, fh.read().split()))
        os.remove(path)

    count = m["inversions"].count_inversions_via_bwt
    out["inv_general_s"] = timed("inv_general_s", count, inp.general,
                                 "general")
    out["inv_small_s"] = timed("inv_small_s", count, inp.small, "small",
                               k=inp.k)
    return times, out


def _same(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def measure(ctx, checker, seconds, speed, tracer):
    """Rounds while the next one fits, each checked as soon as it ends.

    With a tracer, rounds alternate untraced and traced, one call per
    operation in both, so that each pair compares like with like.
    Returns (span range or None, times) per round, the attempted and
    failed operation counts, and the last round's outputs.
    """
    rounds, attempted, failed = [], 0, 0
    first = None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for tr in ((None,) if tracer is None else (None, tracer)):
            reps = ctx.inp.reps if tracer is None else {}
            if tr is not None:
                tr.install(ctx.mods)
                lo = len(tr.spans)
            try:
                times, out = run_round(ctx, reps,
                                       speed if tr is None else None, tr)
            finally:
                if tr is not None:
                    tr.uninstall()
            a, f = checker.round(out)
            attempted += a
            failed += f
            if first is None:
                first = out
            span_range = None
            if tr is not None:
                span_range = (lo, len(tr.spans), ctx.query_samples)
                # traced outputs must equal the untraced ones
                attempted += len(OPS)
                failed += sum(1 for op in OPS
                              if not _same(out[op][0], first[op][0]))
            rounds.append((span_range, times))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return rounds, attempted, failed, out


def peak_memory(ctx, checker):
    """tracemalloc peaks of the three builds; their outputs are checked."""
    m, inp, pt = ctx.mods, ctx.inp, ctx.pt
    build_bwt = m["bwt_builder"].build_bwt
    probe = ctx.pairs[:1000]
    peaks, failed = {}, 0
    tracemalloc.start()
    try:
        for name, fn in (
                ("bwt_builder.peak_mb", lambda: build_bwt(pt, inp.tau)),
                ("bwt_builder.naive_peak_mb",
                 lambda: build_bwt(pt, force_naive=True)),
                ("lce_index.peak_mb",
                 lambda: m["lce_index"].LceIndex(pt, inp.tau))):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn()
            peak = tracemalloc.get_traced_memory()[1] - base
            peaks[name] = peak / layers.MB
            if name == "lce_index.peak_mb":
                answers = [result.query(i, j) for i, j in probe]
                wrong = checks.check_lce(checker.tb, probe, answers)
                failed += 1 if wrong else 0
            else:
                failed += checks.check_bwt((result.bwt, result.primary_index),
                                           checker.bwt, checker.primary)
            del result
    finally:
        tracemalloc.stop()
    return peaks, len(peaks), failed


def tail_percentile(count):
    """Highest of the usual percentiles with at least ten samples above."""
    for p in (99.99, 99.9, 99.0, 90.0):
        if count * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def end_to_end(setup_ratios, parts):
    """Host-speed-adjusted times (hostspeed.py), pooled over the worker
    processes: the median ratio of every call of every worker, in
    reference seconds.  The query rate is the chunk size over the
    adjusted chunk time."""
    ref = hostspeed.REFERENCE_LOOP_S
    metrics = {"setup_s": statistics.median(setup_ratios) * ref,
               "peak_rss_mb": max(part["peak_rss_mb"] for part in parts)}
    for op in OPS:
        ratios = [r for part in parts for r in part["ratios"][op]]
        metrics[op] = statistics.median(ratios) * ref
    metrics["lce_query_rate"] = QUERY_CHUNK / metrics["lce_query_rate"]
    return metrics


def per_layer(ctx, tracer, rounds, last, setup_spans, peaks):
    traced = [(span_range, times) for span_range, times in rounds
              if span_range is not None]
    plain = [times for span_range, times in rounds if span_range is None]
    per_round = [layers.round_metrics(tracer.spans, lo, hi)
                 for (lo, hi, _), _ in traced]
    metrics = {name: statistics.median(r[name] for r in per_round)
               for name in per_round[0]}
    metrics["packed_text.pack_s"] = statistics.median(setup_spans)
    metrics.update(peaks)

    samples = np.array([x for (_, _, qs), _ in traced for x in qs]) * 1e6
    p_tail = tail_percentile(len(samples))
    metrics["lce_index.query_p50_us"] = float(np.percentile(samples, 50))
    metrics["lce_index.query_tail_us"] = float(np.percentile(samples, p_tail))

    answers = last["lce_query_rate"][0]
    cap = 3 * last["lce_build_s"][0]
    metrics["lce_index.hop_queries"] = sum(1 for a in answers if a >= cap)

    def op_time(times):
        return sum(sum(times[op]) for op in OPS)
    overhead = (statistics.median(op_time(t) for _, t in traced)
                - statistics.median(op_time(t) for t in plain))
    metrics["trace.overhead_s"] = overhead / len(OPS)
    notes = ["query samples %d, tail percentile p%g" % (len(samples), p_tail)]
    for (lo, hi, _), times in traced:
        wall, stages = layers.bwt_stages(tracer.spans, lo, hi)
        covered = sum(stages.values())
        if abs(covered - wall) > 1e-6 * max(1.0, wall):
            raise BenchError("stage self times %.6f s do not add up to the "
                             "traced bwt_s %.6f s" % (covered, wall))
        notes.append("traced bwt_s %.4f s = %s" % (wall, ", ".join(
            "%s %.4f" % kv for kv in sorted(stages.items(),
                                            key=lambda kv: -kv[1]))))
    return metrics, notes


def run(args):
    workdir = os.path.join(WORK_ROOT, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)


def setup_only(args, workdir):
    """One set-up in this fresh process; prints the numpy import's and
    the set-up's durations in probe loops (hostspeed.py)."""
    SPEED.call("setup", Context, args.workload, args.seed, workdir)
    print(json.dumps({key: SPEED.ratios[key][0]
                      for key in ("numpy_import", "setup")}))
    return 0


def checked_rounds(args, workdir, tracer=None):
    """Set up in this process, then measure for args.seconds."""
    ctx = Context(args.workload, args.seed, workdir, tracer)
    # the references are built outside set-up and before the rounds;
    # their memory stays below that of the operations they check
    checker = checks.RoundChecker(ctx.inp.text, ctx.pairs, ctx.inp.general,
                                  ctx.inp.small)
    warm_attempted, warm_failed = 0, 0
    if tracer is None:
        # one round before the timed ones: lazy imports, first allocations
        warm_attempted, warm_failed = checker.round(
            run_round(ctx, ctx.inp.reps)[1])
    rounds, attempted, failed, last = measure(ctx, checker, args.seconds,
                                              SPEED, tracer)
    return (ctx, checker, rounds, attempted + warm_attempted,
            failed + warm_failed, last)


def worker(args, workdir):
    """One slice of an untraced run in this fresh process; prints what
    it measured as one JSON line."""
    _, _, rounds, attempted, failed, _ = checked_rounds(args, workdir)
    print(json.dumps({
        "rounds": len(rounds),
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "loop_s": min(SPEED.loop_s),
        "ratios": {op: SPEED.ratios[op] for op in OPS},
        "times": {op: [t for _, times in rounds for t in times[op]]
                  for op in OPS},
    }))
    return 0


def child(args, flag, seconds, timeout):
    """Run this script in a fresh process with flag; its last line."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload",
            args.workload, "--seed", str(args.seed), "--seconds",
            repr(seconds), flag]
    proc = subprocess.run(argv, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("%s process failed: %s"
                         % (flag, proc.stderr.strip()[-500:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def untraced(args):
    """Set-ups, then WORKERS slices of the run, each in a fresh process
    of its own and one after the other, so that no one process's memory
    layout sets the figures."""
    setup_ratios = []
    for _ in range(SETUP_REPS):
        parts = child(args, "--setup-only", 0, CHILD_TIMEOUT_S)
        setup_ratios.append(parts["numpy_import"] + parts["setup"])
    parts = [child(args, "--worker", args.seconds / WORKERS,
                   args.seconds / WORKERS + CHILD_TIMEOUT_S)
             for _ in range(WORKERS)]
    problems = selftest.run(load_package())
    metrics = end_to_end(setup_ratios, parts)

    print("workload %s seed %d rounds %s" % (
        args.workload, args.seed, "+".join(str(p["rounds"]) for p in parts)))
    print("  set-up in probe loops: %s; fastest probe loop of the run "
          "%.6f s, reference %.6f s"
          % (" ".join("%.1f" % r for r in setup_ratios),
             min(part["loop_s"] for part in parts),
             hostspeed.REFERENCE_LOOP_S))
    for op in OPS:
        vals = [t for part in parts for t in part["times"][op]]
        q1, q2, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                      else vals * 3)
        print("  %-16s calls %3d  min %.6g  quartiles %.6g %.6g %.6g  "
              "max %.6g" % (op, len(vals), min(vals), q1, q2, q3, max(vals)))
    units = {name: UNITS.get(name, "s") for name in metrics}
    return (problems, sum(p["attempted"] for p in parts),
            sum(p["failed"] for p in parts), metrics, units)


def traced(args, workdir):
    tracer = Tracer()
    ctx, checker, rounds, attempted, failed, last = checked_rounds(
        args, workdir, tracer)
    setup_spans = [s.duration for s in tracer.spans
                   if s.label == "packed_text.pack"]
    problems = selftest.run(ctx.mods)
    peaks, a, f = peak_memory(ctx, checker)
    attempted += a
    failed += f
    metrics, notes = per_layer(ctx, tracer, rounds, last, setup_spans,
                               peaks)
    print("workload %s seed %d rounds %d" % (args.workload, args.seed,
                                             len(rounds)))
    for note in notes:
        print("  " + note)
    for label in tracer.absent:
        print("  absent: sst.%s (its time falls to its caller)" % label)
    units = {name: layers.unit_of(name) for name in metrics}
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, "trace-%s-%d.json"
                        % (args.workload, args.seed))
    with open(path, "w") as fh:
        json.dump({"absent": tracer.absent, "spans": tracer.dump()}, fh)
    return problems, attempted, failed, metrics, units


def _run(args, workdir):
    if args.setup_only:
        return setup_only(args, workdir)
    if args.worker:
        return worker(args, workdir)
    if args.trace:
        result = traced(args, workdir)
    else:
        result = untraced(args)
    problems, attempted, failed, metrics, units = result
    for line in problems:
        print("checker self-test: " + line, file=sys.stderr)
    print("  run took %.2f s" % (time.perf_counter() - T0))
    for name in sorted(metrics):
        print("  %-34s %.6g %s" % (name, metrics[name], units[name]))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in metrics},
    }))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="make one set-up, print its timing, and exit")
    ap.add_argument("--worker", action="store_true",
                    help="measure one slice of an untraced run in this "
                    "process and print its samples")
    args = ap.parse_args(argv)
    try:
        return run(args)
    except (BenchError, ImportError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
