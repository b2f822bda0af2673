import io
import json
import random

import numpy as np
import pytest

from sst.cli import main
from sst.lce_index import LceIndex, default_tau
from sst.packed_text import pack
from sst.sync_set import save_sync_set

from conftest import large_tampered_sets


def _run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def test_bwt_banana(tmp_path, capsys):
    src = tmp_path / "banana.txt"
    src.write_bytes(b"banana")
    out, meta = tmp_path / "b.bwt", tmp_path / "b.meta"
    status, _, _ = _run(capsys, "bwt", "--input", str(src),
                        "--output", str(out), "--meta", str(meta),
                        "--verify")
    assert status == 0
    assert out.read_bytes() == b"nnbaaa"
    lines = meta.read_text().splitlines()
    assert "primary_index=4" in lines
    assert "pipeline=sync" in lines


def test_unbwt_round_trip(tmp_path, capsys):
    src = tmp_path / "in.bin"
    src.write_bytes(bytes([3, 1, 2, 0, 1, 3, 3, 0] * 20))
    out, meta = tmp_path / "t.bwt", tmp_path / "t.meta"
    assert _run(capsys, "bwt", "--input", str(src),
                "--output", str(out))[0] == 0
    back = tmp_path / "back.bin"
    status, _, _ = _run(capsys, "unbwt", "--input", str(out),
                        "--meta", str(out) + ".meta", "--output", str(back))
    assert status == 0
    assert back.read_bytes() == src.read_bytes()


def _tampered_unbwt(tmp_path, capsys, edit):
    src = tmp_path / "in.bin"
    src.write_bytes(bytes([2, 0, 1, 1, 0, 2] * 5))
    out = tmp_path / "t.bwt"
    meta = tmp_path / "t.bwt.meta"
    assert _run(capsys, "bwt", "--input", str(src),
                "--output", str(out))[0] == 0
    edit(out, meta)
    return _run(capsys, "unbwt", "--input", str(out), "--meta", str(meta),
                "--output", str(tmp_path / "back.bin"))


def test_unbwt_rejects_primary_out_of_range(tmp_path, capsys):
    def edit(out, meta):
        lines = [ln for ln in meta.read_text().splitlines()
                 if not ln.startswith("primary_index=")]
        meta.write_text("\n".join(lines + ["primary_index=31"]) + "\n")
    status, _, err = _tampered_unbwt(tmp_path, capsys, edit)
    assert status == 2
    assert "primary index" in err


def test_unbwt_rejects_symbol_beyond_sigma(tmp_path, capsys):
    def edit(out, meta):
        out.write_bytes(bytes([3]) + out.read_bytes()[1:])
    status, _, err = _tampered_unbwt(tmp_path, capsys, edit)
    assert status == 2
    assert "alphabet" in err


def test_bwt_missing_input(tmp_path, capsys):
    status, _, err = _run(capsys, "bwt", "--input",
                          str(tmp_path / "absent.txt"),
                          "--output", str(tmp_path / "o"))
    assert status == 1
    assert err


@pytest.mark.parametrize("argv", [["bwt"], ["sync", "build", "--tau", "2"]])
def test_unwritable_output_exits_1(tmp_path, capsys, argv):
    src = tmp_path / "t.txt"
    src.write_bytes(b"mississippi")
    status, _, err = _run(capsys, *argv, "--input", str(src), "--output",
                          str(tmp_path / "missing" / "x"))
    assert status == 1
    assert err.startswith("sst: error: ")


def test_bwt_naive_flag(tmp_path, capsys):
    src = tmp_path / "t.txt"
    src.write_bytes(b"mississippi")
    a, b = tmp_path / "a.bwt", tmp_path / "b.bwt"
    assert _run(capsys, "bwt", "--input", str(src), "--output", str(a))[0] == 0
    assert _run(capsys, "bwt", "--input", str(src), "--output", str(b),
                "--naive")[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert "pipeline=naive-fallback" in (b.parent / "b.bwt.meta").read_text()


def test_sync_build_validate_stats(tmp_path, capsys):
    src = tmp_path / "t.txt"
    src.write_bytes(bytes(range(1, 25)) * 4)
    sset = tmp_path / "s.txt"
    assert _run(capsys, "sync", "build", "--input", str(src), "--tau", "3",
                "--output", str(sset))[0] == 0
    status, out, _ = _run(capsys, "sync", "validate", "--input", str(src),
                          "--set", str(sset))
    assert status == 0 and out.strip() == "valid"
    status, out, _ = _run(capsys, "sync", "stats", "--input", str(src),
                          "--tau", "3")
    assert status == 0
    assert "size=" in out and "bound_30n_over_tau=" in out


@pytest.mark.parametrize("tau", ["0", "-1"])
def test_sync_nonpositive_tau(tmp_path, capsys, tau):
    # an explicit --tau below 1 is checked, not replaced by a default
    src = tmp_path / "t.txt"
    src.write_bytes(b"abracadabra-abracadabra")
    sset = tmp_path / "s.txt"
    for action in ("build", "stats"):
        status, _, err = _run(capsys, "sync", action, "--input", str(src),
                              "--tau", tau, "--output", str(sset))
        assert status == 2 and "tau must satisfy" in err, action
    assert not sset.exists()
    assert _run(capsys, "sync", "build", "--input", str(src),
                "--output", str(sset))[0] == 0
    status, out, _ = _run(capsys, "sync", "validate", "--input", str(src),
                          "--set", str(sset), "--tau", tau)
    assert status == 1
    assert out.startswith("structure violation: set header") and \
        "(tau=%s n=23)" % tau in out


def test_sync_default_tau_past_key_capacity(tmp_path, capsys):
    # tau = 64 exceeds one byte key column of 7 symbols, so the det
    # classes double from it; without --tau the set takes default_tau
    text = np.random.default_rng(4096).integers(
        0, 256, size=4096, dtype=np.uint8)
    src = tmp_path / "t.txt"
    src.write_bytes(text.tobytes())
    sset = tmp_path / "s.txt"
    assert _run(capsys, "sync", "build", "--input", str(src), "--tau", "64",
                "--output", str(sset))[0] == 0
    assert sset.read_text().splitlines()[0] == "# tau=64 n=4096"
    status, out, _ = _run(capsys, "sync", "validate", "--input", str(src),
                          "--set", str(sset))
    assert status == 0 and out.strip() == "valid"
    assert _run(capsys, "sync", "build", "--input", str(src),
                "--output", str(sset))[0] == 0
    assert sset.read_text().splitlines()[0] == "# tau=%d n=4096" % \
        default_tau(4096, int(text.max()) + 1)


def test_sync_random_past_one_key_column(tmp_path, capsys):
    # at tau = 64 a byte window is 512 bits, so the random ids come from
    # the dense rank of the window instead of its key
    text = np.random.default_rng(64).integers(0, 256, size=4096,
                                              dtype=np.uint8)
    text[1000:2000] = np.resize(text[:3], 1000)
    src = tmp_path / "t.txt"
    src.write_bytes(text.tobytes())
    sset = tmp_path / "s.txt"
    for seed in ("0", "7"):
        assert _run(capsys, "sync", "build", "--input", str(src), "--tau",
                    "64", "--mode", "random", "--seed", seed,
                    "--output", str(sset))[0] == 0
        status, out, _ = _run(capsys, "sync", "validate", "--input",
                              str(src), "--set", str(sset))
        assert status == 0 and out.strip() == "valid"


def test_sync_mode_fast_is_rejected(tmp_path):
    src = tmp_path / "t.txt"
    src.write_bytes(bytes(range(1, 25)) * 4)
    with pytest.raises(SystemExit) as exc:
        main(["sync", "build", "--input", str(src), "--tau", "3",
              "--mode", "fast", "--output", str(tmp_path / "s.txt")])
    assert exc.value.code == 2


def test_sync_tampered_set(tmp_path, capsys):
    import random
    tau = 4
    gen = random.Random(1)
    text = bytes(gen.randrange(256) for _ in range(80))
    src = tmp_path / "t.txt"
    src.write_bytes(text)
    sset = tmp_path / "s.txt"
    _run(capsys, "sync", "build", "--input", str(src), "--tau", str(tau),
         "--output", str(sset))
    lines = sset.read_text().splitlines()
    positions = [int(x) for x in lines[1:]]
    # drop a position that is the only one inside some length-tau window;
    # contexts are distinct here, so the validator reports missing density
    member = set(positions)
    victim = None
    last_window = len(text) - 3 * tau + 2
    for p in positions:
        windows = range(max(1, p - tau + 1), min(p, last_window) + 1)
        if any(all(q not in member or q == p for q in range(w, w + tau))
               for w in windows):
            victim = p
            break
    assert victim is not None
    lines = [lines[0]] + [x for x in lines[1:] if int(x) != victim]
    (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
    status, out, _ = _run(capsys, "sync", "validate", "--input", str(src),
                          "--set", str(tmp_path / "bad.txt"))
    assert status == 1
    assert out.startswith("density violation at i=")


@pytest.mark.parametrize("header,body", [
    ("# tau=3 n=96", [10, 4, 20]),
    ("# tau=3 n=96", [4, 10, 10]),
    ("# tau=3 n=96", [4, 10, 92]),
    ("# tau=0 n=96", [4, 10]),
], ids=["unsorted", "duplicate", "out-of-range", "bad-tau"])
def test_sync_validate_rejects_malformed_set(tmp_path, capsys, header, body):
    src = tmp_path / "t.txt"
    src.write_bytes(bytes(range(1, 25)) * 4)
    sset = tmp_path / "s.txt"
    sset.write_text("\n".join([header] + [str(p) for p in body]) + "\n")
    status, out, err = _run(capsys, "sync", "validate", "--input", str(src),
                            "--set", str(sset))
    assert status == 2 and out == "" and "sst: error:" in err


def test_sync_validate_names_first_witness_past_100k_windows(tmp_path,
                                                             capsys):
    seq, tau, _, (dropped, density), (flipped, consistency) = \
        large_tampered_sets()
    src = tmp_path / "t.txt"
    src.write_bytes(bytes(seq))
    for bad, want in ((dropped, "density violation at i=%d:" % density),
                      (flipped, "consistency violation at i=%d j=%d:"
                       % consistency)):
        path = tmp_path / "bad.txt"
        save_sync_set(bad, path)
        status, out, _ = _run(capsys, "sync", "validate", "--input", str(src),
                              "--set", str(path))
        assert status == 1
        assert out.startswith(want), out


def test_sync_stats_unary(tmp_path, capsys):
    src = tmp_path / "a.txt"
    src.write_bytes(b"\x00" * 64)
    status, out, _ = _run(capsys, "sync", "stats", "--input", str(src),
                          "--tau", "8")
    assert status == 0 and "size=0" in out


def test_lce_queries(tmp_path, capsys):
    src = tmp_path / "banana.txt"
    src.write_bytes(b"banana")
    q = tmp_path / "q.txt"
    q.write_text("1 1\n2 4\n3 5\n1 4\n")
    status, out, _ = _run(capsys, "lce", "--input", str(src),
                          "--queries", str(q), "--verify")
    assert status == 0
    assert out.split() == ["6", "3", "2", "0"]


def test_lce_bad_query_line(tmp_path, capsys):
    src = tmp_path / "t.txt"
    src.write_bytes(b"abcabc")
    q = tmp_path / "q.txt"
    q.write_text("1 x\n")
    status, _, err = _run(capsys, "lce", "--input", str(src),
                          "--queries", str(q))
    assert status == 2 and "line 1" in err
    q.write_text("1 99\n")
    status, _, err = _run(capsys, "lce", "--input", str(src),
                          "--queries", str(q))
    assert status == 2 and "out of range" in err


def _lce_files(tmp_path, queries):
    src = tmp_path / "banana.txt"
    src.write_bytes(b"banana")
    q = tmp_path / "q.txt"
    q.write_text(queries)
    return ["lce", "--input", str(src), "--queries", str(q)]


def test_lce_blank_lines_and_int_syntax(tmp_path, capsys):
    # blank lines are skipped; the line scan takes tabs and signs as
    # int() does
    for queries in ("1 1\n\n2 4\n   \n3 5\n\n",
                    "1\t1\n\n+2 4\n   \n3  05\n"):
        status, out, _ = _run(capsys, *_lce_files(tmp_path, queries))
        assert status == 0
        assert out == "6\n3\n2\n"


def test_lce_queries_from_stdin(tmp_path, capsys, monkeypatch):
    argv = _lce_files(tmp_path, "")[:3] + ["--queries", "-", "--verify"]
    monkeypatch.setattr("sys.stdin", io.StringIO("2 4\n3 5\n1 4"))
    status, out, _ = _run(capsys, *argv)
    assert status == 0 and out == "3\n2\n0\n"


def test_lce_bad_line_after_good_ones(tmp_path, capsys):
    # the whole file is read before any answer is written
    for bad, message in (("1 x", "line 4: non-integer token in '1 x'"),
                         ("2 7", "line 4: position out of range [1..6]"),
                         ("0 1", "line 4: position out of range [1..6]"),
                         ("1 2 3", "line 4: expected two integers, "
                                   "got '1 2 3'"),
                         ("1 2 3 4", "line 4: expected two integers, "
                                     "got '1 2 3 4'"),
                         ("5\n6", "line 4: expected two integers, got '5'")):
        argv = _lce_files(tmp_path, "1 1\n2 4\n\n%s\n3 5\n" % bad)
        status, out, err = _run(capsys, *argv)
        assert status == 2 and out == ""
        assert err == "sst: error: %s\n" % message


def test_lce_verify_names_the_file_line(tmp_path, capsys, monkeypatch):
    def off_by_one_at_third(self, i, j):
        got = real(self, i, j)
        got[2] += 1
        return got
    real = LceIndex.query_many
    monkeypatch.setattr(LceIndex, "query_many", off_by_one_at_third)
    argv = _lce_files(tmp_path, "1 1\n\n2 4\n\n3 5\n1 4\n") + ["--verify"]
    status, out, err = _run(capsys, *argv)
    assert status == 1 and out == ""
    assert "verification failed at line 5 (query 3 5)" in err


def test_lce_batch_matches_scalar_query(tmp_path, capsys):
    rng = np.random.default_rng(7)
    text = rng.integers(0, 4, size=3000, dtype=np.uint8)
    # a periodic stretch and pairs one period apart make long extensions
    text[1000:2000] = np.tile(text[1000:1010], 100)
    pairs = rng.integers(1, 3001, size=(500, 2))
    pairs[::2, 1] = np.minimum(pairs[::2, 0] + 10, 3000)
    src, q = tmp_path / "t.bin", tmp_path / "q.txt"
    src.write_bytes(text.tobytes())
    q.write_text("".join("%d %d\n" % (i, j) for i, j in pairs.tolist()))
    status, out, _ = _run(capsys, "lce", "--input", str(src), "--queries",
                          str(q), "--tau", "2", "--verify")
    assert status == 0
    idx = LceIndex(pack(text, 4), tau=2)
    assert out.split() == [str(idx.query(i, j)) for i, j in pairs.tolist()]


def test_inversions_variants(tmp_path, capsys):
    arr = tmp_path / "a.txt"
    arr.write_text("2 0 3 1\n")
    for extra in (["--variant", "general"], ["--variant", "small", "--k", "2"],
                  ["--variant", "naive"], ["--variant", "general",
                                           "--naive-bwt"]):
        status, out, _ = _run(capsys, "inversions", "--input", str(arr),
                              *extra)
        assert status == 0 and out.strip() == "3"


@pytest.mark.parametrize("variant", ["general", "naive"])
def test_inversions_k_outside_small(tmp_path, capsys, variant):
    # --k sets the small variant's width; the others refuse it
    arr = tmp_path / "a.txt"
    arr.write_text("3 1 2 0 5 4\n")
    status, out, err = _run(capsys, "inversions", "--input", str(arr),
                            "--variant", variant, "--k", "1")
    assert status == 2 and not out
    assert "small variant" in err


def test_inversions_bad_token(tmp_path, capsys):
    arr = tmp_path / "a.txt"
    arr.write_text("1 two 3\n")
    status, _, err = _run(capsys, "inversions", "--input", str(arr))
    assert status == 2 and "non-integer" in err


def test_bench_json(tmp_path, capsys):
    status, out, _ = _run(capsys, "bench", "--sizes", "4096", "--json")
    assert status == 0
    rows = json.loads(out)
    tasks = {r["task"] for r in rows}
    assert {"build_bwt_sync", "build_bwt_naive", "sync_construct_random",
            "unbwt", "lce_query_scalar", "lce_query_many",
            "naive_over_sync_ratio"} <= tasks
    assert all(r["n"] == 4096 for r in rows)
    assert all(r["tau"] == default_tau(4096, 2) for r in rows)
    # every timed call reports its minor page faults
    faults = {r["task"]: r.get("minor_faults") for r in rows}
    assert all(isinstance(f, int) and f >= 0 for task, f in faults.items()
               if task != "naive_over_sync_ratio"), faults
    sizes = {r["task"]: r.get("sync_size") for r in rows}
    assert sizes["sync_construct_random"] == sizes["lce_build"] \
        == sizes["build_bwt_sync"] > 0
    assert sizes["sync_construct_det"] > 0
    assert sizes["build_bwt_naive"] is None


@pytest.mark.parametrize("repeat", ["0", "-2"])
def test_bench_rejects_repeat_below_1(capsys, repeat):
    status, out, err = _run(capsys, "bench", "--sizes", "64",
                            "--repeat", repeat)
    assert status == 2 and not out
    assert err == "sst: error: --repeat must be at least 1\n"


def test_determinism(tmp_path, capsys):
    src = tmp_path / "t.txt"
    src.write_bytes(bytes([7, 3, 7, 1, 0, 2] * 30))
    outs = []
    for name in ("x1", "x2"):
        sset = tmp_path / name
        _run(capsys, "sync", "build", "--input", str(src), "--tau", "4",
             "--mode", "random", "--seed", "9", "--output", str(sset))
        outs.append(sset.read_bytes())
    assert outs[0] == outs[1]


def test_inversions_ordinary_values(tmp_path, capsys):
    # the reductions read the values' dense ranks, so values far past
    # the list length count like any others, under every variant
    rng = random.Random(3)
    big = " ".join(str(rng.randrange(10 ** 12)) for _ in range(300))
    arr = tmp_path / "a.txt"
    for text, want in (("10 3 7", "2"), (big, None)):
        arr.write_text(text + "\n")
        outs = set()
        for variant in ("general", "small", "naive"):
            status, out, _ = _run(capsys, "inversions", "--input", str(arr),
                                  "--variant", variant)
            assert status == 0, variant
            outs.add(out.strip())
        assert len(outs) == 1, outs
        assert want is None or outs == {want}, outs
