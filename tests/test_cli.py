import hashlib
import json
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import coreperim
from coreperim.cli import (
    DIFF_TOLERANCE,
    RANGE_LIMIT,
    _resolve_flags,
    build_parser,
    main,
    parse_range,
)
from coreperim.exactdist import MOMENT_WORK_LIMIT, PMF_BYTE_BUDGET
from coreperim.gaussref import RATE_CSV_HEADER


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_range():
    assert parse_range("5..8") == [5, 6, 7, 8]
    assert parse_range("7") == [7]
    assert parse_range("3..3") == [3]
    with pytest.raises(ValueError):
        parse_range("8..5")
    with pytest.raises(ValueError):
        parse_range("x..y")


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "moments")[0] == 1  # missing family
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "moments", "--family", "core", "--stat", "length",
               "--n", "5..6")[0] == 1  # missing --d
    code, _, err = run(capsys, "sample", "--family", "core", "--d", "2", "--n", "6")
    assert code == 1  # missing --seed
    assert "seed" in err


def test_moments_csv_layout(capsys):
    code, out, _ = run(
        capsys, "moments", "--family", "core", "--stat", "length",
        "--d", "3", "--n", "5..7", "--k", "3..4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,5,6,7"
    assert lines[1].startswith("3,") and lines[2].startswith("4,")
    # symmetric statistic: odd standardized moments are exactly zero
    assert lines[1] == "3,0.000,0.000,0.000"
    cells = lines[2].split(",")
    assert cells[1] == "2.660"


def test_moments_jobs_agree(capsys):
    args = ["moments", "--family", "strict", "--stat", "size",
            "--d", "2", "--n", "8..10", "--k", "3..6"]
    _, serial, _ = run(capsys, *args)
    code, parallel, _ = run(capsys, *args, "--jobs", "2")
    assert code == 0
    assert serial == parallel


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize(
    "cpus, argv, workers",
    [
        (4, ["moments", "--n", "5..7", "--jobs", "100000"], [3]),  # one per column
        (4, ["moments", "--n", "5..14", "--jobs", "100000"], [4]),  # one per CPU
        (4, ["distance", "--n", "5..14", "--jobs", "2"], [2]),
        (4, ["distance", "--n", "5..7", "--jobs", "1"], []),  # serial, no pool
        (1, ["moments", "--n", "5..7", "--jobs", "8"], []),
        (4, ["moments", "--n", "5", "--jobs", "8"], []),
    ],
)
def test_jobs_are_capped_by_columns_and_cpus(capsys, monkeypatch, cpus, argv, workers):
    import concurrent.futures
    import os

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    serial = argv[:-2]
    common = ["--family", "core", "--stat", "length", "--d", "2"]
    expected = run(capsys, *serial, *common)
    assert run(capsys, *argv, *common) == expected
    assert expected[0] == 0
    assert _RecordingPool.sizes == workers


def test_moments_out_and_diff(tmp_path, capsys):
    table = tmp_path / "table.csv"
    args = ["moments", "--family", "selfconj", "--stat", "power:1",
            "--e", "2", "--n", "6..8", "--k", "3..5", "--out", str(table)]
    assert run(capsys, *args)[0] == 0
    text = table.read_text()
    assert text.startswith("k,6,7,8")

    # identical file passes the diff gate
    ok = ["moments", "--family", "selfconj", "--stat", "power:1",
          "--e", "2", "--n", "6..8", "--k", "3..5", "--diff", str(table)]
    assert run(capsys, *ok)[0] == 0

    # a drifted cell beyond tolerance fails with exit 2
    doctored = tmp_path / "doctored.csv"
    lines = text.splitlines()
    k, *cells = lines[1].split(",")
    cells[0] = f"{float(cells[0]) + 2 * DIFF_TOLERANCE:.3f}"
    lines[1] = ",".join([k] + cells)
    doctored.write_text("\n".join(lines) + "\n")
    bad = ok[:-1] + [str(doctored)]
    code, _, err = run(capsys, *bad)
    assert code == 2
    assert "diff" in err

    # comments in the golden file are ignored
    commented = tmp_path / "commented.csv"
    commented.write_text("# header note\n" + text)
    assert run(capsys, *ok[:-1], str(commented))[0] == 0


def test_diff_nan_cell_is_drift(tmp_path, capsys):
    args = ["moments", "--family", "core", "--stat", "length",
            "--d", "2", "--n", "6..7", "--k", "3..4"]
    _, text, _ = run(capsys, *args)
    lines = text.splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ",nan"
    nan_golden = tmp_path / "nan.csv"
    nan_golden.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, *args, "--diff", str(nan_golden))
    assert code == 2
    assert "nan" in err


@pytest.mark.parametrize("bad", [["--k", "1..1"], ["--k", "0..2"], ["--d", "0"]])
def test_malformed_moments_requests_are_refused(capsys, bad):
    args = ["moments", "--family", "core", "--stat", "length", "--d", "3",
            "--n", "5..6", "--k", "3..8"]
    code, out, err = run(capsys, *args, *bad)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if bad[0] == "--d":
        assert "zero variance" in err and "core" in err and "n 5" in err and "cap 0" in err


def test_moments_selfconj_power3_large_n_is_fast(capsys):
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "moments", "--family", "selfconj", "--stat", "power:3",
                       "--e", "2", "--n", "40", "--k", "3..8")
    assert code == 0
    assert time.perf_counter() - t0 < 1.0
    assert out.splitlines()[0] == "k,40" and len(out.splitlines()) == 7


def test_diff_header_mismatch(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text("k,6,7\n3,0.000,0.000\n")
    code, _, err = run(
        capsys, "moments", "--family", "core", "--stat", "length",
        "--d", "1", "--n", "6..8", "--k", "3..3", "--diff", str(table),
    )
    assert code == 2


@pytest.mark.parametrize("text", ["", "# comment only\n\n"])
def test_diff_against_a_golden_file_without_rows(tmp_path, capsys, text):
    golden = tmp_path / "empty.csv"
    golden.write_text(text)
    code, out, err = run(
        capsys, "moments", "--family", "core", "--stat", "length",
        "--d", "1", "--n", "6..7", "--k", "3..3", "--diff", str(golden),
    )
    assert code == 2
    assert out.startswith("k,6,7")
    assert err == f"diff: golden file {golden} has no table rows\n"


@pytest.mark.parametrize("golden", ["missing.csv", "latin1.csv", "a-directory"])
def test_an_unreadable_golden_file_is_refused_before_any_column(tmp_path, capsys, monkeypatch, golden):
    (tmp_path / "latin1.csv").write_bytes("k,6,7\n3,0.000,\xe9\n".encode("latin-1"))
    (tmp_path / "a-directory").mkdir()

    def no_column(*args):
        raise AssertionError("a column was computed")

    monkeypatch.setattr(coreperim.cli, "moment_report", no_column)
    out_file = tmp_path / "table.csv"
    code, out, err = run(
        capsys, "moments", "--family", "core", "--stat", "length", "--d", "1",
        "--n", "6..7", "--k", "3..3", "--out", str(out_file), "--diff", str(tmp_path / golden),
    )
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert str(tmp_path / golden) in err
    assert not out_file.exists()


def test_dist_over_the_step_limit_is_refused():
    # in a child process: the refused fold still holds ~230 MB of atoms
    proc = subprocess.run(
        [sys.executable, "-m", "coreperim.cli", "dist", "--family", "selfconj",
         "--stat", "power:3", "--e", "2", "--n", "40"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and "Traceback" not in proc.stderr
    for part in ("family selfconj", "stat power:3", "n 40", "cap 2", "moments"):
        assert part in line


# past FOLD_PLAN_LIMIT (orders over 198 for a one-lane statistic) `moments`
# reads the power sums off the pmf, which is refused here
PMF_REFUSED = ["moments", "--family", "selfconj", "--stat", "power:3", "--e", "2",
               "--n", "21", "--k", "3..300"]
# orders whose moment reduction is estimated past MOMENT_WORK_LIMIT
K_REFUSED = ["moments", "--family", "core", "--stat", "length", "--d", "3", "--n", "5",
             "--k", "3..3000"]
# past the fold's reach, a pmf within its byte budget whose power-sum pass is
# estimated past MOMENT_WORK_LIMIT (about 16 s if run); n=12 answers in about 1 s
PASS_REFUSED = ["moments", "--family", "selfconj", "--stat", "power:3", "--e", "2",
                "--n", "16", "--k", "3..200"]


def test_moments_past_the_fold_reach_refuses_the_pmf_in_one_true_line(capsys):
    code, out, err = run(capsys, *PMF_REFUSED)
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert line.startswith("error: pmf of family selfconj, stat power:3, n 21, cap 2 refused")
    assert line.endswith("`moments` reaches its orders up to 198 without a pmf")


def test_moment_orders_are_bounded_before_any_fold(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, *K_REFUSED)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (1, "")
    assert err == (
        "error: --k up to 3000 at family core, stat length, n 5, cap 3 refused: its moment "
        f"reduction is estimated at {3000**3 * (9 + 4)} units of work, over "
        f"MOMENT_WORK_LIMIT = {MOMENT_WORK_LIMIT}\n"
    )
    code, out, _ = run(capsys, *K_REFUSED[:-1], "3..400")
    assert code == 0 and len(out.splitlines()) == 399


def test_the_pmf_pass_past_the_fold_reach_is_bounded(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, *PASS_REFUSED)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (1, "")
    assert err == (
        "error: --k up to 200 at family selfconj, stat power:3, n 16, cap 2 refused: the power "
        "sums of its pmf are estimated at 5175897216 units of work, over "
        f"MOMENT_WORK_LIMIT = {MOMENT_WORK_LIMIT}\n"
    )
    code, out, _ = run(capsys, *PASS_REFUSED[:-3], "12", "--k", "3..200")
    assert code == 0 and len(out.splitlines()) == 199


# requests whose automaton, or decoded beta sets, would be too wide to build in
# time: refused from (family, n, cap) before anything is built.  At the
# estimates' introduction the first ran 6.75 s before its pmf was refused, the
# second and third ran past 60 s, and the fourth ended in a MemoryError
WIDE_REFUSED = {
    "dist-n": ["dist", "--family", "core", "--stat", "size", "--d", "3", "--n", "200000"],
    "dist-cap": ["dist", "--family", "core", "--stat", "length", "--d", "100000", "--n", "5"],
    "moments-n": ["moments", "--family", "core", "--stat", "length", "--d", "3", "--n", "200000",
                  "--k", "3..8"],
    "decode-cap": ["sample", "--family", "core", "--d", "1000000000", "--n", "5", "--seed", "1",
                   "--count", "1", "--decode"],
}


@pytest.mark.parametrize("name", sorted(WIDE_REFUSED))
def test_a_wide_request_is_refused_before_it_is_built(capsys, name):
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        code, out, err = run(capsys, *WIDE_REFUSED[name])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert line.startswith("error: ")
    assert line.endswith(f"refused: n and cap + 1 may each be at most RANGE_LIMIT = {RANGE_LIMIT}")
    assert peak < 1 << 20


# `sample` requests whose vectors and lines, or one decoded partition, could
# not fit PMF_BYTE_BUDGET: refused before the first draw.  Before the price
# the first ran until a 20 s timeout stopped it, and the second would decode
# about 5*10^7 parts (about 110 bytes a part in flight)
HELD_REFUSED = {
    "count": ["sample", "--family", "core", "--d", "2", "--n", "5", "--seed", "1",
              "--count", "10000000000000"],
    "parts": ["sample", "--family", "core", "--d", "9999", "--n", "10000", "--seed", "1",
              "--count", "1", "--decode"],
}


@pytest.mark.parametrize("name", sorted(HELD_REFUSED))
def test_a_sample_that_cannot_be_held_is_refused_before_its_first_draw(capsys, name):
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        code, out, err = run(capsys, *HELD_REFUSED[name])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert line.startswith("error: sample of ")
    assert line.endswith(f"bytes, over PMF_BYTE_BUDGET = {PMF_BYTE_BUDGET}")
    assert peak < 1 << 20


def test_held_refusals_leave_what_answers(capsys):
    # the same requests, a size smaller
    code, out, _ = run(capsys, *HELD_REFUSED["count"][:-1], "1000")
    assert code == 0 and len(out.splitlines()) == 1000
    code, out, _ = run(capsys, *HELD_REFUSED["parts"][:6], "30", *HELD_REFUSED["parts"][7:])
    assert code == 0 and json.loads(out)["partition"]


def test_wide_refusals_leave_what_answers(capsys):
    # plain sampling builds nothing per value, so any cap draws
    code, out, _ = run(capsys, *WIDE_REFUSED["decode-cap"][:-1])
    assert code == 0 and json.loads(out)["x"] == [151149761, 630123623, 993154398, 776128779]
    assert run(capsys, "sample", "--family", "core", "--d", "9999", "--n", "5", "--seed", "1",
               "--decode")[0] == 0
    # the dearest column under RANGE_LIMIT still answers (about 2 s)
    code, out, err = run(capsys, *WIDE_REFUSED["moments-n"][:-3], "10000", "--k", "3..8")
    assert (code, err) == (0, "") and out.splitlines()[0] == "k,10000"


# requests priced before they are built: the first two by their automaton's
# moves (MOVE_LIMIT), the last two by their pmf fold's time (PMF_SECONDS_LIMIT).
# Before these prices the first began building 10^8 moves (a MemoryError after
# 5.5 s under a 1.5 GB address-space limit), the second 10^6 moves, and the
# folds of the last two were estimated at 2 250 s and 911 s
PRICED_REFUSED = {
    "moves": (["dist", "--family", "core", "--stat", "length", "--d", "9999", "--n", "9999"],
              "moves, over MOVE_LIMIT = 100000"),
    "moves-per-coordinate": (["dist", "--family", "core", "--stat", "length", "--d", "9999",
                              "--n", "100"], "moves, over MOVE_LIMIT = 100000"),
    "fold-steps": (["dist", "--family", "core", "--stat", "length", "--d", "3", "--n", "10000"],
                   "its fold is estimated at 2250 s, over PMF_SECONDS_LIMIT = 30"),
    "fold-moves": (["distance", "--family", "core", "--stat", "length", "--d", "999", "--n", "100"],
                   "its fold is estimated at 911 s, over PMF_SECONDS_LIMIT = 30"),
}


@pytest.mark.parametrize("name", sorted(PRICED_REFUSED))
def test_a_dear_request_is_refused_before_it_is_built(capsys, name):
    argv, why = PRICED_REFUSED[name]
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert line.startswith("error: ") and why in line
    assert peak < 1 << 20


def test_priced_refusals_leave_what_answers(capsys):
    # the pmf is refused, and `moments` folds the same law without one
    code, out, err = run(capsys, "moments", *PRICED_REFUSED["fold-moves"][0][1:], "--k", "3..4")
    assert (code, err) == (0, "") and out.splitlines() == ["k,100", "3,0.000", "4,2.988"]


def test_a_memory_error_is_one_error_line(capsys, monkeypatch):
    import coreperim.cli as cli

    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_dist", exhausted)
    code, out, err = run(capsys, "dist", "--family", "core", "--stat", "length", "--d", "1",
                         "--n", "4")
    assert (code, out, err) == (1, "", "error: out of memory\n")


# each command runs in a fresh interpreter without `dataclasses` and its
# import chain (inspect, ast, dis)
NO_DATACLASSES = {
    "moments": ["--family", "core", "--stat", "size", "--d", "3", "--n", "5..8"],
    "dist": ["--family", "strict", "--stat", "size", "--d", "2", "--n", "9"],
    "distance": ["--family", "selfconj", "--stat", "power:2", "--e", "2", "--n", "6..9"],
    "sample": ["--family", "core", "--d", "3", "--n", "10", "--seed", "7", "--count", "5",
               "--decode"],
    "verify": ["--quick"],
}


@pytest.mark.parametrize("command", sorted(NO_DATACLASSES))
def test_no_command_imports_dataclasses(command):
    script = ("import sys\nfrom coreperim.cli import main\nrc = main(sys.argv[1:])\n"
              "print(rc, *sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)),"
              " file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", script, command, *NO_DATACLASSES[command]],
                          capture_output=True, text=True)
    assert proc.stdout and proc.stderr.splitlines()[-1] == "0"


# coreperim modules a command does not run, absent after it ran in a fresh interpreter
NOT_LOADED = {
    "moments": ({"codec", "partitions", "gaussref", "polya"},
                ["--family", "core", "--stat", "size", "--d", "3", "--n", "5..8"]),
    "distance": ({"codec", "partitions", "polya"},
                 ["--family", "strict", "--stat", "size", "--d", "2", "--n", "9"]),
    "sample": ({"gaussref", "polya"},
               ["--family", "selfconj", "--e", "2", "--n", "9", "--seed", "3", "--count", "4",
                "--decode"]),
}


@pytest.mark.parametrize("command", sorted(NOT_LOADED))
def test_each_command_loads_only_its_own_modules(tmp_path, command):
    absent, flags = NOT_LOADED[command]
    script = ("import sys\nfrom coreperim.cli import main\nrc = main(sys.argv[1:])\n"
              "print(rc, *sorted(m for m in sys.modules if m.startswith('coreperim.')))")
    proc = subprocess.run([sys.executable, "-c", script, command, *flags,
                           "--out", str(tmp_path / "out.txt")],
                          capture_output=True, text=True, check=True)
    rc, *loaded = proc.stdout.split()
    assert rc == "0" and (tmp_path / "out.txt").read_text()
    loaded = {name.removeprefix("coreperim.") for name in loaded}
    assert {"cli", "exactdist", "families"} <= loaded
    assert not loaded & absent, loaded & absent


def test_every_export_resolves():
    for name in coreperim.__all__:
        scope = {}
        exec(f"from coreperim import {name}", scope)
        assert scope[name] is getattr(coreperim, name)
    assert set(coreperim.__all__) <= set(dir(coreperim))
    with pytest.raises(AttributeError):
        coreperim.no_such_name


@pytest.mark.parametrize("sub", ["moments", "distance", "dist"])
def test_a_huge_n_span_is_refused_before_it_is_built(capsys, sub):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, sub, "--family", "core", "--d", "3", "--stat", "length",
                             "--n", "2..10000000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == ("error: range '2..10000000000' spans 9999999999 values, "
                   f"over the limit of {RANGE_LIMIT}\n")
    assert peak < 1 << 20


def test_range_limit_boundary(capsys):
    assert len(parse_range(f"1..{RANGE_LIMIT}")) == RANGE_LIMIT
    with pytest.raises(ValueError, match=f"spans {RANGE_LIMIT + 1} values"):
        parse_range(f"0..{RANGE_LIMIT}")
    code, out, err = run(capsys, "moments", "--family", "core", "--d", "3", "--stat", "length",
                         "--n", "5", "--k", f"3..{RANGE_LIMIT + 3}")
    assert (code, out) == (1, "") and len(err.splitlines()) == 1


def test_dist_output(capsys):
    code, out, _ = run(capsys, "dist", "--family", "strict", "--stat", "length",
                       "--d", "2", "--n", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# total=2731"
    assert lines[1] == "value,weight"
    rows = [line.split(",") for line in lines[2:]]
    assert sum(int(w) for _, w in rows) == 2731
    assert [int(v) for v, _ in rows] == sorted(int(v) for v, _ in rows)


def test_distance_output(capsys):
    code, out, _ = run(capsys, "distance", "--family", "strict", "--stat", "length",
                       "--d", "1", "--n", "10..13")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == RATE_CSV_HEADER
    assert len(lines) == 5
    assert lines[1].split(",")[3] == "10"


# sha256 of `dist` dumps past the enumeration range, generated by the dict
# fold that preceded the lane fold
DIST_DUMP_SHA256 = {
    ("core", "size", "--d", "3", "40"):
        "f92dd863fea154121922571081664f30416a34315886ab69604aacdf4c1f1e83",
    ("strict", "size", "--d", "2", "80"):
        "dad53ba778cbb4043dbd9f889571c687ae1076b8f3cca52eb1f67ef454f9da3a",
    ("selfconj", "power:2", "--e", "2", "24"):
        "ddf72dc476d413f949679d1bfdd5c0962419669fb44b4f626c21bf2161697571",
    ("selfconj", "power:3", "--e", "2", "19"):
        "7aa2927b529f2d6b69782c167e2eed66ab50c9622fa166e423e6697fe47a8f3c",
}


@pytest.mark.parametrize("case", sorted(DIST_DUMP_SHA256), ids=lambda c: f"{c[0]}-{c[1]}-n{c[4]}")
def test_dist_dumps_are_pinned(capsys, case):
    family, stat, flag, cap, n = case
    code, out, _ = run(capsys, "dist", "--family", family, "--stat", stat, flag, cap, "--n", n)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIST_DUMP_SHA256[case]


def test_distance_csv_is_pinned(capsys):
    # generated with Fraction CDF steps and the dict fold
    code, out, _ = run(capsys, "distance", "--family", "strict", "--stat", "size",
                       "--d", "2", "--n", "6..10")
    assert code == 0
    assert out == (
        "family,stat,cap,n,dK,dW,sqrtn_dK,sqrtn_dW\n"
        "strict,size,2,6,0.0836438035117,0.108480197841,0.204884638749,0.265721131906\n"
        "strict,size,2,7,0.0618816034643,0.0865025329254,0.163723333496,0.228864189898\n"
        "strict,size,2,8,0.0501314042312,0.0704177308324,0.141793023529,0.19917141995\n"
        "strict,size,2,9,0.0372928204822,0.0596036000888,0.111878461447,0.178810800266\n"
        "strict,size,2,10,0.0338288756235,0.0512238074839,0.106976297653,0.161983902075\n"
    )


def test_sample_decode_and_determinism(capsys):
    args = ["sample", "--family", "core", "--d", "3", "--n", "4",
            "--seed", "11", "--count", "5", "--decode"]
    code, out, _ = run(capsys, *args)
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 5
    for row in rows:
        assert len(row["x"]) == 3
        assert all(0 <= v <= 3 for v in row["x"])
        assert isinstance(row["partition"], str)
    _, again, _ = run(capsys, *args)
    assert again == out
    _, other, _ = run(capsys, *args[:-4], "12", "--count", "5", "--decode")
    assert other != out


def test_sample_count_zero_writes_nothing(capsys):
    code, out, _ = run(capsys, "sample", "--family", "strict", "--d", "2", "--n", "6",
                       "--seed", "3", "--count", "0")
    assert code == 0
    assert out == ""


@pytest.mark.parametrize("family,flag", [("core", "--d"), ("strict", "--d"), ("selfconj", "--e")])
def test_sample_out_file_same_bytes_as_stdout(tmp_path, capsys, family, flag):
    count = 1300
    args = ["sample", "--family", family, flag, "2", "--n", "9", "--seed", "5",
            "--count", str(count), "--decode"]
    code, out, _ = run(capsys, *args)
    assert code == 0
    target = tmp_path / "out.jsonl"
    assert run(capsys, *args, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == out.encode()
    lines = out.splitlines()
    assert len(lines) == count
    # each line is exactly what json.dumps makes of its record
    assert all(json.dumps(json.loads(line)) == line for line in lines)


def test_sample_empty_and_negative_counts(tmp_path, capsys):
    base = ["sample", "--family", "selfconj", "--e", "2", "--n", "6", "--seed", "3", "--decode"]
    target = tmp_path / "zero.jsonl"
    assert run(capsys, *base, "--count", "0", "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == b""
    code, out, err = run(capsys, *base, "--count", "-1")
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    refused = tmp_path / "refused.jsonl"
    assert run(capsys, *base, "--count", "-1", "--out", str(refused))[0] == 1
    assert not refused.exists()


def test_config_file_fills_missing_flags(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("# defaults\nfamily=core\nstat=length\nd=3\nk=3..4\n")
    code, out, _ = run(capsys, "moments", "--config", str(conf), "--n", "5..6")
    assert code == 0
    assert [row.split(",")[0] for row in out.splitlines()] == ["k", "3", "4"]
    flags = ["moments", "--family", "core", "--stat", "length", "--d", "3", "--n", "5..6"]
    assert out == run(capsys, *flags, "--k", "3..4")[1]
    # explicit flags beat the config
    code, out2, _ = run(capsys, "moments", "--config", str(conf), "--n", "5..6",
                        "--k", "3..3")
    assert code == 0
    assert len(out2.strip().splitlines()) == 2
    # unknown keys are rejected
    bad = tmp_path / "bad.conf"
    bad.write_text("familly=core\n")
    assert run(capsys, "moments", "--config", str(bad), "--n", "5")[0] == 1


def test_config_file_fills_sample_and_switches(tmp_path, capsys):
    conf = tmp_path / "sample.conf"
    conf.write_text("family=strict\nd=2\nn=7\nseed=1\ncount=3\ndecode=true\n")
    code, out, _ = run(capsys, "sample", "--config", str(conf))
    flags = ["sample", "--family", "strict", "--d", "2", "--n", "7", "--seed", "1"]
    assert code == 0
    assert out == run(capsys, *flags, "--count", "3", "--decode")[1]
    assert len(out.splitlines()) == 3
    assert all("partition" in json.loads(line) for line in out.splitlines())
    # the command line beats the file, switches included
    off = tmp_path / "off.conf"
    off.write_text("decode=false\ncount=2\n")
    code, out, _ = run(capsys, *flags, "--config", str(off))
    assert code == 0 and len(out.splitlines()) == 2 and "partition" not in out
    code, out, _ = run(capsys, *flags, "--config", str(off), "--decode", "--count", "1")
    assert code == 0 and len(out.splitlines()) == 1 and "partition" in out
    code, out, _ = run(capsys, "sample", "--config", str(conf), "--no-decode")
    assert code == 0 and len(out.splitlines()) == 3 and "partition" not in out
    on = tmp_path / "on.conf"
    on.write_text("quick=true\n")
    for argv, attr, value in (
        (["verify", "--config", str(on)], "quick", True),
        (["verify", "--config", str(on), "--no-quick"], "quick", False),
        (["verify", "--no-quick"], "quick", False),
        (["sample", "--config", str(conf), "--no-decode"], "decode", False),
        (["sample", "--config", str(conf)], "decode", True),
    ):
        args = build_parser().parse_args(argv)
        _resolve_flags(args)
        assert getattr(args, attr) is value, argv
    # built-in values fill what neither gives
    bare = ["sample", "--family", "core", "--d", "2", "--n", "5", "--seed", "4"]
    code, out, _ = run(capsys, *bare)
    assert code == 0 and len(out.splitlines()) == 1 and "partition" not in out


def test_config_file_quick_verify_and_refusals(tmp_path, capsys):
    quick = tmp_path / "quick.conf"
    quick.write_text("quick=true\n")
    assert run(capsys, "verify", "--config", str(quick)) == run(capsys, "verify", "--quick")
    sample = ["sample", "--family", "core", "--d", "2", "--n", "5", "--seed", "1"]
    for argv, text, needle in (
        (sample, "decode=yes\n", "true or false"),
        (["verify"], "quick=1\n", "true or false"),
        (sample, "command=moments\n", "unknown config key"),
        (sample, "jobs=2\n", "unknown config key"),
    ):
        bad = tmp_path / "bad.conf"
        bad.write_text(text)
        code, out, err = run(capsys, *argv, "--config", str(bad))
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and needle in err
    # no seed from the command line or the file: one line, exit 1
    seedless = tmp_path / "seedless.conf"
    seedless.write_text("family=core\nd=2\nn=5\n")
    code, out, err = run(capsys, "sample", "--config", str(seedless))
    assert (code, out, err) == (1, "", "error: --seed is required\n")


def test_verify_quick(capsys):
    code, out, _ = run(capsys, "verify", "--quick")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 7
    assert out.strip().splitlines()[-1].startswith("ok")


def test_installed_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "coreperim.cli", "moments", "--family", "core",
         "--stat", "length", "--d", "1", "--n", "4..5", "--k", "3..4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("k,4,5")


# ----------------------------------------------------------- contract fuzz

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "table1.csv"


def _mostly(good, bad):
    # good values three times as often as bad ones
    return st.sampled_from(good * 3 + bad)


NS = st.one_of(
    st.integers(2, 8).map(str),
    st.tuples(st.integers(2, 8), st.integers(0, 3)).map(lambda t: f"{t[0]}..{min(t[0] + t[1], 8)}"),
    st.sampled_from(["-1", "1", "8..5", "x"]),
)
# small values only: n <= 8, k within 3..8 (3..3000 is refused before any work),
# count <= 5; never --jobs
VALUES = {
    "family": _mostly(["core", "strict", "selfconj"], ["bogus"]),
    "stat": _mostly(["length", "size", "durfee", "power:0", "power:2"], ["power:-1", "power", "width"]),
    "d": _mostly(["1", "2", "3"], ["0", "-1", "x"]),
    "e": _mostly(["1", "2", "3"], ["0", "-1", "x"]),
    "n": NS,
    "k": _mostly(["3..8", "3..4", "5", "8"], ["x", "1..2", "8..3", "3..3000"]),
    "seed": _mostly(["0", "7"], ["-3", "x"]),
    "count": _mostly(["0", "1", "5"], ["-1", "x"]),
    "limit": _mostly(["100000"], ["10", "x"]),
    "decode": _mostly(["true", "false"], ["maybe"]),
    "quick": st.sampled_from(["true", "false"]),
    "out": st.sampled_from(["@tmp/out.txt"]),
    "diff": _mostly([str(GOLDEN)], ["@tmp/missing.csv"]),
}
FLAGS = {
    "moments": ("stat", "k", "diff", "out"),
    "dist": ("stat", "out"),
    "distance": ("stat", "out"),
    "sample": ("stat", "seed", "count", "decode", "out"),
    "verify": ("limit",),
}


@st.composite
def cli_calls(draw):
    """(argv, config text or None) over every subcommand, small sizes only,
    now and then one of the three cost refusals of `moments`."""
    if draw(_mostly([False], [True])):
        return draw(st.sampled_from([PMF_REFUSED, K_REFUSED, PASS_REFUSED])), None
    command = draw(_mostly(sorted(FLAGS), ["bogus"]))
    argv = [command]
    keys = list(FLAGS.get(command, ()))
    if command == "verify":
        argv.append("--quick")
    elif command in FLAGS:
        keys += ["family", "d", "e", "n"]
        if draw(_mostly([True], [False])):
            # a well-formed spec, each value still drawn
            family = draw(VALUES["family"])
            argv += ["--family", family, "--e" if family == "selfconj" else "--d",
                     draw(VALUES["d"]), "--n", draw(VALUES["n"])]
    config_keys = list(keys) + (["quick"] if command == "verify" else [])
    for key in draw(st.lists(st.sampled_from(keys), unique=True)) if keys else ():
        if key == "decode":
            argv.append(draw(st.sampled_from(["--decode", "--no-decode"])))
        else:
            argv += [f"--{key}", draw(VALUES[key])]
    if draw(_mostly([False], [True])):
        argv.append("--bogus")
    config = None
    if draw(st.booleans()):
        chosen = draw(st.lists(st.sampled_from(config_keys), unique=True)) if config_keys else []
        lines = [f"{key}={draw(VALUES[key])}" for key in chosen if key != "out"]
        lines += draw(st.lists(st.sampled_from(["# note", "", "garbage", "unknown=1"]), max_size=2))
        config = "\n".join(lines) + "\n"
    return argv, config


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cli_calls())
@example(call=(PMF_REFUSED, None))
@example(call=(K_REFUSED, None))
@example(call=(WIDE_REFUSED["dist-n"], None))
@example(call=(WIDE_REFUSED["dist-cap"], None))
@example(call=(WIDE_REFUSED["moments-n"], None))
@example(call=(WIDE_REFUSED["decode-cap"], None))
@example(call=(PRICED_REFUSED["moves"][0], None))
@example(call=(PRICED_REFUSED["moves-per-coordinate"][0], None))
@example(call=(PRICED_REFUSED["fold-steps"][0], None))
@example(call=(PRICED_REFUSED["fold-moves"][0], None))
def test_cli_contract_fuzz(tmp_path, capsys, call):
    argv, config = call
    argv = [a.replace("@tmp", str(tmp_path)) for a in argv]
    if config is not None:
        conf = tmp_path / "fuzz.conf"
        conf.write_text(config)
        argv += ["--config", str(conf)]
    code = main(argv)
    _, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, config)
    assert "Traceback" not in err
    if code == 1:
        assert len(err.splitlines()) == 1, (argv, config, err)
