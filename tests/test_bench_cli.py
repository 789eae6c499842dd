"""Command-line front end: radix parsing, GFPV files, subcommands."""

import csv
import io
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from gfpfft import bench_cli, gfp_field
from gfpfft.bench_cli import (
    GfpvFormatError, build_parser, main, parse_radix, read_gfpv, write_gfpv,
)
from gfpfft.gfp_field import MAX_K, GfpParams, gfp_encode

SEED = 0x3C11
SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------------------
# radix syntax

def test_parse_radix_forms():
    assert parse_radix("2^59+2^16") == (1 << 59) + (1 << 16)
    assert parse_radix("2^64-2^50") == (1 << 64) - (1 << 50)
    assert parse_radix("2^62") == 1 << 62
    assert parse_radix("12345") == 12345
    assert parse_radix(" 2^59 + 2^16 ") == (1 << 59) + (1 << 16)


@pytest.mark.parametrize("text", [
    "2^64",        # top of the word range is excluded
    "2^65",
    "2^1+2^64",
    "1",
    "0",
    "abc",
    "3^4",
    "2^a+2^b",
    "2^-3",
    "",
    "2^\u0666\u0662",  # 2^62 in Arabic-Indic digits: exponents are ASCII
])
def test_parse_radix_rejects(text):
    with pytest.raises(ValueError):
        parse_radix(text)


def test_parse_radix_bounds_exponent_before_shifting():
    # exponents have at most three digits, so a long one is refused without
    # the shift it asks for: 2^100000000 alone would be a 12.5 MB int
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="bad radix syntax"):
            parse_radix("2^100000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError, match="out of word range"):
        parse_radix("2^999")


# ---------------------------------------------------------------------------
# GFPV container

def test_gfpv_roundtrip(tmp_path):
    import random
    rng = random.Random(SEED)
    k, r = 8, (1 << 59) + (1 << 16)
    params = GfpParams(r, k)
    vecs = [gfp_encode(params, rng.randrange(params.p)) for _ in range(5)]
    path = tmp_path / "sample.gfpv"
    write_gfpv(path, k, r, vecs)
    got_k, got_r, got = read_gfpv(path)
    assert (got_k, got_r) == (k, r)
    assert got == vecs


def test_gfpv_empty_and_bad_rows(tmp_path):
    path = tmp_path / "empty.gfpv"
    write_gfpv(path, 16, 1 << 62, [])
    assert read_gfpv(path) == (16, 1 << 62, [])
    with pytest.raises(ValueError):
        write_gfpv(tmp_path / "bad.gfpv", 8, 1 << 62, [(1, 2, 3)])


def _mangled(tmp_path, raw, name):
    path = tmp_path / name
    path.write_bytes(raw)
    return path


def test_gfpv_read_errors(tmp_path):
    k, r = 8, 1 << 62
    good = tmp_path / "good.gfpv"
    write_gfpv(good, k, r, [(0,) * k])
    raw = good.read_bytes()

    with pytest.raises(GfpvFormatError, match="bad magic"):
        read_gfpv(_mangled(tmp_path, b"NOPE" + raw[4:], "magic.gfpv"))
    with pytest.raises(GfpvFormatError, match="unsupported version"):
        read_gfpv(_mangled(tmp_path, raw[:4] + b"\x02" + raw[5:], "ver.gfpv"))
    with pytest.raises(GfpvFormatError, match="truncated header"):
        read_gfpv(_mangled(tmp_path, raw[:10], "header.gfpv"))
    with pytest.raises(GfpvFormatError, match="truncated payload"):
        read_gfpv(_mangled(tmp_path, raw[:-8], "payload.gfpv"))


@pytest.mark.parametrize("k,r", [(0, 1 << 62), (3, 1 << 62), (1 << 17, 1 << 62),
                                 (8, 1), (8, 0)])
def test_gfpv_read_rejects_bad_field_before_rows(tmp_path, monkeypatch, k, r):
    # k = 0 passes the length check whatever the count, so a 32-byte file
    # could ask for 2^63 empty rows: the field is checked before any row
    # is read, and a row read fails the test instead of hanging it
    path = _mangled(tmp_path, b"GFPV" + struct.pack("<IQQQ", 1, k, r, 1 << 63),
                    "field.gfpv")
    unpack_from = struct.unpack_from

    def header_only(fmt, data, offset=0):
        assert offset == 4, "read_gfpv reached the row loop"
        return unpack_from(fmt, data, offset)

    def rows(fmt, buffer):
        raise AssertionError("read_gfpv reached the rows")

    monkeypatch.setattr(bench_cli.struct, "unpack_from", header_only)
    monkeypatch.setattr(bench_cli.struct, "iter_unpack", rows)
    with pytest.raises(GfpvFormatError, match="bad field"):
        read_gfpv(path)


@pytest.mark.parametrize("k,r", [(3, 10), (0, 1 << 62), (3, 1 << 62),
                                 (1 << 17, 1 << 62), (8, 1), (8, 0),
                                 (8.0, 1 << 62), (True, 5)])
def test_gfpv_write_rejects_bad_field_before_file(tmp_path, k, r):
    # write_gfpv refuses every field GfpParams refuses, with no rows to
    # pack, and raises before the file is created; True once wrote k = 1
    path = tmp_path / "field.gfpv"
    with pytest.raises(GfpvFormatError, match="bad field"):
        write_gfpv(path, k, r, [])
    assert not path.exists()


def test_gfpv_field_check_builds_no_params(tmp_path, monkeypatch):
    # the header is checked by gfp_field.check_field alone: GfpParams would
    # build p = r^k + 1, most of a second at k = MAX_K
    monkeypatch.setattr(gfp_field, "GfpParams", None)
    monkeypatch.setattr(bench_cli, "GfpParams", None)
    path = tmp_path / "wide.gfpv"
    write_gfpv(path, MAX_K, (1 << 64) - 1, [])
    assert read_gfpv(path) == (MAX_K, (1 << 64) - 1, [])


@pytest.mark.parametrize("rows", [[(0,) * 8, (1, 2, 3)], [(0,) * 7 + (1 << 64,)],
                                  [(1,) * 7 + (-1,)]],
                         ids=["short-row", "digit-2^64", "digit-negative"])
def test_gfpv_write_rejects_bad_rows_before_file(tmp_path, rows):
    # a row of the wrong length or a digit outside [0, 2^64) raises
    # ValueError, and the file is never created
    path = tmp_path / "rows.gfpv"
    with pytest.raises(ValueError):
        write_gfpv(path, 8, 1 << 62, rows)
    assert not path.exists()


# ---------------------------------------------------------------------------
# verify

def test_verify_passes_and_is_deterministic(capsys):
    argv = ["verify", "--k", "8", "--r", "2^59+2^16",
            "--seed", "7", "--trials", "40"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert first.count("PASS") == 7
    assert "FAIL" not in first
    assert "all checks passed" in first
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_verify_checks_yield_name_ok_detail_failing():
    # every check, passing or not, yields the same four fields
    r = (1 << 59) + (1 << 16)
    items = list(bench_cli._verify_checks(8, r, 7, 4))
    assert len(items) == 7
    for name, ok, detail, failing in items:
        assert type(name) is str and ok is True and failing is None


def test_verify_extends_primes_for_oversized_radix(capsys):
    # k*r^2 = 2^127 outgrows the default pair; verify checks the field
    # over the three primes gfp_mul_fft uses for it
    rc = main(["verify", "--k", "8", "--r", "2^62", "--trials", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 7
    assert "FAIL" not in out
    assert "primes=3" in out


def test_verify_failure_writes_counterexample(tmp_path, capsys, monkeypatch):
    k, r = 8, (1 << 59) + (1 << 16)
    params = GfpParams(r, k)
    bad = gfp_encode(params, 12345)

    def fake_checks(kk, rr, seed, samples):
        yield ("prime_compat", True, "forced", None)
        yield ("mul_fft_vs_bigint_vs_oracle", False, "forced mismatch", (bad, bad))

    monkeypatch.setattr(bench_cli, "_verify_checks", fake_checks)
    out = tmp_path / "bad.gfpv"
    rc = main(["verify", "--k", "8", "--r", "2^59+2^16", "--out", str(out)])
    assert rc == 1
    text = capsys.readouterr().out
    assert "FAIL mul_fft_vs_bigint_vs_oracle" in text
    assert "1 check(s) failed" in text
    got_k, got_r, vecs = read_gfpv(out)
    assert (got_k, got_r) == (k, r)
    assert vecs == [bad, bad]


def test_verify_add_failure_writes_counterexample(tmp_path, capsys, monkeypatch):
    # a wrong gfp_add fails add_sub_vs_integers, and --out keeps the first
    # pair it got wrong, ready to replay
    seen = []
    real_add = gfp_field.gfp_add

    def off_by_one(params, x, y):
        seen.append((x, y))
        return gfp_field.gfp_sub(params, real_add(params, x, y),
                                 gfp_encode(params, 1))

    monkeypatch.setattr(gfp_field, "gfp_add", off_by_one)
    out = tmp_path / "add.gfpv"
    rc = main(["verify", "--k", "8", "--r", "2^59+2^16", "--trials", "5",
               "--out", str(out)])
    assert rc == 1
    text = capsys.readouterr().out
    assert "FAIL add_sub_vs_integers (add counterexample" in text
    assert "counterexample written to" in text
    k, r, vecs = read_gfpv(out)
    assert (k, r) == (8, (1 << 59) + (1 << 16))
    assert vecs == list(seen[0])


def test_verify_smoke_searched_radix(capsys):
    # the dense k=64 default radix, end to end with a small sample count
    rc = main(["verify", "--k", "64", "--trials", "3", "--seed", "1"])
    assert rc == 0
    assert capsys.readouterr().out.count("PASS") == 7


# ---------------------------------------------------------------------------
# bench and profile commands

def test_bench_mul_csv(tmp_path):
    out = tmp_path / "mul.csv"
    rc = main(["bench-mul", "--k", "8", "--trials", "2", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    assert row["k"] == "8"
    assert int(row["r"]) == (1 << 59) + (1 << 16)
    assert float(row["fft_based_ns"]) > 0
    assert float(row["bigint_based_ns"]) > 0
    assert float(row["oracle_median_ns"]) > 0


def test_bench_fft_csv_single_backend(tmp_path):
    out = tmp_path / "fft.csv"
    rc = main(["bench-fft", "--K", "16", "--e", "2",
               "--backend", "gfp-bigint", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    assert (row["K"], row["e"], row["backend"]) == ("16", "2", "gfp-bigint")
    assert row["verified"] == "n/a"
    total = float(row["total_seconds"])
    # the four phases, boundary included, cover the whole transform
    parts = sum(float(row[phase + "_seconds"]) for phase in
                ("permutation", "basecase", "twiddle", "boundary"))
    assert 0.9 * total <= parts <= 1.05 * total


def test_bench_fft_cross_checks_backends(tmp_path):
    # no --backend runs every backend against the same input vector
    out = tmp_path / "fft2.csv"
    rc = main(["bench-fft", "--K", "16", "--e", "2", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["backend"] for r in rows] == list(bench_cli.BACKENDS)
    assert all(r["verified"] == "yes" for r in rows)


def test_bench_fft_rejects_composite_modulus(capsys):
    # K=8 means k=4, and the k=8 default radix gives a composite r^4+1
    rc = main(["bench-fft", "--K", "8", "--e", "1",
               "--r", "2^59+2^16", "--backend", "gfp-bigint"])
    assert rc == 2
    assert "not prime" in capsys.readouterr().err


def test_profile_mul_percentages(tmp_path):
    out = tmp_path / "prof.csv"
    rc = main(["profile-mul", "--k", "8", "--trials", "10", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    steps = ("convolution_pct", "carry_pct", "boundary_pct")
    assert set(row) == {"k", "r", *steps}
    assert sum(float(row[s]) for s in steps) == pytest.approx(100.0, abs=0.5)
    assert float(row["carry_pct"]) > 0
    assert float(row["boundary_pct"]) > 0


@pytest.mark.parametrize("backend", bench_cli.BACKENDS)
def test_bench_fft_two_points_reports_no_average(backend, capsys):
    # K = 2 (p = 3) has no twiddle multiplies to average over
    rc = main(["bench-fft", "--K", "2", "--e", "1", "--r", "2",
               "--backend", backend])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [(r["backend"], r["avg_mult_seconds"]) for r in rows] == \
        [(backend, "n/a")]


def test_mult_count_closed_form():
    assert bench_cli._mult_count(8, 1) == 5
    assert bench_cli._mult_count(8, 2) == 129
    assert bench_cli._mult_count(2, 1) == 0


# ---------------------------------------------------------------------------
# parser plumbing

def test_parser_rejects_unknown_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["frobnicate"])
    with pytest.raises(SystemExit):
        parser.parse_args([])


@pytest.mark.parametrize("argv,message", [
    (["verify", "--k", "8", "--r", "2^65"], "error: radix out of word range"),
    (["verify", "--k", "0", "--trials", "3"], "error:"),
    (["verify", "--k", "-8"], "error:"),
    (["verify", "--trials", "0"], "error:"),
    (["bench-fft", "--trials", "0"], "error:"),
    (["bench-mul", "--trials", "-1"], "error:"),
    (["profile-mul", "--trials", "0"], "error:"),
    (["bench-fft", "--k", "3", "--K", "4", "--e", "1", "--r", "4",
      "--backend", "oracle-bigint"], "error:"),
    (["bench-mul", "--k", ","], "error:"),
    (["bench-fft", "--K", ","], "error:"),
    (["bench-mul", "--k", "4"], "error: no default radix"),
], ids=["bad-radix", "verify-k0", "verify-k-neg", "verify-trials0",
        "bench-fft-trials0", "bench-mul-trials-neg", "profile-mul-trials0",
        "bench-fft-k", "bench-mul-empty-k", "bench-fft-empty-K",
        "bench-mul-no-default-radix"])
def test_main_reports_value_errors(argv, message, capsys):
    # argparse rejects a bad option value by exiting 2 itself
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bench-mul", "--k", "8,4", "--trials", "2"],
    ["profile-mul", "--k", "8,4", "--trials", "2"],
    ["bench-fft", "--K", "16,4", "--trials", "1"],
], ids=["bench-mul", "profile-mul", "bench-fft"])
def test_missing_radix_writes_no_header(argv, tmp_path, capsys):
    # every radix is looked up before the CSV header, so a k without a
    # default prints nothing instead of a header, and writes no file
    out = tmp_path / "f.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: no default radix" in captured.err


@pytest.mark.parametrize("argv", [
    ["bench-mul", "--k", "4"],
    ["profile-mul", "--k", "8", "--r", "2^x"],
    ["bench-fft", "--K", "16", "--r", "6"],
], ids=["no-default-radix", "bad-radix", "not-prime"])
def test_failing_command_keeps_existing_out_file(argv, tmp_path):
    out = tmp_path / "keep.csv"
    out.write_text("kept line\n")
    assert main(argv + ["--out", str(out)]) == 2
    assert out.read_text() == "kept line\n"


def test_module_entry_point():
    # python -m gfpfft runs main and exits with its status
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "gfpfft", *argv], env=env,
                              capture_output=True, text=True, timeout=300)

    ok = run("verify", "--k", "8", "--trials", "3")
    assert ok.returncode == 0
    assert sum(line.startswith("PASS ") for line in ok.stdout.splitlines()) == 7
    assert "all checks passed" in ok.stdout
    bad = run("bench-mul", "--r", "2^x")
    assert bad.returncode == 2
    assert "error:" in bad.stderr and "Traceback" not in bad.stderr
