"""Command-line front end: radix parsing, GFPV files, subcommands."""

import csv

import pytest

from gfpfft import bench_cli
from gfpfft.bench_cli import (
    GfpvFormatError, build_parser, main, parse_radix, read_gfpv, write_gfpv,
)
from gfpfft.gfp_field import GfpParams, gfp_encode

SEED = 0x3C11


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
])
def test_parse_radix_rejects(text):
    with pytest.raises(ValueError):
        parse_radix(text)


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
    parts = (float(row["permutation_seconds"]) + float(row["basecase_seconds"])
             + float(row["twiddle_seconds"]))
    assert 0 < parts <= total * 1.05


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
    assert set(row) == {"k", "r", "convolution_pct", "carry_pct"}
    total = float(row["convolution_pct"]) + float(row["carry_pct"])
    assert total == pytest.approx(100.0, abs=0.5)
    assert float(row["carry_pct"]) > 0


def test_mult_count_closed_form():
    assert bench_cli._mult_count(8, 1) == 5
    assert bench_cli._mult_count(8, 2) == 129


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
