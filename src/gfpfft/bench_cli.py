"""Command line front end: verification and benchmark tables.

Subcommands:

  verify       run the property suites at configured sizes, exit 0 on pass
  bench-mul    time one multiplication per backend, CSV per k
  bench-fft    time a full DFT of K^e points per backend, CSV with phases
  profile-mul  per-step percentage breakdown of the FFT multiplication

Radices accept sparse syntax (2^59+2^16) with exponents of at most three
digits alongside plain integers.  All input generation is seeded, and
every timed run first cross-checks the backends against each other on the
same inputs; a benchmark never reports numbers for diverging implementations.

Vector files use the GFPV binary layout: magic "GFPV", u32 version, u64
k, u64 r, u64 count, then count*k little-endian digit words; the header's
(r, k) must pass gfp_field.check_field, the rule of GfpParams.
"""

import argparse
import csv
import io
import os
import random
import re
import statistics
import struct
import sys
import time
from functools import partial

from . import gfp_field, gfp_mult, oracle
from .fft import IntModField, base_case_ops, build_plan, dft_general
from .gfp_field import GfpParams, gfp_decode, gfp_encode
from .word_field import word_prime

# radices with r^k + 1 prime that fit the default prime pair; no sparse
# 2^a+/-2^b choice exists for k = 64 under the exact coefficient bound, so
# that entry is the largest even radix below the bound with r^64 + 1 prime
DEFAULT_RADIX = {
    8: (1 << 59) + (1 << 16),
    16: (1 << 58) + (1 << 10),
    32: (1 << 56) + (1 << 21),
    64: 284903849103190610,
}

BACKENDS = ("gfp-fft", "gfp-bigint", "oracle-bigint")


class GfpvFormatError(ValueError):
    """Bad magic, version or field, or truncated GFPV payload."""


# ---------------------------------------------------------------------------
# radix syntax and config

# ASCII exponents of at most three digits: no shift passes 2^999 unchecked
_SPARSE_RADIX = re.compile(r"2\^([0-9]{1,3})(?:([+-])2\^([0-9]{1,3}))?")


def parse_radix(text):
    """Parse `2^a+2^b`, `2^a-2^b`, `2^a`, or a plain integer."""
    s = text.strip().replace(" ", "")
    m = _SPARSE_RADIX.fullmatch(s)
    if m:
        a, sign, b = m.groups()
        val = 1 << int(a)
        if sign:
            val += (1 << int(b)) if sign == "+" else -(1 << int(b))
    else:
        try:
            val = int(s)
        except ValueError:
            raise ValueError("bad radix syntax: %r" % text) from None
    if not 2 <= val < 1 << 64:
        raise ValueError("radix out of word range: %r" % text)
    return val


def _radix(text, k):
    """The radix --r gives, else DEFAULT_RADIX[k]; ValueError if neither."""
    if not text and k not in DEFAULT_RADIX:
        raise ValueError("no default radix for k=%d, pass --r" % k)
    return parse_radix(text) if text else DEFAULT_RADIX[k]


# ---------------------------------------------------------------------------
# GFPV vector files

def _check_gfpv_field(k, r):
    # check_field, not GfpParams: building p at k = MAX_K takes most of a
    # second, which a 32-byte header must not cost
    try:
        gfp_field.check_field(r, k)
    except ValueError as exc:
        raise GfpvFormatError("bad field k=%r r=%r: %s" % (k, r, exc)) from None


def write_gfpv(path, k, r, vectors):
    _check_gfpv_field(k, r)
    # the whole payload is packed before open, so a bad row leaves no file
    try:
        data = struct.pack("<4sIQQQ", b"GFPV", 1, k, r, len(vectors)) + \
            b"".join([struct.pack("<%dQ" % k, *v) for v in vectors])
    except struct.error as exc:
        raise ValueError("cannot pack GFPV data: %s" % exc) from None
    with open(path, "wb") as fh:
        fh.write(data)


def read_gfpv(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"GFPV":
        raise GfpvFormatError("bad magic")
    if len(data) < 4 + 28:
        raise GfpvFormatError("truncated header")
    version, k, r, count = struct.unpack_from("<IQQQ", data, 4)
    if version != 1:
        raise GfpvFormatError("unsupported version %d" % version)
    # before the rows: k = 0 passes the length check for any count
    _check_gfpv_field(k, r)
    need = 32 + count * k * 8
    if len(data) != need:
        raise GfpvFormatError("truncated payload: %d != %d bytes" % (len(data), need))
    return k, r, list(struct.iter_unpack("<%dQ" % k, memoryview(data)[32:]))


# ---------------------------------------------------------------------------
# verify

def _verify_checks(k, r, seed, samples):
    """Yields (name, ok, detail, failing) tuples; detail explains the first
    failure, and failing is the failing operand pair, or None."""
    rng = random.Random(seed)
    params = GfpParams(r, k)
    p = params.p
    # the prime set gfp_mul_fft convolves over for this field
    crt = gfp_mult._resolve(params, gfp_mult.crt_default())[0]
    report = gfp_mult.check_prime_compat(params, crt)
    yield "prime_compat", report.passed, "primes=%d slack=%d" % (
        len(crt.primes), report.slack), None

    # each check yields (detail, failing pair or None) per counterexample;
    # the runner below takes the first, so later samples are never drawn
    def add_sub():
        for _ in range(samples):
            a, b = rng.randrange(p), rng.randrange(p)
            x, y = gfp_encode(params, a), gfp_encode(params, b)
            if gfp_decode(params, gfp_field.gfp_add(params, x, y)) != (a + b) % p:
                yield "add counterexample a=%d b=%d" % (a, b), (x, y)
            if gfp_decode(params, gfp_field.gfp_sub(params, x, y)) != (a - b) % p:
                yield "sub counterexample a=%d b=%d" % (a, b), (x, y)

    def cyclic_shift():
        for _ in range(max(1, samples // 4)):
            a = rng.randrange(p)
            x = gfp_encode(params, a)
            for i in range(2 * k + 1):
                got = gfp_field.gfp_mul_pow_r(params, x, i)
                if gfp_decode(params, got) != a * pow(r, i, p) % p:
                    yield "shift counterexample a=%d i=%d" % (a, i), None

    def mul():
        for _ in range(samples):
            a, b = rng.randrange(p), rng.randrange(p)
            x, y = gfp_encode(params, a), gfp_encode(params, b)
            u_fft = gfp_mult.gfp_mul_fft(params, crt, x, y)
            u_big = gfp_mult.gfp_mul_bigint(params, x, y)
            u_prep = gfp_mult.gfp_mul_fft(params, crt, x,
                                          gfp_mult.FftOperand(params, crt, y))
            want = oracle.oracle_mod_mul(p, a, b)
            if not u_fft == u_big == u_prep or gfp_decode(params, u_fft) != want:
                yield "mul counterexample a=%d b=%d" % (a, b), (x, y)

    def negacyclic():
        for q in crt.primes:
            ctx = word_prime(q)
            for _ in range(samples):
                x = [rng.randrange(q) for _ in range(k)]
                y = [rng.randrange(q) for _ in range(k)]
                if list(gfp_mult.negacyclic_convolution(x, y, ctx, k)) != \
                        list(oracle.oracle_negacyclic(x, y, ctx)):
                    yield "negacyclic counterexample q=%d" % q, None

    def crt_roundtrip():
        half = crt.half_range
        for _ in range(samples):
            v = rng.randrange(-half, half + 1)
            residues = [v % q for q in crt.primes]
            if gfp_mult.crt_combine(*residues, crt).value() != v:
                yield "crt counterexample v=%d" % v, None

    def lhc():
        for _ in range(samples):
            s = rng.randrange(k * r * r)
            t = gfp_mult.lhc_decompose(s, r)
            if t.value(r) != s or t.l >= r or t.h >= r:
                yield "lhc counterexample s=%d" % s, None

    for name, check in (("add_sub_vs_integers", add_sub),
                        ("cyclic_shift_vs_integers", cyclic_shift),
                        ("mul_fft_vs_bigint_vs_oracle", mul),
                        ("negacyclic_vs_schoolbook", negacyclic),
                        ("crt_roundtrip", crt_roundtrip),
                        ("lhc_recomposition", lhc)):
        detail, failing = next(check(), ("", None))
        yield name, not detail, detail, failing


def cmd_verify(args, out):
    k = args.k
    r = _radix(args.r, k)
    failed = 0
    counterexample = None
    for name, ok, detail, failing in _verify_checks(k, r, args.seed, args.trials):
        line = "%s %s" % ("PASS" if ok else "FAIL", name)
        if detail:
            line += " (%s)" % detail
        print(line, file=out)
        if not ok:
            failed += 1
            if failing and counterexample is None:
                counterexample = failing
    print("verify: k=%d r=%d seed=%d: %s" %
          (k, r, args.seed, "all checks passed" if not failed
           else "%d check(s) failed" % failed), file=out)
    if failed and counterexample and args.out:
        write_gfpv(args.out, k, r, list(counterexample))
        print("counterexample written to %s" % args.out, file=out)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# benchmarks

def _pin_to_one_cpu():
    # keeps timing stable; best effort
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def cmd_bench_mul(args, out):
    _pin_to_one_cpu()
    ks, trials = args.k_list, args.trials
    radii = [_radix(args.r, k) for k in ks]  # raise before the header
    rng = random.Random(args.seed)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["k", "r", "fft_based_ns", "bigint_based_ns", "oracle_ns",
                     "fft_median_ns", "bigint_median_ns", "oracle_median_ns"])
    for k, r in zip(ks, radii):
        params = GfpParams(r, k)
        fft_mul = partial(gfp_mult.gfp_mul_fft, params, gfp_mult.crt_default())
        big_mul = partial(gfp_mult.gfp_mul_bigint, params)
        oracle_mul = partial(oracle.oracle_mod_mul, params.p)
        pairs = [(rng.randrange(params.p), rng.randrange(params.p))
                 for _ in range(trials)]
        elems = [(gfp_encode(params, a), gfp_encode(params, b)) for a, b in pairs]
        # cross-verify before timing
        for (a, b), (x, y) in zip(pairs, elems):
            u = fft_mul(x, y)
            if u != big_mul(x, y) or gfp_decode(params, u) != oracle_mul(a, b):
                raise SystemExit("backend mismatch at k=%d a=%d b=%d" % (k, a, b))

        def run(fn, series):
            times = []
            for x, y in series:
                t0 = time.perf_counter()
                fn(x, y)
                times.append(time.perf_counter() - t0)
            return times

        t_fft = run(fft_mul, elems)
        t_big = run(big_mul, elems)
        t_orc = run(oracle_mul, pairs)
        row = [k, r]
        for ts in (t_fft, t_big, t_orc):
            row.append(round(statistics.mean(ts) * 1e9))
        for ts in (t_fft, t_big, t_orc):
            row.append(round(statistics.median(ts) * 1e9))
        writer.writerow(row)
    return 0


def _fft_bench_setup(K, e, backend, r, threads, seed):
    """Returns (field, plan, make_vector, to_int) for one configuration.

    r None means DEFAULT_RADIX[K/2].  threads is accepted for existing
    callers and ignored: base cases run serially.
    """
    k = K // 2
    params = GfpParams(_radix(None, k) if r is None else r, k)
    # name the cause up front; the root search would only run out of draws
    if not oracle.oracle_is_probable_prime(params.p, 40):
        raise ValueError(
            "r^%d+1 is not prime for r=%d, transforms need a prime modulus"
            % (k, params.r))
    N = K ** e
    rng = random.Random(seed)
    if backend == "oracle-bigint":
        field = IntModField(params.p)
    else:
        field = gfp_mult.GfpFftField(
            params, backend="fft" if backend == "gfp-fft" else "bigint")
    omega = field.encode(gfp_decode(params, _gfp_root(params, N)))
    plan = build_plan(field, K, e, omega)
    make = lambda: [field.encode(rng.randrange(params.p)) for _ in range(N)]
    return field, plan, make, field.decode


def _gfp_root(params, N):
    # the plan wants omega^(N/2k) to equal the radix exactly, so lift a
    # random primitive root into that coset
    g = gfp_field.gfp_find_nth_root(params, N, seed=0)
    return gfp_field.gfp_primitive_root(params, N, g)


def _mult_count(K, e):
    # twiddle-style multiplications in one K^e transform: the unrolled
    # base cases plus the general twiddle stages (unit factors skipped)
    base_tw = sum(1 for op in base_case_ops(K) if op[0] == "tw")
    N = K ** e
    total = e * (N // K) * base_tw
    for i in range(e - 1):
        m = K ** (e - i - 1)
        total += K ** i * (m - 1) * (K - 1)
    return total


def cmd_bench_fft(args, out):
    _pin_to_one_cpu()
    Ks, es = args.K_list, args.e_list
    backends = [args.backend] if args.backend else list(BACKENDS)
    radii = {K: _radix(args.r, K // 2) for K in Ks}  # raise before the header
    writer = csv.writer(out, lineterminator="\n")
    phases = ("permutation", "basecase", "twiddle", "boundary")
    writer.writerow(["K", "e", "backend", "total_seconds"]
                    + ["%s_seconds" % phase for phase in phases]
                    + ["avg_mult_seconds", "verified"])
    trials = args.trials
    for K in Ks:
        for e in es:
            reference = None
            rows = []
            for backend in backends:
                field, plan, make, to_int = _fft_bench_setup(
                    K, e, backend, radii[K], None, args.seed)
                v0 = make()
                check = list(v0)
                dft_general(check, plan, field)
                digest = tuple(to_int(t) for t in check)
                verified = "n/a"
                if len(backends) > 1:
                    if reference is None:
                        reference = digest
                    elif digest != reference:
                        raise SystemExit("backend mismatch at K=%d e=%d backend=%s"
                                         % (K, e, backend))
                    verified = "yes"
                total = 0.0
                profile = {}
                for _ in range(trials):
                    v = list(v0)
                    t0 = time.perf_counter()
                    dft_general(v, plan, field, profile=profile)
                    total += time.perf_counter() - t0
                total /= trials
                for key in profile:
                    profile[key] /= trials
                count = _mult_count(K, e)  # 0 at K = 2: no twiddle multiplies
                rows.append([K, e, backend, "%.6f" % total]
                            + ["%.6f" % profile.get(phase, 0.0) for phase in phases]
                            + ["%.9f" % (total / count) if count else "n/a",
                               verified])
            for row in rows:
                writer.writerow(row)
    return 0


def cmd_profile_mul(args, out):
    _pin_to_one_cpu()
    ks, trials = args.k_list, args.trials
    radii = [_radix(args.r, k) for k in ks]  # raise before the header
    rng = random.Random(args.seed)
    writer = csv.writer(out, lineterminator="\n")
    steps = ["convolution", "carry", "boundary"]
    writer.writerow(["k", "r"] + ["%s_pct" % s for s in steps])
    for k, r in zip(ks, radii):
        params = GfpParams(r, k)
        crt = gfp_mult.crt_default()
        profile = {}
        for _ in range(trials):
            x = gfp_encode(params, rng.randrange(params.p))
            y = gfp_encode(params, rng.randrange(params.p))
            gfp_mult.gfp_mul_fft(params, crt, x, y, profile=profile)
        total = sum(profile.get(s, 0.0) for s in steps)
        row = [k, r] + ["%.2f" % (100.0 * profile.get(s, 0.0) / total)
                        for s in steps]
        writer.writerow(row)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

def _int_list(text):
    values = [int(t) for t in text.split(",") if t]
    if not values:
        raise argparse.ArgumentTypeError("expected integers: %r" % text)
    return values


def _positive_int(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be a positive integer: %r" % text)
    return n


def build_parser():
    ap = argparse.ArgumentParser(
        prog="gfpfft",
        description="Generalized Fermat prime field arithmetic workbench")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, trials, k="one"):
        # --k only where the subcommand reads it: bench-fft takes none
        if k == "list":
            p.add_argument("--k", dest="k_list", type=_int_list,
                           default=[8, 16, 32, 64],
                           help="comma-separated k values")
        elif k == "one":
            p.add_argument("--k", type=_positive_int, default=8)
        p.add_argument("--r", default=None,
                       help="radix, sparse syntax 2^a+2^b accepted")
        p.add_argument("--trials", type=_positive_int, default=trials)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path")

    p = sub.add_parser("verify", help="run property suites")
    common(p, 200)

    p = sub.add_parser("bench-mul", help="time one multiplication per backend")
    common(p, 50, k="list")

    p = sub.add_parser("bench-fft", help="time a K^e DFT per backend")
    common(p, 1, k=None)
    p.add_argument("--K", dest="K_list", type=_int_list, default=[16],
                   help="comma-separated base-case sizes")
    p.add_argument("--e", dest="e_list", type=_int_list, default=[2],
                   help="comma-separated exponents")
    p.add_argument("--backend", choices=BACKENDS, default=None)

    p = sub.add_parser("profile-mul", help="per-step multiplication profile")
    common(p, 50, k="list")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    command = {"verify": cmd_verify, "bench-mul": cmd_bench_mul,
               "bench-fft": cmd_bench_fft,
               "profile-mul": cmd_profile_mul}[args.command]
    # a table is held until its command succeeds, so a failing command
    # leaves an existing --out file as it was
    buffered = args.out and args.command != "verify"
    out = io.StringIO() if buffered else sys.stdout
    try:
        status = command(args, out)
    except gfp_mult.ConfigurationError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if buffered:
        with open(args.out, "w", newline="") as fh:
            fh.write(out.getvalue())
    return status


if __name__ == "__main__":
    sys.exit(main())
