"""The three benchmark workloads and their independent correctness checks.

Every workload runs on GF(p), p = r^k + 1 with k = 8 and r = 2^59 + 2^16,
the paper's headline field.  A workload object is built in three steps:

  Workload(lib)        set-up: field parameters, root search, plans.  This
                       is what setup_s times, together with one warm-up op.
  make_input(rng)      a fresh seeded input, generated outside any timer;
                       returns (what the library receives, plain ints kept
                       for checking).
  run(inp)             one op.  Library functions are looked up through
                       their modules at call time, so a tracer that wraps
                       the module globals sees the call.

Checks never trust library code: elements are decoded by the helpers below,
the multiply is compared with oracle_mod_mul, and each DFT output with
direct sums out[i] = sum_j v[j] * omega^(i*j) mod p at sampled indices plus
a whole-vector fingerprint.  The first op of a run is also compared entry
by entry with reference_dft, a textbook radix-2 FFT over plain ints that
shares no code with gfpfft.fft (direct sums over all 4096 entries of the
e=3 vector take seconds per check).
"""

import sys
from operator import mul
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

RADIX = (1 << 59) + (1 << 16)
DIGITS = 8
SAMPLED_INDICES = 4


class Library:
    """The gfpfft modules, imported from this checkout's src/ only."""

    def __init__(self):
        if not (SRC / "gfpfft" / "__init__.py").is_file():
            raise SystemExit("perfbench: no gfpfft sources under src/")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from gfpfft import fft, gfp_field, gfp_mult, oracle, word_field
        self.fft = fft
        self.gfp_field = gfp_field
        self.gfp_mult = gfp_mult
        self.oracle = oracle
        self.word_field = word_field


def to_digits(n, r=RADIX, k=DIGITS):
    """Canonical radix-r digit tuple of 0 <= n < r^k + 1."""
    if n == r ** k:
        return (0,) * (k - 1) + (r,)
    digits = []
    for _ in range(k):
        n, d = divmod(n, r)
        digits.append(d)
    return tuple(digits)


def from_digits(x, r=RADIX, k=DIGITS):
    """Integer value of a canonical digit tuple; ValueError otherwise."""
    if len(x) != k:
        raise ValueError("wrong digit count")
    form_b = x[-1] == r and not any(x[:-1])
    if not form_b and not all(0 <= d < r for d in x):
        raise ValueError("non-canonical element")
    acc = 0
    for d in reversed(x):
        acc = acc * r + d
    return acc


def reference_dft(v, w, p):
    """DFT of v (length a power of two) at root w mod p, recursive radix 2."""
    n = len(v)
    if n == 1:
        return list(v)
    w2 = w * w % p
    even = reference_dft(v[0::2], w2, p)
    odd = reference_dft(v[1::2], w2, p)
    half = n // 2
    out = [0] * n
    t = 1
    for i in range(half):
        x = odd[i] * t % p
        out[i] = (even[i] + x) % p
        out[i + half] = (even[i] - x) % p
        t = t * w % p
    return out


class MulK8:
    """One op: gfp_mul_fft on a fresh random pair."""

    name = "mul-k8"
    field = None

    def __init__(self, lib):
        self.lib = lib
        self.params = lib.gfp_field.GfpParams(RADIX, DIGITS)
        self.crt = lib.gfp_mult.crt_default()
        self.p = self.params.p

    def make_input(self, rng):
        a, b = rng.randrange(self.p), rng.randrange(self.p)
        return (to_digits(a), to_digits(b)), (a, b)

    def run(self, inp):
        x, y = inp
        return self.lib.gfp_mult.gfp_mul_fft(self.params, self.crt, x, y)

    def prepare_checks(self, rng):
        pass

    def check(self, ints, out, full, rng):
        a, b = ints
        return from_digits(out) == self.lib.oracle.oracle_mod_mul(self.p, a, b)


class Dft:
    """One op: forward dft_general of a fresh random K^e vector, K = 2k."""

    K = 2 * DIGITS

    def __init__(self, lib, e, backend):
        self.lib = lib
        self.name = "dft-K%de%d-%s" % (self.K, e, backend)
        self.e = e
        self.N = N = self.K ** e
        params = lib.gfp_field.GfpParams(RADIX, DIGITS)
        self.p = params.p
        g = lib.gfp_field.gfp_find_nth_root(params, N, seed=0)
        self.omega = lib.gfp_field.gfp_primitive_root(params, N, g)
        self.field = lib.gfp_mult.GfpFftField(params, backend=backend)
        self.plan = lib.fft.build_plan(self.field, self.K, e, self.omega)

    def make_input(self, rng):
        ints = [rng.randrange(self.p) for _ in range(self.N)]
        return [to_digits(a) for a in ints], ints

    def run(self, v):
        self.lib.fft.dft_general(v, self.plan, self.field)
        return v

    def prepare_checks(self, rng):
        """Tables for the checks; built after set-up, never timed.

        Besides direct sums at sampled indices, every op gets a full-vector
        fingerprint: for a random z with z^N != 1,
            sum_i z^i out[i] = sum_j v[j] (z^N - 1) / (z omega^j - 1),
        a geometric-series identity that any wrong output entry breaks
        except with probability N/p.
        """
        N, p = self.N, self.p
        w = from_digits(self.omega)
        if pow(w, N, p) != 1 or pow(w, N // 2, p) != p - 1:
            raise ValueError("omega is not a primitive N-th root of unity")
        pows = [1] * N
        for t in range(1, N):
            pows[t] = pows[t - 1] * w % p
        self.w = w
        self.pows = pows
        z = rng.randrange(2, p - 1)
        while pow(z, N, p) == 1:
            z = rng.randrange(2, p - 1)
        zn1 = pow(z, N, p) - 1
        self.zpows = [pow(z, i, p) for i in range(N)]
        self.weights = [zn1 * pow(z * pw - 1, -1, p) % p for pw in pows]

    def direct_sum(self, v, i):
        N, pows = self.N, self.pows
        row = [pows[t % N] for t in range(0, i * N, i)] if i else [1] * N
        return sum(map(mul, v, row)) % self.p

    def check(self, ints, out, full, rng):
        p = self.p
        if len(out) != self.N:
            return False
        vals = [from_digits(x) for x in out]
        if sum(map(mul, self.zpows, vals)) % p != sum(map(mul, self.weights, ints)) % p:
            return False
        if full and vals != reference_dft(ints, self.w, p):
            return False
        indices = rng.sample(range(self.N), SAMPLED_INDICES)
        return all(vals[i] == self.direct_sum(ints, i) for i in indices)


WORKLOADS = {
    "mul-k8": MulK8,
    "dft-K16e2-fft": lambda lib: Dft(lib, 2, "fft"),
    "dft-K16e3-bigint": lambda lib: Dft(lib, 3, "bigint"),
}
