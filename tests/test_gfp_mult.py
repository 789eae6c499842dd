"""Multiplication pipeline pieces: LHC, CRT, convolutions, muls."""

import ast
import pickle
import random
from collections import Counter
from math import prod
from operator import mul

import pytest

from gfpfft.fft import BASE_SIZES
from gfpfft.gfp_field import (
    GfpParams, gfp_add, gfp_decode, gfp_encode, gfp_mul_pow_r, gfp_one,
    gfp_sub,
)
from gfpfft.gfp_mult import (
    ConfigurationError, CrtParams, FftOperand, GfpFftField, _nega_plan,
    _resolve, check_prime_compat, crt_combine, crt_default,
    gfp_mul_bigint, gfp_mul_fft, lhc_decompose, negacyclic_convolution,
)
from gfpfft.oracle import oracle_mod_mul, oracle_negacyclic
from gfpfft.word_field import P1, P2, P3, word_prime

SEED = 0x6B1D

TABLE3 = [
    (8, (1 << 59) + (1 << 16)),
    (16, (1 << 58) + (1 << 10)),
    (32, (1 << 56) + (1 << 21)),
]


# ---------------------------------------------------------------------------
# LHC splitting

def test_lhc_decompose_frozen_example():
    r = (1 << 63) + (1 << 34)
    t = lhc_decompose(1 << 64, r)
    assert (t.l, t.h, t.c) == ((1 << 63) - (1 << 34), 1, 0)
    assert t.value(r) == 1 << 64


@pytest.mark.parametrize("k,r", TABLE3 + [(8, (1 << 63) + (1 << 34))])
def test_lhc_recomposition(k, r):
    rng = random.Random(SEED ^ k)
    # inputs live in two words; k*r^2 can poke past that for fat radices
    bound = min(k * r * r, 1 << 128)
    for _ in range(10000):
        s = rng.randrange(bound)
        t = lhc_decompose(s, r)
        assert t.value(r) == s
        assert 0 <= t.l < r
        assert 0 <= t.h < r
        assert t.c <= k + 1


def test_lhc_beyond_two_words():
    # k*r^2 passes 2^128 for the widest radices; native ints carry it
    k, r = 8, (1 << 63) + (1 << 34)
    rng = random.Random(SEED)
    for s in [k * r * r, 1 << 128] + [rng.randrange(1 << 128, k * r * r)
                                     for _ in range(1000)]:
        t = lhc_decompose(s, r)
        assert t.value(r) == s
        assert 0 <= t.l < r and 0 <= t.h < r and t.c <= k
    with pytest.raises(ValueError):
        lhc_decompose(-1, r)


@pytest.mark.parametrize("r", [2, 3, 5])
def test_lhc_exhaustive_small_radix(r):
    # c overflows past r here (k > r); only l and h promise the radix range
    k = 16
    for s in range(k * r * r):
        t = lhc_decompose(s, r)
        assert t.value(r) == s
        assert 0 <= t.l < r and 0 <= t.h < r


# ---------------------------------------------------------------------------
# CRT reconstruction

def test_crt_combine_examples():
    crt = crt_default()
    got = crt_combine(5, 5, crt)
    assert got.value() == 5 and not got.negative
    got = crt_combine(P1 - 3, P2 - 3, crt)
    assert got.value() == -3 and got.negative


def test_crt_combine_roundtrip():
    crt = crt_default()
    half = (P1 * P2 - 1) // 2
    rng = random.Random(SEED)
    values = [0, 1, -1, half, -half]
    values += [rng.randrange(-half, half + 1) for _ in range(10000)]
    for v in values:
        got = crt_combine(v % P1, v % P2, crt)
        assert got.value() == v


def test_crt_combine_three_primes_roundtrip():
    crt = CrtParams.make(P1, P2, P3)
    assert crt.primes == (P1, P2, P3)
    assert (crt.p1, crt.p2) == (P1, P2)
    half = (P1 * P2 * P3 - 1) // 2
    rng = random.Random(SEED + 3)
    values = [0, 1, -1, half, -half, half - 1, -half + 1]
    values += [rng.randrange(-half, half + 1) for _ in range(10000)]
    for v in values:
        got = crt_combine(v % P1, v % P2, v % P3, crt)
        assert got.value() == v
        assert got.negative == (v < 0)


def test_crt_combine_rejects_unreduced():
    crt = crt_default()
    with pytest.raises(ValueError):
        crt_combine(P1, 0, crt)
    with pytest.raises(ValueError):
        crt_combine(0, -1, crt)
    with pytest.raises(ValueError):
        crt_combine(0, 0, 0, crt)  # one residue too many
    with pytest.raises(ValueError):
        crt_combine(0, 0, P3, CrtParams.make(P1, P2, P3))


def test_crt_custom_pair_exhaustive():
    crt = CrtParams.make(101, 103)
    half = (101 * 103 - 1) // 2
    for v in range(-half, half + 1):
        got = crt_combine(v % 101, v % 103, crt)
        assert got.value() == v
    with pytest.raises(ValueError):
        CrtParams.make(7, 7)


def test_check_prime_compat_table_rows():
    crt = crt_default()
    for k, r in TABLE3:
        report = check_prime_compat(GfpParams(r, k), crt)
        assert report.passed and report.slack > 0 and not report.reasons


def test_check_prime_compat_rejects_oversized_radix():
    crt = crt_default()
    report = check_prime_compat(GfpParams(1 << 62, 8), crt)
    assert not report.passed
    assert report.slack < 0
    assert any("coefficient bound" in reason for reason in report.reasons)


def test_check_prime_compat_divisibility_reason():
    crt = CrtParams.make(97, 193)
    report = check_prime_compat(GfpParams(2, 32), crt)
    assert not report.passed
    assert any("does not divide" in reason for reason in report.reasons)


# ---------------------------------------------------------------------------
# convolutions over a word prime

def test_negacyclic_impulses():
    ctx = word_prime(P1)
    rng = random.Random(SEED)
    k = 8
    unit = [1] + [0] * (k - 1)
    y = [rng.randrange(ctx.q) for _ in range(k)]
    assert negacyclic_convolution(unit, y, ctx, k) == tuple(y)
    e1 = [0, 1] + [0] * (k - 2)
    etop = [0] * (k - 1) + [1]
    # R * R^(k-1) wraps to -1
    want = (ctx.q - 1,) + (0,) * (k - 1)
    assert negacyclic_convolution(e1, etop, ctx, k) == want


@pytest.mark.parametrize("q", [P1, P2, P3])
@pytest.mark.parametrize("k", [1, 2, 4, 8, 16, 32, 64, 128])
def test_negacyclic_matches_oracle(q, k):
    ctx = word_prime(q)
    rng = random.Random(SEED ^ (q % 1000) ^ k)
    for _ in range(30):
        x = [rng.randrange(q) for _ in range(k)]
        y = [rng.randrange(q) for _ in range(k)]
        got = negacyclic_convolution(x, y, ctx, k)
        assert list(got) == oracle_negacyclic(x, y, ctx)


@pytest.mark.parametrize("primes", [(P1,), (P2,), (P3,), (P1, P2), (P1, P2, P3)],
                         ids=lambda primes: "-".join(map(str, primes)))
@pytest.mark.parametrize("k", (1,) + BASE_SIZES + (128, 256))
def test_compiled_kernels_match_oracle(primes, k):
    # the plan convolves mod the product of the primes: every output is
    # checked mod each prime.  Field digits reach 2^64 - 1, above any word
    # prime, and all-(q-1) and all-(2^64 - 1) vectors give the largest
    # unreduced intermediates
    plan = _nega_plan(primes, k)
    m = prod(primes)
    rng = random.Random(SEED ^ (m % 4099) ^ k)
    q_top, word_top = [primes[0] - 1] * k, [(1 << 64) - 1] * k
    cases = [(q_top, q_top), (word_top, word_top),
             (word_top, [1] + [0] * (k - 1))]
    cases += [([rng.randrange(1 << 64) for _ in range(k)],
               [rng.randrange(1 << 64) for _ in range(k)])
              for _ in range(10 if k <= 64 else 2)]
    for x, y in cases:
        got = plan.inv(plan.fwd(x), plan.fwd(y))
        assert len(got) == k and all(0 <= g < m for g in got)
        for q in primes:
            want = oracle_negacyclic([d % q for d in x], [d % q for d in y],
                                     word_prime(q))
            assert [g % q for g in got] == want
    # fwd reduces digits above the modulus itself
    wide = [(1 << 64) - 1 - i for i in range(k)]
    assert plan.fwd(wide) == plan.fwd([d % m for d in wide])


@pytest.mark.parametrize("k", (1,) + BASE_SIZES)
def test_compiled_kernels_are_straight_line(k):
    plan = _nega_plan((P1, P2), k)
    for fn in (plan.fwd, plan.inv):
        tree = ast.parse(fn.source)
        assert not [n for n in ast.walk(tree)
                    if isinstance(n, (ast.For, ast.While))]


def test_convolution_rejects():
    ctx = word_prime(P1)
    with pytest.raises(ValueError):
        negacyclic_convolution([1, 2, 3], [1, 2, 3], ctx, 3)  # not a power of two
    with pytest.raises(ValueError):
        negacyclic_convolution([1, 2], [1, 2, 3, 4], ctx, 4)  # length mismatch
    with pytest.raises(ValueError):
        negacyclic_convolution([0, P1], [0, 1], ctx, 2)       # unreduced digit
    small = word_prime(97)
    with pytest.raises(ValueError):
        negacyclic_convolution([0] * 64, [0] * 64, small, 64)  # 128 exceeds 2-adic part


# ---------------------------------------------------------------------------
# the multiplication backends against each other and the oracle

def to_int(params, x):
    return gfp_decode(params, x)


@pytest.mark.parametrize("k,r", TABLE3)
def test_mul_identities(k, r):
    params = GfpParams(r, k)
    crt = crt_default()
    rng = random.Random(SEED ^ k)
    one = gfp_one(params)
    minus_one = gfp_encode(params, params.p - 1)
    x = gfp_encode(params, rng.randrange(params.p))
    assert gfp_mul_fft(params, crt, x, one) == x
    assert gfp_mul_fft(params, crt, x, gfp_encode(params, 0)) == gfp_encode(params, 0)
    # form B squared: (p-1)^2 = 1
    assert gfp_mul_fft(params, crt, minus_one, minus_one) == one
    assert gfp_mul_bigint(params, minus_one, minus_one) == one


@pytest.mark.parametrize("k,r", TABLE3)
def test_mul_fft_vs_bigint_vs_oracle(k, r):
    params = GfpParams(r, k)
    crt = crt_default()
    rng = random.Random(SEED ^ (k * 7))
    p = params.p
    pairs = [(p - 1, p - 1), (p - 1, 1), (p - 2, p - 2)]
    pairs += [(rng.randrange(p), rng.randrange(p)) for _ in range(300)]
    for a, b in pairs:
        x, y = gfp_encode(params, a), gfp_encode(params, b)
        u = gfp_mul_fft(params, crt, x, y)
        assert u == gfp_mul_bigint(params, x, y)
        assert to_int(params, u) == oracle_mod_mul(p, a, b)


@pytest.mark.parametrize("k,r", [(4, 2), (8, 2), (16, 2)])
def test_mul_tiny_radix_carry_paths(k, r):
    # k > r drives the c lane past the radix, so the carry pass moves
    # more than one unit per digit and the wrapped parts grow
    params = GfpParams(r, k)
    crt = crt_default()
    p = params.p
    if k == 4:
        pairs = [(a, b) for a in range(p) for b in range(p)]  # p = 17
    else:
        rng = random.Random(SEED * k)
        pairs = [(p - 1, p - 1), (p - 2, p - 1)]
        pairs += [(rng.randrange(p), rng.randrange(p)) for _ in range(500)]
    for a, b in pairs:
        x, y = gfp_encode(params, a), gfp_encode(params, b)
        u = gfp_mul_fft(params, crt, x, y)
        assert u == gfp_mul_bigint(params, x, y)
        assert to_int(params, u) == a * b % p


def test_mul_agrees_with_digit_rotation():
    k, r = TABLE3[0]
    params = GfpParams(r, k)
    crt = crt_default()
    rng = random.Random(SEED)
    x = gfp_encode(params, pow(r, 3, params.p))
    for _ in range(20):
        y = gfp_encode(params, rng.randrange(params.p))
        assert gfp_mul_fft(params, crt, x, y) == gfp_mul_pow_r(params, y, 3)


def test_mul_profile_steps():
    k, r = TABLE3[0]
    params = GfpParams(r, k)
    crt = crt_default()
    rng = random.Random(SEED)
    profile = {}
    x = gfp_encode(params, rng.randrange(params.p))
    y = gfp_encode(params, rng.randrange(params.p))
    gfp_mul_fft(params, crt, x, y, profile=profile)
    assert set(profile) == {"convolution", "carry"}
    assert all(t >= 0 for t in profile.values())


def test_mul_settle_exhaustive_small_fields():
    # every pair of every field r <= 6, k <= 2 and r <= 4, k = 4; the carry
    # out of the top digit is floor(S / r^k), S = sum x_i y_j r^(i+j) with
    # r^k read as -1 for i + j >= k and no carries taken
    crt = crt_default()
    carry_signs, form_b = set(), 0
    fields = [(k, r) for k in (1, 2) for r in range(2, 7)]
    fields += [(4, r) for r in range(2, 5)]
    for k, r in fields:
        params = GfpParams(r, k)
        p, rk = params.p, r ** k
        elems = [gfp_encode(params, a) for a in range(p)]
        # weights[b][i] = sum_j y_j r^(i+j), the wrapped terms negated
        weights = [[sum(y[j] * (r ** (i + j) if i + j < k else -r ** (i + j - k))
                        for j in range(k)) for i in range(k)] for y in elems]
        for a, x in enumerate(elems):
            for b, y in enumerate(elems):
                u = gfp_mul_fft(params, crt, x, y)
                assert gfp_decode(params, u) == a * b % p
                form_b += u[-1] == r
                carry = sum(map(mul, x, weights[b])) // rk
                carry_signs.add((carry > 0) - (carry < 0))
    assert carry_signs == {-1, 0, 1}
    assert form_b


def _specials_and_random(params, rng, count):
    p, r = params.p, params.r
    specials = [0, 1, r % p, p - 2, p - 1]
    pairs = [(a, b) for a in specials for b in specials]
    return pairs + [(rng.randrange(p), rng.randrange(p)) for _ in range(count)]


@pytest.mark.parametrize("k,r", TABLE3 + [
    (8, (1 << 63) + (1 << 34)), (8, 1 << 62),   # three primes
    (1, (1 << 59) + (1 << 16)),
    (32, 2), (8, 3),                             # r < k
])
def test_fft_operand_matches_plain_and_bigint(k, r):
    params = GfpParams(r, k)
    crt = crt_default()
    rng = random.Random(SEED ^ (k * r))
    for a, b in _specials_and_random(params, rng, 40):
        x, y = gfp_encode(params, a), gfp_encode(params, b)
        prepared = FftOperand(params, crt, y)
        assert prepared == y and hash(prepared) == hash(y)
        u = gfp_mul_fft(params, crt, x, prepared)
        assert u == gfp_mul_fft(params, crt, x, y)
        assert u == gfp_mul_bigint(params, x, y)
    # a copy is the plain element
    assert type(pickle.loads(pickle.dumps(prepared))) is tuple


@pytest.mark.parametrize("r,n_primes", [((1 << 59) + (1 << 16), 2),
                                        ((1 << 63) + (1 << 34), 3)])
def test_mul_runs_one_convolution(r, n_primes, monkeypatch):
    # one plan over the product of the primes, whatever their number:
    # fwd(x), fwd(y) and one inv per product, fwd(y) kept by an FftOperand
    params = GfpParams(r, 8)
    crt = crt_default()
    wider, plan = _resolve(params, crt)
    assert len(wider.primes) == n_primes
    calls = Counter()
    for name in ("fwd", "inv"):
        def counting(*args, _fn=getattr(plan, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(plan, name, counting)
    rng = random.Random(SEED ^ n_primes)
    x = gfp_encode(params, rng.randrange(params.p))
    y = gfp_encode(params, rng.randrange(params.p))
    want = gfp_mul_bigint(params, x, y)
    assert gfp_mul_fft(params, crt, x, y) == want
    assert calls == {"fwd": 2, "inv": 1}
    prepared = FftOperand(params, crt, y)
    assert len(prepared.spectrum) == 8
    assert all(0 <= s < wider.modulus for s in prepared.spectrum)
    calls.clear()
    assert gfp_mul_fft(params, crt, x, prepared) == want
    assert calls == {"fwd": 1, "inv": 1}


def test_fft_operand_over_other_primes_falls_back():
    params = GfpParams(10, 4)
    rng = random.Random(SEED)
    crt = crt_default()
    for _ in range(20):
        x = gfp_encode(params, rng.randrange(params.p))
        y = gfp_encode(params, rng.randrange(params.p))
        other = FftOperand(params, CrtParams.make(P1, P3), y)
        assert other.primes == (P1, P3) != crt.primes
        u = gfp_mul_fft(params, crt, x, other)
        assert u == gfp_mul_bigint(params, x, y)


def test_fft_operand_rejects_noncanonical():
    params = GfpParams(10, 4)
    with pytest.raises(ValueError):
        FftOperand(params, crt_default(), (15, 0, 0, 0))  # digit r + 5
    with pytest.raises(ValueError):
        FftOperand(params, crt_default(), (1, 0, 0))


def test_fft_operand_is_checked_like_a_tuple():
    # an operand built for another field is multiplied when its digits are
    # canonical here, through its spectra if they cover the same primes
    r = (1 << 59) + (1 << 16)
    params = GfpParams(r, 4)
    crt = crt_default()
    x = gfp_encode(params, 3 ** 50)
    wide = FftOperand(GfpParams(r, 8), crt, gfp_encode(GfpParams(r, 8), 5 ** 60))
    with pytest.raises(ValueError):
        gfp_mul_fft(params, crt, x, wide)
    small = GfpParams(10, 4)
    rng = random.Random(SEED)
    for _ in range(20):
        x = gfp_encode(small, rng.randrange(small.p))
        y = tuple(rng.randrange(7) for _ in range(4))
        other_radix = FftOperand(GfpParams(7, 4), crt, y)
        assert other_radix.primes == crt.primes
        assert gfp_mul_fft(small, crt, x, other_radix) == gfp_mul_bigint(small, x, y)
    above = FftOperand(GfpParams(20, 4), crt, (15, 0, 0, 0))
    with pytest.raises(ValueError):
        gfp_mul_fft(small, crt, x, above)


def _leftover_carry(params, x, y):
    # the carry the reassembly leaves at r^k, from schoolbook negacyclic
    # coefficients split into l, h, c and placed with one sign per wrap
    k, r = params.k, params.r
    s = [0] * k
    for a in range(k):
        for b in range(k):
            sign = 1 if a + b < k else -1
            s[(a + b) % k] += sign * x[a] * y[b]
    total = 0
    for i, si in enumerate(s):
        t = lhc_decompose(abs(si), r)
        for pos, part in enumerate(t, i):
            wraps, low = divmod(pos, k)
            total += (-1) ** (wraps + (si < 0)) * part * r ** low
    return total // r ** k


@pytest.mark.parametrize("k,r", [(1, (1 << 59) + (1 << 16)), (2, 6),
                                 (8, (1 << 59) + (1 << 16))])
def test_mul_reassembly_carry_cases(k, r):
    # k = 1 cannot leave a positive carry: its one coefficient is at
    # most r^2, which splits as l - h + c < r at digit 0
    params = GfpParams(r, k)
    crt = crt_default()
    rng = random.Random(SEED + k)
    seen = set()
    for a, b in _specials_and_random(params, rng, 200):
        x, y = gfp_encode(params, a), gfp_encode(params, b)
        carry = _leftover_carry(params, x, y)
        seen.add((carry > 0) - (carry < 0))
        u = gfp_mul_fft(params, crt, x, y)
        assert u == gfp_mul_bigint(params, x, y)
        assert to_int(params, u) == a * b % params.p
    assert seen == ({-1, 0} if k == 1 else {-1, 0, 1})
    minus_one = gfp_encode(params, params.p - 1)
    assert gfp_mul_fft(params, crt, minus_one, gfp_one(params)) == minus_one
    assert gfp_mul_fft(params, crt, gfp_one(params), minus_one) == minus_one
    zero = gfp_encode(params, 0)
    assert gfp_mul_fft(params, crt, minus_one, zero) == zero


def test_mul_rejects_incompatible_configuration():
    # a prime set too small for k*r^2 is extended, never trusted with
    # wrong digits; one that no extension can fix is refused
    crt = crt_default()
    for k, r in [(8, (1 << 63) + (1 << 34)), (8, 1 << 62)]:
        params = GfpParams(r, k)
        assert not check_prime_compat(params, crt).passed
        rng = random.Random(SEED ^ r)
        minus_one = gfp_encode(params, params.p - 1)
        assert gfp_mul_fft(params, crt, minus_one, minus_one) == gfp_one(params)
        for _ in range(300):
            x = gfp_encode(params, rng.randrange(params.p))
            y = gfp_encode(params, rng.randrange(params.p))
            assert gfp_mul_fft(params, crt, x, y) == gfp_mul_bigint(params, x, y)
    x32 = (1,) * 32
    with pytest.raises(ConfigurationError):  # 2k = 64 does not divide 97 - 1
        gfp_mul_fft(GfpParams(2, 32), CrtParams.make(97, 193), x32, x32)


def test_mul_rejects_composite_prime():
    # 65 = 5 * 13 passes the 2k | q - 1 test for k = 2 but has no root
    # of unity to transform with; it is refused, never searched forever
    with pytest.raises(ValueError):
        gfp_mul_fft(GfpParams(2, 2), CrtParams.make(65, 193), (1, 1), (1, 1))


def test_mul_single_digit_field_form_b():
    # k = 1: (p-1)^2 has the coefficient r^2, exactly the bound k*r^2
    params = GfpParams((1 << 59) + (1 << 16), 1)
    minus_one = gfp_encode(params, params.p - 1)
    assert gfp_mul_fft(params, crt_default(), minus_one, minus_one) == gfp_one(params)


def test_public_ops_reject_bad_elements():
    # a digit of r + 5, a long and a short element, on either side
    params = GfpParams(10, 4)
    r, k, crt = params.r, params.k, crt_default()
    good = gfp_encode(params, 1234)
    bad = [(r + 5, 0, 0, 0), (0, 0, 0, r + 5), (1, 0, 0, 0, 7), (1, 2)]
    ops = [
        lambda a, b: gfp_mul_fft(params, crt, a, b),
        lambda a, b: gfp_mul_bigint(params, a, b),
        lambda a, b: gfp_add(params, a, b),
        lambda a, b: gfp_sub(params, a, b),
    ]
    for x in bad:
        for op in ops:
            with pytest.raises(ValueError):
                op(x, good)
            with pytest.raises(ValueError):
                op(good, x)
        for i in range(2 * k + 1):
            with pytest.raises(ValueError):
                gfp_mul_pow_r(params, x, i)
    with pytest.raises(ValueError):
        gfp_mul_fft(params, crt, bad[0], FftOperand(params, crt, good))
    for op in ops:  # a digit of r is canonical only on top, in p - 1
        with pytest.raises(ValueError):
            op((r, 0, 0, 0), good)
        with pytest.raises(ValueError):
            op(good, (0, r, 0, 0))
    minus_one = gfp_encode(params, params.p - 1)
    one = gfp_one(params)
    assert gfp_mul_fft(params, crt, minus_one, minus_one) == one
    assert gfp_mul_bigint(params, minus_one, minus_one) == one
    assert gfp_add(params, minus_one, minus_one) == gfp_encode(params, params.p - 2)
    assert gfp_sub(params, minus_one, gfp_encode(params, 0)) == minus_one
    assert gfp_mul_pow_r(params, minus_one, 0) == minus_one


def test_mul_rejects_noncanonical_coefficients():
    params = GfpParams(4, 2)
    big = (P1 - 1, P1 - 1)  # digits far above r
    with pytest.raises(ValueError):
        gfp_mul_fft(params, crt_default(), big, big)


# ---------------------------------------------------------------------------
# the field adapter

def test_field_adapter_backends_agree():
    k, r = TABLE3[0]
    params = GfpParams(r, k)
    fft_field = GfpFftField(params, backend="fft")
    big_field = GfpFftField(params, backend="bigint")
    rng = random.Random(SEED)
    for _ in range(20):
        x = gfp_encode(params, rng.randrange(params.p))
        y = gfp_encode(params, rng.randrange(params.p))
        assert fft_field.mul(x, y) == big_field.mul(x, y)
    with pytest.raises(ValueError):
        GfpFftField(params, backend="nope")
    # 2k = 64 does not divide 97 - 1, so no prime set extending the
    # pair can run the fft backend; the bigint backend skips that gate
    small = CrtParams.make(97, 193)
    with pytest.raises(ConfigurationError):
        GfpFftField(GfpParams(2, 32), crt=small, backend="fft")
    GfpFftField(GfpParams(2, 32), crt=small, backend="bigint")


def test_field_adapter_uses_fewest_primes():
    for k, r in TABLE3:
        assert GfpFftField(GfpParams(r, k)).crt.primes == (P1, P2)
    wide = GfpFftField(GfpParams((1 << 63) + (1 << 34), 8))
    assert wide.crt.primes == (P1, P2, P3)
    # a single library prime is enough to extend a user pair
    crt = CrtParams.make(P1, 257)
    assert GfpFftField(GfpParams(2, 8), crt=crt).crt.primes == (P1, 257)
    assert GfpFftField(GfpParams(1 << 40, 8), crt=crt).crt.primes == (P1, 257, P2)


def test_field_adapter_scalar_helpers():
    k, r = TABLE3[0]
    params = GfpParams(r, k)
    field = GfpFftField(params, backend="bigint")
    rng = random.Random(SEED)
    a = rng.randrange(params.p)
    x = gfp_encode(params, a)
    assert to_int(params, field.pow(x, 5)) == pow(a, 5, params.p)
    assert field.shift(x, 3) == gfp_mul_pow_r(params, x, 3)
    assert field.sub(field.encode(0), field.one()) == gfp_encode(params, params.p - 1)


def test_field_adapter_mul_pow_factories():
    k, r = TABLE3[0]
    params = GfpParams(r, k)
    field = GfpFftField(params, backend="bigint")
    rng = random.Random(SEED)
    x = gfp_encode(params, rng.randrange(params.p))

    rot = field.root_power_mul_factory(field.shift_root, 2 * k)
    for t in range(2 * k):
        assert rot(x, t) == gfp_mul_pow_r(params, x, t)

    rot_inv = field.root_power_mul_factory(field.shift_root_inv, 2 * k)
    r_inv = pow(r, -1, params.p)
    for t in range(2 * k):
        want = to_int(params, x) * pow(r_inv, t, params.p) % params.p
        assert to_int(params, rot_inv(x, t)) == want

    # only the base case of a GF(r^k + 1) transform: 2k powers of r or 1/r
    with pytest.raises(ValueError):
        field.root_power_mul_factory(gfp_encode(params, 3), 2 * k)
    with pytest.raises(ValueError):
        field.root_power_mul_factory(field.shift_root, k)
