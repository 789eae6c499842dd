"""Radix-digit field arithmetic checked against integer reduction mod p."""

import itertools
import random

import pytest

from gfpfft import gfp_mult
from gfpfft.gfp_field import (
    MAX_K, ConfigurationError, GfpParams, gfp_add, gfp_decode, gfp_encode,
    gfp_find_nth_root, gfp_mul_pow_r, gfp_one, gfp_primitive_root, gfp_sub,
    gfp_zero, is_canonical,
)
from gfpfft.gfp_mult import FftOperand, crt_default, gfp_mul_bigint, gfp_mul_fft

SEED = 0x90FD

TABLE_CONFIGS = [
    (8, (1 << 59) + (1 << 16)),
    (16, (1 << 58) + (1 << 10)),
    (32, (1 << 56) + (1 << 21)),
    (8, (1 << 63) + (1 << 34)),
]
# digit arithmetic is ring-level and does not care whether r^k+1 is prime
SMALL_CONFIGS = [(1, 4), (2, 6), (4, 10), (8, 2)]

ALL_CONFIGS = TABLE_CONFIGS + SMALL_CONFIGS


def interesting_values(params, rng, count):
    vals = [0, 1, params.r - 1, params.r, params.p - 2, params.p - 1]
    vals += [rng.randrange(params.p) for _ in range(count)]
    return [v % params.p for v in vals]


def test_params_validation():
    with pytest.raises(ValueError):
        GfpParams(10, 3)
    with pytest.raises(ValueError):
        GfpParams(10, 0)
    with pytest.raises(ValueError):
        GfpParams(1, 8)
    with pytest.raises(ValueError):
        GfpParams(1 << 64, 8)
    p = GfpParams(10, 4)
    assert p.p == 10 ** 4 + 1


def test_params_max_k():
    # the limit is checked before r^k is built, so these allocate nothing
    assert gfp_mult.ConfigurationError is ConfigurationError
    assert issubclass(ConfigurationError, ValueError)
    for k in (2 * MAX_K, 1 << 40):
        with pytest.raises(ConfigurationError, match="MAX_K"):
            GfpParams(2, k)
    assert GfpParams(2, MAX_K).p == 2 ** MAX_K + 1


def test_zero_one_shapes():
    params = GfpParams(10, 4)
    assert gfp_zero(params) == (0, 0, 0, 0)
    assert gfp_one(params) == (1, 0, 0, 0)
    assert gfp_decode(params, gfp_zero(params)) == 0
    assert gfp_decode(params, gfp_one(params)) == 1


@pytest.mark.parametrize("k,r", ALL_CONFIGS)
def test_encode_decode_bijection(k, r):
    params = GfpParams(r, k)
    rng = random.Random(SEED ^ k)
    for n in interesting_values(params, rng, 500):
        x = gfp_encode(params, n)
        assert is_canonical(params, x)
        assert gfp_decode(params, x) == n
    # wrapping and negatives reduce mod p first
    assert gfp_encode(params, params.p) == gfp_zero(params)
    assert gfp_encode(params, -1) == (0,) * (k - 1) + (r,)
    assert gfp_encode(params, params.p - 1) == (0,) * (k - 1) + (r,)


def test_is_canonical_rejects():
    params = GfpParams(10, 4)
    assert not is_canonical(params, (0, 0, 0))          # wrong length
    assert not is_canonical(params, (10, 0, 0, 0))      # r in low digit
    assert not is_canonical(params, (0, 0, 0, 11))      # above r
    assert not is_canonical(params, (1, 0, 0, 10))      # form B with junk
    assert not is_canonical(params, (-1, 0, 0, 0))
    assert is_canonical(params, (0, 0, 0, 10))
    assert is_canonical(params, (9, 9, 9, 9))
    with pytest.raises(ValueError):
        gfp_decode(params, (10, 0, 0, 0))


@pytest.mark.parametrize("k,r", ALL_CONFIGS)
def test_add_sub_vs_integers(k, r):
    params = GfpParams(r, k)
    rng = random.Random(SEED ^ (k * r))
    p = params.p
    directed = [(0, 0), (p - 1, 1), (p - 1, p - 1), (1, p - 1), (0, p - 1)]
    pairs = directed + [(rng.randrange(p), rng.randrange(p))
                        for _ in range(10000)]
    for a, b in pairs:
        x, y = gfp_encode(params, a), gfp_encode(params, b)
        s = gfp_add(params, x, y)
        assert is_canonical(params, s)
        assert gfp_decode(params, s) == (a + b) % p
        d = gfp_sub(params, x, y)
        assert is_canonical(params, d)
        assert gfp_decode(params, d) == (a - b) % p


def test_sub_rejects_noncanonical_digit():
    # a subtrahend digit of r + 5 leaves a negative digit after the borrow;
    # a minuend digit above r, or r anywhere but the top digit over zeros,
    # survives without one
    params = GfpParams(10, 4)
    with pytest.raises(ValueError):
        gfp_sub(params, gfp_zero(params), (15, 0, 0, 0))
    with pytest.raises(ValueError):
        gfp_sub(params, (25, 0, 0, 0), gfp_zero(params))
    with pytest.raises(ValueError):
        gfp_sub(params, (5, 0, 0, 10), gfp_zero(params))
    minus_one = gfp_encode(params, params.p - 1)
    assert gfp_sub(params, minus_one, gfp_zero(params)) == minus_one


def test_add_rejects_noncanonical_digit():
    # a digit of 25 stays above r = 10 after one carry subtract; the
    # top digit of (p-1) + (p-1) is the one place r may remain
    params = GfpParams(10, 4)
    with pytest.raises(ValueError):
        gfp_add(params, (25, 0, 0, 0), gfp_zero(params))
    with pytest.raises(ValueError):
        gfp_add(params, gfp_zero(params), (0, 0, 0, 21))
    minus_one = gfp_encode(params, params.p - 1)
    assert gfp_add(params, minus_one, minus_one) == gfp_encode(params, params.p - 2)


def _expect(ok, params, call, want):
    # call raises ValueError when ok is false, else returns want mod p
    if not ok:
        with pytest.raises(ValueError):
            call()
        return
    got = call()
    assert is_canonical(params, got)
    assert gfp_decode(params, got) == want % params.p


@pytest.mark.parametrize("r,k", [(2, 1), (3, 2), (4, 2), (2, 4), (3, 4)])
def test_public_entries_check_exactly_canonical(r, k):
    # every digit vector in [0, r+1]^k, one short and one long: each public
    # entry raises exactly when is_canonical is false, else computes mod p
    params = GfpParams(r, k)
    p, crt = params.p, crt_default()
    partners = {gfp_encode(params, n): n for n in (0, 1, p - 2, p - 1)}
    vectors = list(itertools.product(range(r + 2), repeat=k))
    vectors += [(0,) * (k - 1), (0,) * (k + 1)]
    # digits of any type but int, bool included, are not canonical
    vectors += [(0.5,) + (0,) * (k - 1), (True,) + (0,) * (k - 1)]
    for x in vectors:
        ok = is_canonical(params, x)
        # the value x stands for; unused when x raises
        a = sum(d * r ** i for i, d in enumerate(x)) if ok else 0
        if ok:
            assert gfp_decode(params, x) == a
        else:
            with pytest.raises(ValueError):
                gfp_decode(params, x)
        for i in range(2 * k + 1):
            _expect(ok, params, lambda: gfp_mul_pow_r(params, x, i),
                    a * r ** i)
            _expect(ok, params, lambda: gfp_mul_pow_r(params, list(x), i),
                    a * r ** i)
        for y, b in partners.items():
            _expect(ok, params, lambda: gfp_add(params, x, y), a + b)
            _expect(ok, params, lambda: gfp_add(params, y, x), a + b)
            _expect(ok, params, lambda: gfp_sub(params, x, y), a - b)
            _expect(ok, params, lambda: gfp_sub(params, y, x), b - a)
            _expect(ok, params, lambda: gfp_mul_bigint(params, x, y), a * b)
            _expect(ok, params, lambda: gfp_mul_bigint(params, y, x), a * b)
            _expect(ok, params, lambda: gfp_mul_fft(params, crt, x, y), a * b)
            _expect(ok, params, lambda: gfp_mul_fft(params, crt, y, x), a * b)
            _expect(ok, params, lambda: gfp_mul_fft(
                params, crt, x, FftOperand(params, crt, y)), a * b)
            _expect(ok, params, lambda: gfp_mul_fft(
                params, crt, y, FftOperand(params, crt, x)), a * b)


def test_mul_pow_r_rejects_digit_r_it_could_absorb():
    # a digit r below the top, or r on top over non-zero digits, can cancel
    # in the rotated subtraction; the check runs before it
    params = GfpParams(10, 4)
    with pytest.raises(ValueError):
        gfp_mul_pow_r(params, (1, 0, 0, 10), 1)
    with pytest.raises(ValueError):
        gfp_mul_pow_r(params, (10, 0, 0, 0), 3)


@pytest.mark.parametrize("k,r", ALL_CONFIGS)
def test_mul_pow_r_exhaustive_shift(k, r):
    params = GfpParams(r, k)
    rng = random.Random(SEED + k)
    p = params.p
    for a in interesting_values(params, rng, 50):
        x = gfp_encode(params, a)
        for i in range(2 * k + 1):
            got = gfp_mul_pow_r(params, x, i)
            assert is_canonical(params, got)
            assert gfp_decode(params, got) == a * pow(r, i, p) % p


def test_mul_pow_r_range_check():
    params = GfpParams(10, 4)
    x = gfp_encode(params, 1234)
    with pytest.raises(ValueError):
        gfp_mul_pow_r(params, x, -1)
    with pytest.raises(ValueError):
        gfp_mul_pow_r(params, x, 2 * 4 + 1)


@pytest.mark.parametrize("k,r", [(8, (1 << 59) + (1 << 16)), (4, 10)])
def test_mul_pow_r_composition(k, r):
    params = GfpParams(r, k)
    rng = random.Random(SEED)
    for _ in range(200):
        x = gfp_encode(params, rng.randrange(params.p))
        i, j = rng.randrange(2 * k + 1), rng.randrange(2 * k + 1)
        once = gfp_mul_pow_r(params, gfp_mul_pow_r(params, x, i), j)
        assert once == gfp_mul_pow_r(params, x, (i + j) % (2 * k))


def test_primitive_root_contract():
    params = GfpParams((1 << 59) + (1 << 16), 8)
    N = 1 << 10
    g = gfp_find_nth_root(params, N)
    omega = gfp_primitive_root(params, N, g)
    w, p = gfp_decode(params, omega), params.p
    assert pow(w, N // (2 * params.k), p) == params.r
    assert pow(w, N, p) == 1
    assert pow(w, N // 2, p) == p - 1


def test_primitive_root_n_equals_2k():
    # omega^(N/2k) = omega forces omega = r itself
    params = GfpParams((1 << 59) + (1 << 16), 8)
    N = 2 * params.k
    g = gfp_find_nth_root(params, N)
    assert gfp_primitive_root(params, N, g) == gfp_encode(params, params.r)


def test_primitive_root_rejects():
    params = GfpParams((1 << 59) + (1 << 16), 8)
    with pytest.raises(ValueError):
        gfp_primitive_root(params, 32, gfp_one(params))  # order 1, never hits r
    with pytest.raises(ValueError):
        gfp_primitive_root(params, 8, gfp_one(params))   # 8 is not a multiple of 2k


def test_find_nth_root_trivial_orders():
    params = GfpParams((1 << 59) + (1 << 16), 8)
    assert gfp_find_nth_root(params, 1) == gfp_one(params)
    assert gfp_find_nth_root(params, 2) == gfp_encode(params, params.p - 1)


def test_find_nth_root_order_checks():
    params = GfpParams((1 << 63) + (1 << 34), 8)
    g = gfp_find_nth_root(params, 16, seed=3)
    w, p = gfp_decode(params, g), params.p
    assert pow(w, 16, p) == 1
    assert pow(w, 8, p) == p - 1
    assert g == gfp_find_nth_root(params, 16, seed=3)
    assert g == (0, 0, 0, 0, 0, 1, 0, 0)  # r^5 for this seed


def test_find_nth_root_composite_modulus():
    # p = 8^2 + 1 = 65 is composite: no candidate passes the order check,
    # so the bounded search raises instead of looping
    with pytest.raises(ValueError):
        gfp_find_nth_root(GfpParams(8, 2), 4)
