"""Radix-digit field arithmetic checked against integer reduction mod p."""

import ast
import itertools
import random

import pytest

from gfpfft import gfp_field, gfp_mult
from gfpfft.gfp_field import (
    MAX_K, STRAIGHT_LINE_K, ConfigurationError, GfpParams, gfp_add,
    gfp_decode, gfp_encode, gfp_find_nth_root, gfp_mul_pow_r,
    gfp_primitive_root, gfp_sub, is_canonical, radix_codec, settle,
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


@pytest.mark.parametrize("r,k", [(2.5, 4), (10.0, 4), (3, True), (True, 1),
                                 (10, 4.0), ("10", 4), (10, None)])
def test_params_reject_non_int(r, k):
    # a float radix made p a float and the digits floats; True passed the
    # power-of-two check as k = 1
    with pytest.raises(ValueError, match="ints"):
        GfpParams(r, k)


def test_params_max_k():
    # the limit is checked before r^k is built, so these allocate nothing
    assert gfp_mult.ConfigurationError is ConfigurationError
    assert issubclass(ConfigurationError, ValueError)
    for k in (2 * MAX_K, 1 << 40):
        with pytest.raises(ConfigurationError, match="MAX_K"):
            GfpParams(2, k)
    assert GfpParams(2, MAX_K).p == 2 ** MAX_K + 1


@pytest.mark.parametrize("r,k", [(10, 3), (10, 0), (1, 8), (1 << 64, 8),
                                 (2, 2 * MAX_K), (8.0, 1 << 62), (5, True),
                                 (True, 1), (10, 4.0)])
def test_check_field_is_the_params_rule(r, k):
    # GfpParams and the GFPV header state the field rule once, in check_field
    with pytest.raises(ValueError) as want:
        GfpParams(r, k)
    with pytest.raises(ValueError) as got:
        gfp_field.check_field(r, k)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert gfp_field.check_field(2, MAX_K) is None


def test_zero_one_shapes():
    params = GfpParams(10, 4)
    assert gfp_encode(params, 1) == (1, 0, 0, 0)
    assert gfp_decode(params, (0,) * 4) == 0
    assert gfp_decode(params, (1, 0, 0, 0)) == 1


@pytest.mark.parametrize("k,r", ALL_CONFIGS)
def test_encode_decode_bijection(k, r):
    params = GfpParams(r, k)
    rng = random.Random(SEED ^ k)
    for n in interesting_values(params, rng, 500):
        x = gfp_encode(params, n)
        assert is_canonical(params, x)
        assert gfp_decode(params, x) == n
    # wrapping and negatives reduce mod p first
    assert gfp_encode(params, params.p) == (0,) * k
    assert gfp_encode(params, -1) == (0,) * (k - 1) + (r,)
    assert gfp_encode(params, params.p - 1) == (0,) * (k - 1) + (r,)


@pytest.mark.parametrize("n", [2.5, True, "3", None, 3.0])
def test_encode_rejects_non_int(n):
    # a float would come back as float digits, a non-canonical element
    with pytest.raises(ValueError, match="int"):
        gfp_encode(GfpParams(10, 4), n)


def test_is_canonical_rejects():
    params = GfpParams(10, 4)
    assert not is_canonical(params, (0, 0, 0))          # wrong length
    assert not is_canonical(params, (10, 0, 0, 0))      # r in low digit
    assert not is_canonical(params, (0, 0, 0, 11))      # above r
    assert not is_canonical(params, (1, 0, 0, 10))      # form B with junk
    assert not is_canonical(params, (-1, 0, 0, 0))
    assert not is_canonical(params, 5)                  # no len: False,
    assert not is_canonical(params, None)               # not TypeError
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


def _check_settle(params, vectors):
    # settle(u) is sum(u[i] * r^i) mod p as a canonical element; returns
    # how many vectors carried out of the top digit, and how many of those
    # still carried after the wrap: floor divmods carry floor(U / r^k) out
    # of the top, and U mod r^k minus that carry, outside [0, r^k), leaves
    # a carry for the final encode
    r, k, p = params.r, params.k, params.p
    rk = r ** k
    wrapped = encoded = 0
    for u in vectors:
        big = sum(d * r ** i for i, d in enumerate(u))
        got = settle(params, u)
        assert type(got) is tuple and is_canonical(params, got)
        assert gfp_decode(params, got) == big % p
        carry = big // rk
        wrapped += carry != 0
        encoded += not 0 <= big % rk - carry < rk
    return wrapped, encoded


@pytest.mark.parametrize("r,k", [(r, k) for r in (2, 3, 4) for k in (1, 2, 4)])
def test_settle_exhaustive_signed(r, k):
    # every signed vector in [-2r, 2r]^k: digit-wise sums and differences
    # of elements, and more
    params = GfpParams(r, k)
    vectors = itertools.product(range(-2 * r, 2 * r + 1), repeat=k)
    wrapped, encoded = _check_settle(params, vectors)
    assert wrapped and encoded


@pytest.mark.parametrize("k,r", TABLE_CONFIGS + SMALL_CONFIGS + [
    (64, 284903849103190610), (128, (1 << 32) - 5)])
def test_settle_seeded_product_range(k, r):
    # convolution coefficients reach k*r^2 in magnitude
    params = GfpParams(r, k)
    rng = random.Random(SEED ^ (k * r))
    big = k * r * r
    vectors = [[rng.randrange(-big, big + 1) for _ in range(k)]
               for _ in range(200)]
    vectors += [[big] * k, [-big] * k, [0] * (k - 1) + [big],
                [0] * (k - 1) + [-big], [-1] + [0] * (k - 1)]
    wrapped, encoded = _check_settle(params, vectors)
    assert wrapped and encoded


def test_sub_rejects_noncanonical_digit():
    # a digit above r on either side, or r anywhere but the top digit over
    # zeros, is refused before the difference settles
    params = GfpParams(10, 4)
    with pytest.raises(ValueError):
        gfp_sub(params, (0,) * 4, (15, 0, 0, 0))
    with pytest.raises(ValueError):
        gfp_sub(params, (25, 0, 0, 0), (0,) * 4)
    with pytest.raises(ValueError):
        gfp_sub(params, (5, 0, 0, 10), (0,) * 4)
    minus_one = gfp_encode(params, params.p - 1)
    assert gfp_sub(params, minus_one, (0,) * 4) == minus_one


def test_add_rejects_noncanonical_digit():
    # a digit above r = 10 on either side is refused before the sum
    # settles; (p-1) + (p-1) carries r + r out of the top digit
    params = GfpParams(10, 4)
    with pytest.raises(ValueError):
        gfp_add(params, (25, 0, 0, 0), (0,) * 4)
    with pytest.raises(ValueError):
        gfp_add(params, (0,) * 4, (0, 0, 0, 21))
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


@pytest.mark.parametrize("x", [
    b"\x01\x02", bytearray(b"\x01\x02"), memoryview(b"\x01\x02"),
    range(1, 3), {1: 0, 2: 0}, {1, 2}, "12",
], ids=["bytes", "bytearray", "memoryview", "range", "dict", "set", "str"])
def test_public_entries_take_only_tuples_and_lists(x):
    # each of these has k = 2 items, and most of them iterate as two small
    # ints, yet only a tuple or a list is an element
    params = GfpParams(10, 2)
    y = gfp_encode(params, 21)
    assert not is_canonical(params, x)
    for call in (lambda: gfp_decode(params, x),
                 lambda: gfp_add(params, x, y), lambda: gfp_add(params, y, x),
                 lambda: gfp_mul_fft(params, crt_default(), x, y),
                 lambda: gfp_mul_fft(params, crt_default(), y, x)):
        with pytest.raises(ValueError):
            call()
    assert is_canonical(params, [1, 2])
    assert is_canonical(params, FftOperand(params, crt_default(), (1, 2)))


@pytest.mark.parametrize("r,k", [(2, 1), (3, 2), (4, 2), (2, 4), (3, 4)])
def test_public_entries_check_exactly_canonical(r, k):
    # every digit vector in [0, r+1]^k, one short and one long: each public
    # entry raises exactly when is_canonical is false, else computes mod p
    params = GfpParams(r, k)
    p, crt = params.p, crt_default()
    partners = {gfp_encode(params, n): n for n in (0, 1, p - 2, p - 1)}
    vectors = list(itertools.product(range(r + 2), repeat=k))
    vectors += [(0,) * (k - 1), (0,) * (k + 1)]
    # digits of any type but int, bool included, are not canonical, and
    # neither is a value that is not a sequence
    vectors += [(0.5,) + (0,) * (k - 1), (True,) + (0,) * (k - 1), 5, None]
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
            if isinstance(x, tuple):
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


@pytest.mark.parametrize("i", [1.0, True, "1", None])
def test_mul_pow_r_takes_only_int_exponents(i):
    # a float would reach pow and a bool would count as 0 or 1
    params = GfpParams(10, 4)
    with pytest.raises(ValueError, match="int"):
        gfp_mul_pow_r(params, gfp_encode(params, 1234), i)


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
        gfp_primitive_root(params, 32, gfp_encode(params, 1))  # order 1, never hits r
    with pytest.raises(ValueError):
        gfp_primitive_root(params, 8, gfp_encode(params, 1))   # 8 is not a multiple of 2k


def test_find_nth_root_trivial_orders():
    params = GfpParams((1 << 59) + (1 << 16), 8)
    assert gfp_find_nth_root(params, 1) == gfp_encode(params, 1)
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


# the one carry and the ring rotation, through the public entries

NORMALIZE_FIELDS = [(r, k) for k in (1, 2) for r in range(2, 7)] + [(2, 4), (3, 4)]


@pytest.mark.parametrize("r,k", NORMALIZE_FIELDS)
def test_normalize_exhaustive(r, k):
    # gfp_encode maps [0, p) onto exactly the canonical vectors in
    # [0, r]^k, and every int in [-4p, 4p] to the image of its residue
    params = GfpParams(r, k)
    p = params.p
    images = [gfp_encode(params, n) for n in range(p)]
    canonical = [x for x in itertools.product(range(r + 1), repeat=k)
                 if is_canonical(params, x)]
    assert sorted(images) == canonical
    for n in range(-4 * p, 4 * p + 1):
        assert gfp_encode(params, n) == images[n % p]


@pytest.mark.parametrize("r", [4, 5, 6])
def test_normalize_edge_digits_k4(r):
    # k = 4 with r > 3 has too many vectors in [-1, r+1]^4 to cover
    # every one; take the digits next to the carry thresholds: each
    # rotation raises exactly for a non-canonical vector, else it is the
    # canonical element of the product
    params = GfpParams(r, 4)
    edges = (-1, 0, 1, r - 1, r, r + 1)
    for x in itertools.product(edges, repeat=4):
        ok = is_canonical(params, x)
        a = sum(d * r ** i for i, d in enumerate(x)) if ok else 0
        for i in range(2 * 4 + 1):
            _expect(ok, params, lambda: gfp_mul_pow_r(params, x, i),
                    a * r ** i)


def _rotation(x, t, k):
    # x * r^t in Z[r]/(r^k + 1) with no carry: digits pushed past
    # r^k = -1 come back negated at the bottom, past r^2k = 1 positive
    if t >= k:
        return [-d for d in _rotation(x, t - k, k)]
    return [-d for d in x[k - t:]] + list(x[:k - t])


@pytest.mark.parametrize("k,r", ALL_CONFIGS)
def test_shift_digits_is_the_ring_rotation(k, r):
    # gfp_mul_pow_r is the canonical element of the signed digit rotation
    params = GfpParams(r, k)
    rng = random.Random(SEED ^ k)
    for a in interesting_values(params, rng, 20):
        x = gfp_encode(params, a)
        for t in range(2 * k + 1):
            v = _rotation(x, t, k)
            assert sorted(map(abs, v)) == sorted(x)
            want = sum(d * r ** i for i, d in enumerate(v))
            assert gfp_mul_pow_r(params, x, t) == gfp_encode(params, want)


# the compiled radix codec against plain loop forms kept here

def loop_encode(r, k, n):
    # k sequential divmods by r; p - 1 = r^k is form B
    p = r ** k + 1
    n %= p
    if n == p - 1:
        return (0,) * (k - 1) + (r,)
    digits = []
    for _ in range(k):
        n, d = divmod(n, r)
        digits.append(d)
    return tuple(digits)


def loop_value(r, x):
    # Horner's rule from the top digit
    acc = 0
    for d in reversed(x):
        acc = acc * r + d
    return acc


def _check_codec(r, k, values):
    codec = radix_codec(r, k)
    p = r ** k + 1
    for n in values:
        x = codec.encode(n)
        assert type(x) is tuple and x == loop_encode(r, k, n)
        assert codec.value(x) == codec.decode(x) == loop_value(r, x) == n % p
        assert codec.decode(list(x)) == n % p


CODEC_SMALL_FIELDS = [(r, k) for k in (1, 2, 4) for r in range(2, 7)]


@pytest.mark.parametrize("r,k", CODEC_SMALL_FIELDS)
def test_codec_exhaustive_small_fields(r, k):
    p = r ** k + 1
    _check_codec(r, k, range(-4 * p, 4 * p + 1))


@pytest.mark.parametrize("k", [8, 64, 128])
def test_codec_seeded(k):
    # k = 128 runs the loop form of the same split
    assert (k > STRAIGHT_LINE_K) == (k == 128)
    rng = random.Random(SEED ^ k)
    for r in (2, 3, (1 << 59) + (1 << 16), 284903849103190610, (1 << 64) - 1):
        p = r ** k + 1
        values = [0, 1, r, p - 2, p - 1, p, -1, -p, 7 * p + 5, -(p << 70)]
        values += [rng.randrange(p) for _ in range(40)]
        values += [rng.randrange(-p << 40, p << 40) for _ in range(10)]
        _check_codec(r, k, values)


def _reference_is_element(params, x):
    # the element rule written out plainly, apart from the codec: a tuple
    # or a list (or a subclass) of k digits of type int, in form A or B
    r, k = params.r, params.k
    if not isinstance(x, (tuple, list)) or len(x) != k:
        return False
    if any(type(d) is not int for d in x):
        return False
    if all(0 <= d < r for d in x):
        return True
    return x[k - 1] == r and all(d == 0 for d in x[:k - 1])


def _check_element_rule(params, vectors):
    # is_element, is_canonical and decode all follow the reference rule
    codec = radix_codec(params.r, params.k)
    for x in vectors:
        want = _reference_is_element(params, x)
        assert codec.is_element(x) is want
        assert is_canonical(params, x) is want
        if want:
            assert codec.decode(x) == loop_value(params.r, x)
        else:
            with pytest.raises(ValueError, match="non-canonical"):
                codec.decode(x)


def _odd_vectors(params):
    # short and long vectors, bool and float digits, a list and an
    # FftOperand of form A and form B, and values that are no sequence
    r, k = params.r, params.k
    form_b = (0,) * (k - 1) + (r,)
    one = (1,) + (0,) * (k - 1)
    return [(0,) * (k - 1), (0,) * (k + 1), (1,) * (k + 1), (),
            (True,) + (0,) * (k - 1), (0,) * (k - 1) + (False,),
            (1.0,) + (0,) * (k - 1), (0,) * (k - 1) + (float(r),),
            list(form_b), list(one), [r] + [0] * (k - 1),
            FftOperand(params, crt_default(), one),
            FftOperand(params, crt_default(), form_b),
            form_b, (-1,) + (0,) * (k - 1), (0,) * (k - 1) + (r + 1,),
            5, None, range(k), {i: 0 for i in range(k)}, "0" * k]


@pytest.mark.parametrize("r,k", [(2, 1), (3, 2), (4, 2), (2, 4), (3, 4)])
def test_codec_decode_checks_exactly_canonical(r, k):
    params = GfpParams(r, k)
    vectors = list(itertools.product(range(r + 2), repeat=k))
    vectors += [list(x) for x in vectors]
    _check_element_rule(params, vectors + _odd_vectors(params))


@pytest.mark.parametrize("k", [8, 128])
def test_codec_decode_checks_exactly_canonical_wide(k):
    # one bad digit at each position, at both ends of the range
    params = GfpParams(10, k)
    rng = random.Random(SEED ^ k)
    good = [rng.randrange(10) for _ in range(k)]
    vectors = [tuple(good)]
    for i in range(k):
        for bad in (-1, 10, 11, True, 0.0):
            x = list(good)
            x[i] = bad
            vectors += [x, tuple(x)]
    _check_element_rule(params, vectors + _odd_vectors(params))


def test_codec_is_cached_per_field():
    assert radix_codec(10, 4) is radix_codec(10, 4)
    assert radix_codec(10, 4) is not radix_codec(10, 8)
    with pytest.raises(ValueError):
        radix_codec(10, 3)
    with pytest.raises(ValueError, match="int"):
        radix_codec(10, 4).encode(2.5)


@pytest.mark.parametrize("k", [1 << i for i in range(7)])
def test_codec_is_straight_line(k):
    # up to k = 64 the codec is compiled with no loop: k - 1 divmods by
    # inlined powers of r, and no call but isinstance, type, len and
    # divmod; decode runs the element test inline, with no fallback
    assert k <= STRAIGHT_LINE_K
    codec = radix_codec(5, k)
    tree = ast.parse(codec.encode.source)
    assert {fn.source for fn in codec} == {codec.encode.source}
    assert not [n for n in ast.walk(tree)
                if isinstance(n, (ast.For, ast.While, ast.comprehension))]
    calls = [n.func.id for n in ast.walk(tree) if isinstance(n, ast.Call)]
    assert calls.count("divmod") == k - 1
    assert set(calls) <= {"isinstance", "type", "len", "divmod", "ValueError"}
    assert radix_codec.cache_info().maxsize is not None
    assert not hasattr(radix_codec(5, 2 * STRAIGHT_LINE_K).encode, "source")
