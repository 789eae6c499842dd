"""Word-level primitives checked against plain integer arithmetic."""

import random
from math import gcd

import pytest

from gfpfft.gfp_mult import CrtParams
from gfpfft.oracle import oracle_is_probable_prime
from gfpfft.word_field import (
    MASK64, P1, P2, P3, WordPrime, find_nth_root, mont_convert_in,
    mont_convert_out, mont_inv, mont_mul, word_prime, word_primitive_root,
)

SEED = 0x77F0


def test_third_prime_pinned():
    # the prime a multiplier adds when k*r^2 outgrows (P1*P2 - 1)/2
    assert P3 == 27 * (1 << 56) + 1
    assert oracle_is_probable_prime(P3, 40)
    assert P3 < 1 << 63
    assert (P3 - 1) % (1 << 56) == 0
    assert gcd(P3, P1) == 1 and gcd(P3, P2) == 1
    assert P1 * P2 * P3 > 2 * (1 << 52) * ((1 << 64) - 1) ** 2


@pytest.mark.parametrize("q", [P1, P2, P3])
def test_mont_constants(q):
    ctx = word_prime(q)
    assert ctx.r2 == (1 << 128) % q
    assert ctx.one_mont == (1 << 64) % q
    assert (ctx.q * ctx.q_neg_inv) & MASK64 == MASK64


def test_word_prime_shares_instances():
    assert word_prime(P1) is word_prime(P1)


def test_word_prime_rejects():
    with pytest.raises(ValueError):
        WordPrime.make(10)
    with pytest.raises(ValueError):
        WordPrime.make(1)
    with pytest.raises(ValueError):
        WordPrime.make((1 << 63) + 9)
    with pytest.raises(ValueError):
        word_prime(65)


@pytest.mark.parametrize("call,message", [
    (lambda: word_prime(97.0), "q must"),
    (lambda: find_nth_root(97.0, 4), "m and n"),
    (lambda: find_nth_root(97, 4.0), "m and n"),
    (lambda: find_nth_root(97, True), "m and n"),
    (lambda: CrtParams.make(97.0, 193), "primes must be ints"),
    (lambda: mont_convert_in(word_prime(97), 5.0), "a must"),
    (lambda: mont_convert_in(word_prime(97), True), "a must"),
    (lambda: word_primitive_root(word_prime(97), True), "m and n"),
], ids=["word_prime-float", "root-float-m", "root-float-n", "root-bool-n",
        "crt-float", "convert-float", "convert-bool", "primitive-root-bool"])
def test_word_entry_points_reject_non_ints(call, message):
    # a float raised TypeError inside pow or &, and a bool passed as 1;
    # word_prime(97) is cached first, since 97.0 hashed onto its entry
    word_prime(97)
    with pytest.raises(ValueError, match=message):
        call()


def test_word_prime_primality_matches_oracle():
    # every odd q below 2^14, then composites that fool weaker tests: the
    # Carmichael number 561, strong pseudoprimes 2047 (base 2), 3215031751
    # (bases 2..7) and 3825123056546413051 (bases 2..23), and 2*P1 + 1
    for q in range(3, 1 << 14, 2):
        try:
            WordPrime.make(q)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == oracle_is_probable_prime(q, 40), q
    for n in (561, 2047, 3215031751, 3825123056546413051, P1 * 2 + 1):
        assert not oracle_is_probable_prime(n, 40)
        with pytest.raises(ValueError):
            WordPrime.make(n)


@pytest.mark.parametrize("q", [P1, P2, 257, 97])
def test_mont_mul_matches_integers(q):
    ctx = word_prime(q)
    rng = random.Random(SEED ^ q)
    for _ in range(5000):
        a, b = rng.randrange(q), rng.randrange(q)
        am, bm = mont_convert_in(ctx, a), mont_convert_in(ctx, b)
        assert mont_convert_out(ctx, mont_mul(ctx, am, bm)) == a * b % q


def test_mont_convert_roundtrip():
    ctx = word_prime(P1)
    rng = random.Random(SEED)
    for _ in range(2000):
        a = rng.randrange(P1)
        assert mont_convert_out(ctx, mont_convert_in(ctx, a)) == a
    with pytest.raises(ValueError):
        mont_convert_in(ctx, P1)
    with pytest.raises(ValueError):
        mont_convert_in(ctx, -1)


def test_mont_inv():
    ctx = word_prime(P1)
    rng = random.Random(SEED)
    for _ in range(2000):
        am = mont_convert_in(ctx, rng.randrange(1, P1))
        assert mont_mul(ctx, am, mont_inv(ctx, am)) == ctx.one_mont
    for zero in (0, P1):
        with pytest.raises(ZeroDivisionError):
            mont_inv(ctx, zero)


@pytest.mark.parametrize("q,n", [(P1, 1 << 10), (P2, 1 << 8), (P1, 2)])
def test_word_primitive_root_order(q, n):
    ctx = word_prime(q)
    g = mont_convert_out(ctx, word_primitive_root(ctx, n))
    assert pow(g, n, q) == 1
    assert pow(g, n // 2, q) == q - 1


def test_word_primitive_root_deterministic():
    ctx = word_prime(P1)
    a = word_primitive_root(ctx, 64, seed=9)
    b = word_primitive_root(ctx, 64, seed=9)
    assert a == b == 1255185265220861680  # plans depend on these draws
    assert word_primitive_root(word_prime(P2), 1024) == 2109783012412988792


def test_word_primitive_root_rejects():
    ctx = word_prime(P1)
    assert word_primitive_root(ctx, 1) == ctx.one_mont
    with pytest.raises(ValueError):
        word_primitive_root(ctx, 24)
    with pytest.raises(ValueError):
        word_primitive_root(ctx, 1 << 58)  # exceeds the 2-adic part of q-1


def test_word_primitive_root_composite_modulus():
    # 65 = 5 * 13 has no element of order 4 with square -1; the search
    # must end in ValueError, not loop
    with pytest.raises(ValueError):
        word_primitive_root(word_prime(65), 4)
