"""Word-size prime fields and their Montgomery arithmetic.

A WordPrime carries the constants of Montgomery reduction with R = 2^64,
masking plain Python ints where a 64-bit machine would wrap.  The
convolutions run on plain residues; Montgomery form is kept as a tested
word layer.  find_nth_root is the one root search of the library: it
works on plain ints for any modulus, and gfp_find_nth_root and
word_primitive_root only encode its result.  A WordPrime is an immutable
namedtuple record, safe to share; all operations are pure functions.
"""

import random
from collections import namedtuple
from functools import lru_cache

MASK64 = (1 << 64) - 1

# Convolution primes.  Each has a large power of two dividing q-1 (2^57,
# 2^55 and 2^56), which is what the negacyclic transforms need.  P1 and P2
# are the default pair; P3 = 27*2^56 + 1 is the third prime a multiplier
# adds when k*r^2 outgrows the pair's signed range (P1*P2*P3 ~ 2^183.7).
P1 = 4179340454199820289
P2 = 2485986994308513793
P3 = 1945555039024054273


# Miller-Rabin with these bases is exact for every n < 3.3 * 10^24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# root searches give up after this many candidates; for a prime modulus
# each draw succeeds with probability 1/2
ROOT_SEARCH_DRAWS = 64


def _is_word_prime(n):
    """Deterministic primality of an odd n < 2^63."""
    if n in _MR_BASES:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class WordPrime(namedtuple("WordPrime", "q q_neg_inv r2 one_mont")):
    """An odd prime q < 2^63 with its Montgomery constants (R = 2^64):
    q_neg_inv = -q^{-1} mod 2^64, r2 = 2^128 mod q, one_mont = 2^64 mod q."""

    __slots__ = ()

    @classmethod
    def make(cls, q):
        if type(q) is not int or q < 3 or q % 2 == 0:
            raise ValueError("q must be an odd prime")
        if q >= 1 << 63:
            raise ValueError("q must be below 2^63")
        if not _is_word_prime(q):
            raise ValueError("q = %d is composite" % q)
        q_neg_inv = (-pow(q, -1, 1 << 64)) & MASK64
        if (q * q_neg_inv) & MASK64 != MASK64:
            raise ArithmeticError("Bezout check failed: q * q' != -1 mod 2^64")
        return cls(q, q_neg_inv, (1 << 128) % q, (1 << 64) % q)


@lru_cache(maxsize=64, typed=True)  # bounded; typed, so 97.0 reaches make
def word_prime(q):
    """Shared WordPrime instance for q."""
    return WordPrime.make(q)


def mont_mul(ctx, a, b):
    """REDC product: a * b * 2^{-64} mod q, inputs and output in [0, q)."""
    c = a * b
    d = ((c & MASK64) * ctx.q_neg_inv) & MASK64
    c = (c + ctx.q * d) >> 64
    if c >= ctx.q:
        c -= ctx.q
    return c


def mont_convert_in(ctx, a):
    if type(a) is not int or not 0 <= a < ctx.q:
        raise ValueError("a must be a reduced int")
    return mont_mul(ctx, a, ctx.r2)


def mont_convert_out(ctx, a):
    return mont_mul(ctx, a, 1)


def mont_inv(ctx, a):
    """Inverse of a Montgomery residue, by native pow on its plain value."""
    n = mont_convert_out(ctx, a)
    if n == 0:
        raise ZeroDivisionError("zero has no inverse")
    return mont_convert_in(ctx, pow(n, -1, ctx.q))


def find_nth_root(m, n, seed=0):
    """A primitive n-th root of unity mod m as a plain int, seeded.

    n must be a power of two dividing m - 1.  Candidates c are drawn from
    a seeded RNG, raised to (m-1)/n, and accepted once g^(n/2) = m - 1,
    so the result is deterministic per seed.  For a prime m about half
    the draws succeed; ValueError after ROOT_SEARCH_DRAWS failures, as for
    a composite m, and for an m or n that is not an int, bool included.
    """
    if type(m) is not int or type(n) is not int:
        raise ValueError("m and n must be ints")
    if n < 1 or n & (n - 1):
        raise ValueError("n must be a power of two")
    if (m - 1) % n:
        raise ValueError("n does not divide m - 1")
    if n == 1:
        return 1
    rng = random.Random(seed)
    e = (m - 1) // n
    for _ in range(ROOT_SEARCH_DRAWS):
        g = pow(rng.randrange(1, m), e, m)
        if pow(g, n // 2, m) == m - 1:
            return g
    raise ValueError("no primitive %d-th root found mod %d" % (n, m))


def word_primitive_root(ctx, n, seed=0):
    """find_nth_root(q, n, seed) in Montgomery form."""
    return mont_convert_in(ctx, find_nth_root(ctx.q, n, seed))
