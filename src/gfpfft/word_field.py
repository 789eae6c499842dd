"""Word-size prime fields and their Montgomery arithmetic.

A WordPrime carries the constants of Montgomery reduction with R = 2^64,
masking plain Python ints where a 64-bit machine would wrap.  The
convolutions run on plain residues; Montgomery form is kept as a tested
word layer.  find_nth_root is the one root search of the library: it
works on plain ints for any modulus, and gfp_find_nth_root and
word_primitive_root only encode its result.  WordPrime instances are
immutable and safe to share; all operations are pure functions.
"""

import random
from dataclasses import dataclass

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


@dataclass(frozen=True)
class WordPrime:
    """An odd prime q < 2^63 with its Montgomery constants (R = 2^64)."""

    q: int
    q_neg_inv: int  # -q^{-1} mod 2^64
    r2: int         # 2^128 mod q
    one_mont: int   # 2^64 mod q

    @classmethod
    def make(cls, q):
        if q < 3 or q % 2 == 0:
            raise ValueError("q must be an odd prime")
        if q >= 1 << 63:
            raise ValueError("q must be below 2^63")
        if not _is_word_prime(q):
            raise ValueError("q = %d is composite" % q)
        q_neg_inv = (-pow(q, -1, 1 << 64)) & MASK64
        if (q * q_neg_inv) & MASK64 != MASK64:
            raise ArithmeticError("Bezout check failed: q * q' != -1 mod 2^64")
        return cls(q, q_neg_inv, (1 << 128) % q, (1 << 64) % q)


_word_prime_cache = {}


def word_prime(q):
    """Shared WordPrime instance for q."""
    ctx = _word_prime_cache.get(q)
    if ctx is None:
        ctx = _word_prime_cache[q] = WordPrime.make(q)
    return ctx


def mont_mul(ctx, a, b):
    """REDC product: a * b * 2^{-64} mod q, inputs and output in [0, q)."""
    c = a * b
    d = ((c & MASK64) * ctx.q_neg_inv) & MASK64
    c = (c + ctx.q * d) >> 64
    if c >= ctx.q:
        c -= ctx.q
    return c


def mont_convert_in(ctx, a):
    if not 0 <= a < ctx.q:
        raise ValueError("input must be reduced")
    return mont_mul(ctx, a, ctx.r2)


def mont_convert_out(ctx, a):
    return mont_mul(ctx, a, 1)


def word_pow(ctx, a, e):
    """a^e in Montgomery form, square and multiply."""
    if e < 0:
        raise ValueError("exponent must be non-negative")
    acc = ctx.one_mont
    base = a
    while e:
        if e & 1:
            acc = mont_mul(ctx, base, acc)
        base = mont_mul(ctx, base, base)
        e >>= 1
    return acc


def mont_inv(ctx, a):
    """Inverse by Fermat exponentiation with q - 2."""
    if a == 0:
        raise ZeroDivisionError("zero has no inverse")
    return word_pow(ctx, a, ctx.q - 2)


def find_nth_root(m, n, seed=0):
    """A primitive n-th root of unity mod m as a plain int, seeded.

    n must be a power of two dividing m - 1.  Candidates c are drawn from
    a seeded RNG, raised to (m-1)/n, and accepted once g^(n/2) = m - 1,
    so the result is deterministic per seed.  For a prime m about half
    the draws succeed; ValueError after ROOT_SEARCH_DRAWS failures, as for
    a composite m.
    """
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
