"""Brute-force reference implementations used as test authorities.

Everything here is deliberately schoolbook so a bug cannot be shared with
the optimized paths.  Python's built-in integers supply exact arbitrary
precision arithmetic.  Never used on a performance path.
"""

import random


def oracle_mod_mul(p, x, y):
    """x * y mod p on arbitrary-precision integers."""
    if not (0 <= x < p and 0 <= y < p):
        raise ValueError("operands must be reduced mod p")
    return (x * y) % p


def oracle_naive_dft(v, omega, p):
    """O(n^2) DFT over Z/pZ: out[i] = sum_j v[j] * omega^(i*j).

    Operates on plain integers.  Callers working with other element
    representations convert at the boundary.
    """
    n = len(v)
    pows = [1] * n
    for t in range(1, n):
        pows[t] = pows[t - 1] * omega % p
    out = []
    for i in range(n):
        acc = 0
        for j in range(n):
            acc += v[j] * pows[(i * j) % n]
        out.append(acc % p)
    return out


def oracle_negacyclic(x, y, ctx):
    """Schoolbook product of two polynomials mod (R^k + 1), coefficients mod q.

    The double loop folds every degree >= k term back with a sign flip,
    mirroring the f_u expansion term by term; each output is reduced once,
    after its last term.
    """
    q = ctx.q
    k = len(x)
    if len(y) != k:
        raise ValueError("length mismatch")
    out = [0] * k
    for i in range(k):
        xi = x[i]
        for j in range(k):
            m = i + j
            if m < k:
                out[m] += xi * y[j]
            else:
                out[m - k] -= xi * y[j]
    return [c % q for c in out]


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def oracle_is_probable_prime(n, rounds=16):
    """Miller-Rabin with deterministically seeded witnesses."""
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n == sp:
            return True
        if n % sp == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    rng = random.Random(0x5EED ^ n % (1 << 30))
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
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
