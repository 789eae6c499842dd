"""Radix-r arithmetic for fields GF(p) with p = r^k + 1, k a power of two.

An element is a tuple of k unsigned word digits, little-endian: digits[i] is
the coefficient of r^i.  Two canonical shapes exist:

  form A: every digit in [0, r), covering the values 0 .. p-2;
  form B: top digit equal to r, all others zero, the unique encoding of p-1.

Addition, subtraction, and multiplication by powers of r run in O(k) digit
operations with conditional-subtract carries.  No operation divides.

is_canonical defines a valid element.  Every public operation checks each
operand with it once and raises ValueError; the digit loops underneath,
add_digits, sub_digits and rotate_digits, trust their input.

GfpParams is immutable and shareable; all operations are pure and return
fresh tuples.
"""

from dataclasses import dataclass

from .word_field import find_nth_root

# the largest k GfpParams accepts: it builds p = r^k + 1 up front, and a
# 64-bit radix at k = 2^16 already makes p 4 million bits long
MAX_K = 1 << 16


class ConfigurationError(ValueError):
    """Raised when a field or a (field, prime set) pair cannot be used."""


@dataclass(frozen=True)
class GfpParams:
    """Field parameters (r, k).  p = r^k + 1 is implied.

    Digit arithmetic is well defined for any such p; field semantics such
    as inverses and roots of unity need p prime (the oracle module can
    check).  k above MAX_K raises ConfigurationError before p is computed.
    """

    r: int
    k: int

    def __post_init__(self):
        if self.k < 1 or self.k & (self.k - 1):
            raise ValueError("k must be a power of two")
        if self.k > MAX_K:
            raise ConfigurationError("k = %d exceeds MAX_K = %d"
                                     % (self.k, MAX_K))
        if not 2 <= self.r < (1 << 64):
            raise ValueError("r must fit in a 64-bit word and be at least 2")
        object.__setattr__(self, "p", self.r ** self.k + 1)


def gfp_zero(params):
    return (0,) * params.k


def gfp_one(params):
    return (1,) + (0,) * (params.k - 1)


def is_canonical(params, x):
    """True iff x is k digits of type int in form A or form B."""
    if len(x) != params.k or not {int}.issuperset(map(type, x)):
        return False
    r = params.r
    if min(x) >= 0 and max(x) < r:
        return True
    return x[-1] == r and not any(x[:-1])


def check_canonical(params, x):
    """Raise ValueError unless x is a canonical element."""
    if not is_canonical(params, x):
        raise ValueError("non-canonical element")


def gfp_decode(params, x):
    """The integer value sum(digits[i] * r^i); raises on non-canonical input."""
    check_canonical(params, x)
    return digits_value(params, x)


def digits_value(params, x):
    """gfp_decode without the canonical check, for trusted elements."""
    acc = 0
    for d in reversed(x):
        acc = acc * params.r + d
    return acc


def gfp_encode(params, n):
    """Canonical element congruent to n mod p.  n may be negative or huge."""
    r, k = params.r, params.k
    n %= params.p
    if n == params.p - 1:
        return (0,) * (k - 1) + (r,)
    digits = []
    for _ in range(k):
        n, d = divmod(n, r)
        digits.append(d)
    return tuple(digits)


def gfp_add(params, x, y):
    """x + y mod p with conditional-subtract carries.

    A carry surviving the top digit means the plain sum reached r^k; the
    fixup borrows one from the lowest non-zero digit (setting the digits
    below it to r-1), and the all-zero case is exactly r^k = p - 1.
    Raises ValueError unless x and y are canonical.
    """
    check_canonical(params, x)
    check_canonical(params, y)
    return add_digits(params, x, y)


def add_digits(params, x, y):
    """gfp_add without the checks, for canonical elements."""
    r, k = params.r, params.k
    z = []
    carry = 0
    for i in range(k):
        s = x[i] + y[i] + carry
        if s >= r:
            s -= r
            carry = 1
        else:
            carry = 0
        z.append(s)
    if carry:
        for i0 in range(k):
            if z[i0]:
                for j in range(i0):
                    z[j] = r - 1
                z[i0] -= 1
                break
        else:
            return (0,) * (k - 1) + (r,)
    return tuple(z)


def gfp_sub(params, x, y):
    """x - y mod p.  A borrow out of the top digit is repaid with +1,
    since the digit loop computed x - y + r^k and r^k = -1 mod p.
    Raises ValueError unless x and y are canonical."""
    check_canonical(params, x)
    check_canonical(params, y)
    return sub_digits(params, x, y)


def sub_digits(params, x, y):
    """gfp_sub without the checks, for canonical elements."""
    r, k = params.r, params.k
    z = []
    borrow = 0
    for i in range(k):
        d = x[i] - y[i] - borrow
        if d < 0:
            d += r
            borrow = 1
        else:
            borrow = 0
        z.append(d)
    if borrow:
        for i in range(k):
            if z[i] + 1 < r:
                z[i] += 1
                break
            z[i] = 0
        else:
            return (0,) * (k - 1) + (r,)
    return tuple(z)


def gfp_mul_pow_r(params, x, i):
    """x * r^i mod p for 0 <= i <= 2k; raises ValueError for a bad x or i."""
    check_canonical(params, x)
    if not 0 <= i <= 2 * params.k:
        raise ValueError("shift exponent out of range")
    return rotate_digits(params, tuple(x), i)


def rotate_digits(params, x, i):
    """gfp_mul_pow_r without the checks, for a canonical x and any i >= 0.

    One digit rotation and one subtraction: using r^k = -1, the digit sum
    of x * r^j, 0 < j < k, splits at r^k into a low part B and a wrapped
    part A, so x * r^j = B - A and x * r^(k+j) = A - B.  Linear in k.
    """
    r, k = params.r, params.k
    i %= 2 * k
    if i == 0:
        return tuple(x)
    if i == k:
        return sub_digits(params, (0,) * k, x)
    j = i - k if i > k else i
    b = (0,) * j + x[: k - j]
    a = list(x[k - j:]) + [0] * (k - j)
    if x[k - 1] == r:
        # form B: the digit r would land in a[j-1]; carry it one slot up
        a[j - 1] -= r
        a[j] += 1
    return sub_digits(params, a, b) if i > k else sub_digits(params, b, a)


def gfp_primitive_root(params, N, g):
    """From an N-th primitive root g, the root omega with omega^(N/2k) = r.

    Walks b = a, a^2, a^3, ... with a = g^(N/2k) until b equals r; then
    omega = g^j.  The walk is bounded by 2k steps because a has order
    dividing 2k.  Self-checks omega^N = 1 and omega^(N/2) = p - 1.
    """
    k, p = params.k, params.p
    if N % (2 * k):
        raise ValueError("N must be a multiple of 2k")
    g = gfp_decode(params, g)
    a = pow(g, N // (2 * k), p)
    b = a
    j = 1
    while b != params.r:
        j += 1
        if j > 2 * k:
            raise ValueError("input root is not primitive (search exhausted)")
        b = a * b % p
    omega = pow(g, j, p)
    if pow(omega, N, p) != 1:
        raise ValueError("root self-check failed: omega^N != 1")
    if pow(omega, N // 2, p) != p - 1:
        raise ValueError("root self-check failed: omega^(N/2) != -1")
    return gfp_encode(params, omega)


def gfp_find_nth_root(params, N, seed=0):
    """A primitive N-th root of unity, deterministic for a given seed.

    The encoded word_field.find_nth_root(p, N, seed): N must be a power
    of two dividing p - 1, and a composite p raises ValueError.
    """
    return gfp_encode(params, find_nth_root(params.p, N, seed))
