"""Radix-r arithmetic for fields GF(p) with p = r^k + 1, k a power of two.

An element is a tuple of k unsigned word digits, little-endian: digits[i] is
the coefficient of r^i.  Two canonical shapes exist:

  form A: every digit in [0, r), covering the values 0 .. p-2;
  form B: top digit equal to r, all others zero, the unique encoding of p-1.

settle carries k signed coefficients into an element in one pass, the
carry out of the top re-entering at r^0 negated since r^k = -1:
addition and subtraction settle the digit-wise sum and difference, and
gfp_mult settles a convolution's coefficients.  Multiplication by a
power of r evaluates the element, multiplies by r^i mod p and
re-encodes: transforms over GF(p) run on residues mod p, where a power
of r is one cached constant.

Conversions between residues and digits run on radix_codec(r, k), four
functions compiled once per field: encode reduces mod p and splits by
r^(k/2), then r^(k/4), ... down to r (divide-and-conquer radix conversion,
Brent and Zimmermann, Modern Computer Arithmetic, 1.7), value evaluates
the digits pairwise, is_element is the element test and decode is value
behind that same test.  Up to k = 64 they are straight-line code with the
powers of r inlined; above, loops run the same split and test.

The codec's is_element defines a valid element, and is_canonical and
check_canonical read it.  Every public operation checks each operand
once and raises ValueError.  The codec's value trusts its input.

GfpParams is an immutable (r, k, p) namedtuple; operations return fresh tuples.
check_field(r, k) alone states which (r, k) make a field: GfpParams runs
it before it builds p, and bench_cli runs it on each GFPV file header.
"""

from collections import namedtuple
from functools import lru_cache
from operator import add, sub

from .word_field import find_nth_root

# the largest k GfpParams accepts: it builds p = r^k + 1 up front, and a
# 64-bit radix at k = 2^16 already makes p 4 million bits long
MAX_K = 1 << 16


class ConfigurationError(ValueError):
    """Raised when a field or a (field, prime set) pair cannot be used."""


def check_field(r, k):
    """The field rule, without building p: r and k have type int (not
    bool), k is a power of two up to MAX_K (ConfigurationError above)
    and 2 <= r < 2^64; anything else raises ValueError."""
    if type(r) is not int or type(k) is not int:
        raise ValueError("r and k must be ints")
    if k < 1 or k & (k - 1):
        raise ValueError("k must be a power of two")
    if k > MAX_K:
        raise ConfigurationError("k = %d exceeds MAX_K = %d" % (k, MAX_K))
    if not 2 <= r < (1 << 64):
        raise ValueError("r must fit in a 64-bit word and be at least 2")


class GfpParams(namedtuple("GfpParams", "r k p")):
    """Field parameters GfpParams(r, k): check_field(r, k), then p = r^k + 1.

    Digit arithmetic is well defined for any such p; field semantics such
    as inverses and roots of unity need p prime (the oracle module can
    check).  repr shows r and k only, since str(p) can pass Python's
    int-to-str digit limit; copy, pickle, _make and _replace rebuild the
    record through GfpParams(r, k), so p always follows r and k.
    """

    __slots__ = ()

    def __new__(cls, r, k):
        check_field(r, k)
        return super().__new__(cls, r, k, r ** k + 1)

    def __getnewargs__(self):
        return self.r, self.k

    @classmethod
    def _make(cls, fields):
        r, k, _ = fields
        return cls(r, k)

    def __repr__(self):
        return "GfpParams(r=%d, k=%d)" % (self.r, self.k)


def is_canonical(params, x):
    """True iff x is an element of the field: see radix_codec."""
    return radix_codec(params.r, params.k).is_element(x)


def check_canonical(params, x):
    """Raise ValueError unless x is a canonical element."""
    if not radix_codec(params.r, params.k).is_element(x):
        raise ValueError("non-canonical element")


def gfp_decode(params, x):
    """The integer value sum(digits[i] * r^i); raises on non-canonical input."""
    return radix_codec(params.r, params.k).decode(x)


def digits_value(params, x):
    """gfp_decode without the canonical check, for trusted elements."""
    return radix_codec(params.r, params.k).value(x)


def gfp_encode(params, n):
    """Canonical element congruent to n mod p.  n may be negative or huge
    but must be an int: any other type, bool included, raises ValueError."""
    return radix_codec(params.r, params.k).encode(n)


RadixCodec = namedtuple("RadixCodec", "encode value decode is_element")

# the largest k whose codec is compiled straight-line; above it, loops
STRAIGHT_LINE_K = 64


@lru_cache(maxsize=64)  # bounded: r and k come from the caller
def radix_codec(r, k):
    """The conversions of GF(r^k + 1), compiled once: encode(n) is the
    canonical element of n mod p and raises ValueError unless n is an
    int; value(x) is the int of k digits, unchecked; is_element(x) is
    true iff x is a tuple or a list (a subclass such as FftOperand
    included) of k digits of type int, so no bool, in form A or B;
    decode(x) is the value of such an x and raises ValueError for
    anything else."""
    params = GfpParams(r, k)
    p = params.p
    # the split widths k/2, k/4, ..., 1: 2w digits divide by r^w into two
    # halves of w; p - 1 = r^k splits into form B by itself
    widths = [k >> s for s in range(1, k.bit_length())]

    if k > STRAIGHT_LINE_K:
        powers = [r ** w for w in widths]

        def encode(n):
            if type(n) is not int:
                raise ValueError("n must be an int")
            parts = [n % p]
            for power in powers:
                parts = [d for t in parts for d in divmod(t, power)[::-1]]
            return tuple(parts)

        def value(x):
            for power in reversed(powers):
                x = [a + b * power for a, b in zip(x[::2], x[1::2])]
            return x[0]

        def is_element(x):
            if (not isinstance(x, (tuple, list)) or len(x) != k
                    or not {int}.issuperset(map(type, x))):
                return False
            if min(x) >= 0 and max(x) < r:
                return True
            return x[-1] == r and not any(x[:-1])

        def decode(x):
            if not is_element(x):
                raise ValueError("non-canonical element")
            return value(x)

        return RadixCodec(encode, value, decode, is_element)

    names = ["a%d" % i for i in range(k)]
    digits = "%s," % ", ".join(names)
    # digits lo .. lo+w-1 of a canonical value, evaluated pairwise
    def pairwise(lo, w):
        if w == 1:
            return names[lo]
        h = w // 2
        high = pairwise(lo + h, h)
        return "%s + %s * %#x" % (pairwise(lo, h),
                                  high if h == 1 else "(%s)" % high, r ** h)

    # split level by level: a(lo) holds digits lo .. lo+2w-1 until it is
    # divided by r^w into a(lo+w) and a(lo)
    split = ["%s, %s = divmod(%s, %#x)" % (names[lo + w], names[lo],
                                           names[lo], r ** w)
             for w in widths for lo in range(0, k, 2 * w)]
    # form A: 0 <= a0 < r > a1 >= 0 <= a2 < r > ..., every digit in [0, r);
    # form B: the top digit r over zeros, whose value is r^k = p - 1
    form_a = " ".join(["0"] + ["<= %s < %#x" % (a, r) if i % 2 == 0
                               else "> %s >= 0" % a
                               for i, a in enumerate(names)])
    form_b = "%s == %#x and not (%s)" % (names[-1], r,
                                         " or ".join(names[:-1]) or "0")
    # the element test, shared by is_element and decode
    test = [
        "    if isinstance(x, sequence) and len(x) == %d:" % k,
        "        %s = x" % digits,
        "        if int is %s and (%s or %s):" % (
            " is ".join("type(%s)" % a for a in names), form_a, form_b)]
    # a prebuilt pair: isinstance(x, (tuple, list)) builds it per call
    scope = {"sequence": (tuple, list)}
    source = "\n".join([
        "def encode(n):",
        "    if type(n) is not int:",
        "        raise ValueError('n must be an int')",
        "    a0 = n %% %#x" % p,
        *("    " + line for line in split),
        "    return (%s)" % digits,
        "def value(x):",
        "    %s = x" % digits,
        "    return %s" % pairwise(0, k),
        "def is_element(x):",
        *test,
        "            return True",
        "    return False",
        "def decode(x):",
        *test,
        "            return %s" % pairwise(0, k),
        "    raise ValueError('non-canonical element')",
        ""])
    exec(compile(source, "<radix_codec r=%d k=%d>" % (r, k), "exec"), scope)
    codec = RadixCodec(*(scope[name] for name in RadixCodec._fields))
    for fn in codec:
        fn.source = source
    return codec


def settle(params, u):
    """The element sum(u[i] * r^i) mod p of k signed ints u, the library's
    one digit normaliser.

    One floor divmod per coefficient carries it into digit i.  The carry
    c out of the top sits at r^k = -1, so -c comes back in at r^0; a
    carry c past the top again stands for -c and goes through the value.
    """
    r, k = params.r, params.k
    z = []
    c = 0
    for v in u:
        c, d = divmod(v + c, r)
        z.append(d)
    c, i = -c, 0
    while c and i < k:
        c, z[i] = divmod(z[i] + c, r)
        i += 1
    return gfp_encode(params, digits_value(params, z) - c) if c else tuple(z)


def gfp_add(params, x, y):
    """x + y mod p: the digit-wise sum, settled.  Raises ValueError unless
    x and y are canonical."""
    check_canonical(params, x)
    check_canonical(params, y)
    return settle(params, map(add, x, y))


def gfp_sub(params, x, y):
    """x - y mod p: the digit-wise difference, settled.  Raises ValueError
    unless x and y are canonical."""
    check_canonical(params, x)
    check_canonical(params, y)
    return settle(params, map(sub, x, y))


def gfp_mul_pow_r(params, x, i):
    """x * r^i mod p for an int 0 <= i <= 2k; raises ValueError for a bad
    x or i, a float or a bool i included."""
    codec = radix_codec(params.r, params.k)
    a = codec.decode(x)
    if type(i) is not int or not 0 <= i <= 2 * params.k:
        raise ValueError("shift exponent must be an int in [0, 2k]")
    return codec.encode(a * pow(params.r, i, params.p))


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
