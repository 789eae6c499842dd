"""Arbitrary-element multiplication in GF(r^k + 1).

Two interchangeable pipelines compute x*y for canonical digit vectors:

  gfp_mul_fft     one negacyclic convolution of the digits modulo M, the
                  product of the word primes of a CRT set, then one signed
                  carry pass: digit i is the signed lift of coefficient i
                  plus the carry, floor-divided by r; the carry out of the
                  top digit sits at r^k = -1 and is subtracted.
  gfp_mul_bigint  evaluate at r, multiply as arbitrary-precision integers,
                  reduce mod p, re-encode.

The paper convolves modulo each word prime and rebuilds the coefficients
by the CRT.  Z/M is the ring Z/q_1 x ... x Z/q_n, and a 2- or 3-word
Python int costs about what a 1-word one does, so the CRT lives in the
constants of one cached ConvolutionPlan per (primes, k) instead, and the
carry pass divides each whole coefficient where the paper splits it into
words l + h*r + c*r^2; crt_combine and lhc_decompose keep those steps.

A constant that multiplies many elements, such as a twiddle factor, is
best built once as FftOperand(params, crt, y), which keeps its transform.

The coefficients reach k*r^2, so the primes must satisfy
k*r^2 <= (q_1*...*q_n - 1)/2 together with 2k | q_i - 1.
check_prime_compat reports exactly that for the primes it is given;
gfp_mul_fft and GfpFftField append the fewest of the library primes
P1, P2, P3 that make it hold, and raise ConfigurationError only when no
such extension exists.

All plan/parameter objects are immutable and cached; every operation here
is a pure function of its arguments.
"""

import time
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations
from math import gcd, prod
from operator import mul
from typing import NamedTuple

from .fft import (BASE_SIZES, IntModField, build_plan, convolution_kernels,
                  dft_general, lap)
# gfp_add and gfp_sub are not called here; they stay module globals
# because perfbench/spans.py traces the add/sub layer through them
from .gfp_field import (ConfigurationError, add_digits, check_canonical,
                        digits_value, gfp_add, gfp_encode, gfp_mul_pow_r,
                        gfp_sub, is_canonical, rotate_digits, sub_digits)
from .word_field import P1, P2, P3, find_nth_root, word_prime


# ---------------------------------------------------------------------------
# LHC splitting

class LhcTriple(NamedTuple):
    l: int
    h: int
    c: int

    def value(self, r):
        return self.l + self.h * r + self.c * r * r


def lhc_decompose(s, r):
    """Write the non-negative int s as l + h*r + c*r^2 with 0 <= l,h < r.

    The caller guarantees s <= k*r^2 and attaches any sign itself.  c stays
    at most k; radices smaller than k are the only case where c can reach
    r.
    """
    if s < 0:
        raise ValueError("value must be non-negative")
    hc, l = divmod(s, r)
    c, h = divmod(hc, r)
    return LhcTriple(l, h, c)


# ---------------------------------------------------------------------------
# CRT reconstruction over a set of word primes

class SignedCoefficient(NamedTuple):
    magnitude: int
    negative: bool

    def value(self):
        return -self.magnitude if self.negative else self.magnitude


@dataclass(frozen=True)
class CrtParams:
    """Everything crt_combine needs, derived once from pairwise-coprime
    word primes q_1, ..., q_n (n >= 2), built by make(q_1, q_2, ...).

    idempotents[i] is 1 mod q_i and 0 mod every other q_j, so a value is
    rebuilt from its residues as sum(a_i * idempotents[i]) mod modulus.
    """

    primes: tuple
    modulus: int
    half_range: int
    idempotents: tuple

    @property
    def p1(self):
        return self.primes[0]

    @property
    def p2(self):
        return self.primes[1]

    @classmethod
    def make(cls, q1=P1, q2=P2, *more):
        primes = (q1, q2) + more
        for i, q in enumerate(primes):
            if any(gcd(q, other) != 1 for other in primes[i + 1:]):
                raise ValueError("primes must be pairwise coprime")
        for q in primes:
            word_prime(q)  # rejects composites
        modulus = prod(primes)
        return cls(primes, modulus, (modulus - 1) // 2, _idempotents(primes))


def _idempotents(primes):
    # e_i = 1 mod q_i and 0 mod every other prime of the set
    m = prod(primes)
    return tuple(m // q * pow(m // q, -1, q) for q in primes)


@lru_cache(maxsize=None)
def crt_default():
    return CrtParams.make()


def crt_combine(*args):
    """The signed v in [-half_range, half_range] with v = a_i mod q_i.

    Called as crt_combine(a_1, ..., a_n, params) with one reduced residue
    per prime of params, in the order of params.primes.
    """
    *residues, params = args
    if len(residues) != len(params.primes):
        raise ValueError("expected one residue per prime")
    for a, q in zip(residues, params.primes):
        if not 0 <= a < q:
            raise ValueError("residues must be reduced")
    v = sum(map(mul, residues, params.idempotents)) % params.modulus
    negative = v > params.half_range
    return SignedCoefficient(params.modulus - v if negative else v, negative)


class CompatReport(NamedTuple):
    passed: bool
    slack: int
    reasons: tuple


def check_prime_compat(params, crt):
    """Can gfp_mul_fft run GF(r^k+1) over exactly these primes?

    Requires k*r^2 <= (q_1*...*q_n - 1)/2 so the convolution coefficients
    survive the symmetric CRT range, and 2k | q_i - 1 for every prime so
    the negacyclic transforms exist.  slack reports the margin (negative
    when failing).  The report covers the given primes only; the
    multiplier itself extends a failing set where it can.
    """
    bound = params.k * params.r * params.r
    limit = crt.half_range
    reasons = []
    if bound > limit:
        reasons.append("coefficient bound k*r^2 = %d exceeds usable range %d"
                       % (bound, limit))
    two_k = 2 * params.k
    for i, q in enumerate(crt.primes, 1):
        if (q - 1) % two_k:
            reasons.append("2k = %d does not divide p%d - 1" % (two_k, i))
    return CompatReport(not reasons, limit - bound, tuple(reasons))


# ---------------------------------------------------------------------------
# convolutions modulo a product of word primes

class ConvolutionPlan:
    """The length-k negacyclic convolution mod q = prod(primes),
    inv(fwd(x), fwd(y)): k residues that are the CRT of the convolutions
    mod each prime.

    fwd(x) is the spectrum of the theta-weighted x, theta the CRT lift of
    find_nth_root(q_i, 2k) over the primes q_i.  For k = 1 and the
    base-case sizes fwd and inv are fft.convolution_kernels over q, and
    longer convolutions weigh, run dft_general over IntModField(q) and
    unweigh.
    """

    __slots__ = ("fwd", "inv")

    def __init__(self, primes, k):
        q = prod(primes)
        roots = [find_nth_root(qi, 2 * k) for qi in primes]
        theta = sum(map(mul, roots, _idempotents(primes))) % q
        if k == 1 or k in BASE_SIZES:
            self.fwd, self.inv = convolution_kernels(q, k, theta)
            return
        # k = K^e with K the largest base-case size that allows it
        e = k.bit_length() - 1
        K = max(K for K in BASE_SIZES if e % (K.bit_length() - 1) == 0)
        field = IntModField(q)
        plan = build_plan(field, K, e // (K.bit_length() - 1), theta * theta % q)
        weights = [pow(theta, i, q) for i in range(k)]
        scale = [pow(theta, -i, q) * pow(k, -1, q) % q for i in range(k)]

        def fwd(x):
            v = [d * t % q for d, t in zip(x, weights)]
            return tuple(dft_general(v, plan, field))

        def inv(a, b):
            v = [u * w % q for u, w in zip(a, b)]
            dft_general(v, plan.inverse(), field)
            return tuple(u * t % q for u, t in zip(v, scale))

        self.fwd, self.inv = fwd, inv


_nega_plan = lru_cache(maxsize=None)(ConvolutionPlan)


def negacyclic_convolution(x, y, ctx, k):
    """Coefficients of f_x * f_y mod (R^k + 1) mod q.

    Inputs and output are plain residue vectors; the transforms run on
    the theta-weighted inputs, theta a primitive 2k-th root of unity.
    """
    plan = _nega_plan((ctx.q,), k)
    for v in (x, y):
        if len(v) != k or not all(0 <= d < ctx.q for d in v):
            raise ValueError("inputs must be k residues reduced mod q")
    return plan.inv(plan.fwd(x), plan.fwd(y))


# ---------------------------------------------------------------------------
# the two multipliers

_LIBRARY_PRIMES = (P1, P2, P3)
_resolved = {}


def _resolve(params, crt):
    # (the prime set the multiplier runs over for crt, its plan)
    key = (params.r, params.k, crt.primes)
    found = _resolved.get(key)
    if found is None:
        wider = _extend_crt(params, crt)
        found = _resolved[key] = (wider, _nega_plan(wider.primes, params.k))
    return found


def _extend_crt(params, crt):
    # crt itself when it carries the field, else crt plus the fewest
    # library primes that do
    report = check_prime_compat(params, crt)
    if report.passed:
        return crt
    spare = [q for q in _LIBRARY_PRIMES if q not in crt.primes]
    for n in range(1, len(spare) + 1):
        for extra in combinations(spare, n):
            wider = CrtParams.make(*crt.primes, *extra)
            if check_prime_compat(params, wider).passed:
                return wider
    raise ConfigurationError("; ".join(report.reasons))


class FftOperand(tuple):
    """A canonical element that keeps its own transform.

    Still the plain digit tuple for equality, hashing, copies and every
    field operation.  spectrum is the forward transform of its
    theta-weighted digits modulo the product of primes, k residues, which
    gfp_mul_fft reuses as y over that prime set: 2 kernel calls per
    product instead of 3.  It depends only on the digits, k and the
    primes, never on r."""

    def __new__(cls, params, crt, y):
        check_canonical(params, y)
        self = super().__new__(cls, y)
        crt, plan = _resolve(params, crt)
        self.primes = crt.primes
        self.spectrum = plan.fwd(y)
        return self

    def __reduce__(self):
        return tuple, (tuple(self),)


def gfp_mul_fft(params, crt, x, y, profile=None):
    """x*y via one convolution mod the product of the CRT primes and
    one signed carry pass over its coefficients.

    The primes are crt's when check_prime_compat passes for them, else
    crt's plus the fewest library primes that make it pass;
    ConfigurationError means no such extension exists.  A y built as
    FftOperand over that prime set brings its spectrum along.  Raises
    ValueError unless x and y are canonical elements.

    profile, when given, accumulates seconds per pipeline step under the
    keys convolution (the compiled kernels: theta-weighting, transforms,
    pointwise product, unweighting and 1/k; the CRT itself is in the
    plan's constants) and carry (the signed lift of each coefficient from
    [0, M), the carry pass and the settle of the carry out at r^k = -1).
    """
    check_canonical(params, x)
    check_canonical(params, y)
    return _mul_fft(params, crt, x, y, profile)


def _mul_fft(params, crt, x, y, profile=None):
    crt, plan = _resolve(params, crt)
    if profile is not None:
        t0 = time.perf_counter()
    if isinstance(y, FftOperand) and y.primes == crt.primes:
        zs = plan.inv(plan.fwd(x), y.spectrum)
    else:
        zs = plan.inv(plan.fwd(x), plan.fwd(y))
    if profile is not None:
        t0 = lap(profile, "convolution", t0)

    # coefficient i is the signed lift of zs[i] from [0, M), at r^i; one
    # floor divmod per coefficient carries it into digit i
    m, half, r = crt.modulus, crt.half_range, params.r
    u = []
    carry = 0
    for v in zs:
        carry, d = divmod((v - m if v > half else v) + carry, r)
        u.append(d)
    # the carry left over sits at r^k = -1; u and the encoded carry are
    # canonical, so the unchecked digit loops settle it
    if carry > 0:
        u = sub_digits(params, u, gfp_encode(params, carry))
    else:
        u = add_digits(params, u, gfp_encode(params, -carry))
    if profile is not None:
        lap(profile, "carry", t0)
    return u


def gfp_mul_bigint(params, x, y):
    """Reference product, inputs checked: evaluate at r, multiply, re-encode."""
    check_canonical(params, x)
    check_canonical(params, y)
    return _mul_bigint(params, x, y)


def _mul_bigint(params, x, y):
    xv, yv = digits_value(params, x), digits_value(params, y)
    return gfp_encode(params, xv * yv)


# ---------------------------------------------------------------------------
# field adapter: GF(p) elements for the fft machinery

class GfpFftField(IntModField):
    """Digit-vector field view used by dft_general over GF(r^k + 1).

    Elements are canonical digit tuples: encode is gfp_encode and decode
    digits_value.  mul dispatches to the FFT pipeline or the bigint
    reference according to backend; add, sub, mul and shift(x, i) = x * r^i
    run unchecked.  The power tables of IntModField hold FftOperands on the
    fft backend.  root_power_mul_factory multiplies by powers of r or 1/r
    with a cyclic digit rotation and rejects any other base root or size.
    """

    def __init__(self, params, crt=None, backend="fft"):
        if backend not in ("fft", "bigint"):
            raise ValueError("unknown backend")
        if backend == "fft":
            crt = _resolve(params, crt if crt is not None else crt_default())[0]
        super().__init__(params.p)
        self.params = params
        self.crt = crt
        self.backend = backend
        self.encode = partial(gfp_encode, params)
        self.decode = partial(digits_value, params)
        # unchecked cores: the field's own elements are canonical
        self.is_element = partial(is_canonical, params)
        self.add = partial(add_digits, params)
        self.sub = partial(sub_digits, params)
        self.mul = (partial(_mul_fft, params, crt) if backend == "fft"
                    else partial(_mul_bigint, params))
        self.shift = partial(rotate_digits, params)
        self.shift_root = self.encode(params.r)
        # r^(2k-1) = 1/r, the root inverse transforms align with
        self.shift_root_inv = gfp_mul_pow_r(params, self.one(), 2 * params.k - 1)

    def _prepared(self, a):
        if self.backend == "fft":
            return FftOperand(self.params, self.crt, a)
        return a

    def root_power_mul_factory(self, omega, count):
        """x, t -> x * omega^t as a digit rotation, t < count.

        The base case of a transform over GF(r^k + 1): count must be 2k
        and omega r or 1/r, else ValueError.
        """
        two_k = 2 * self.params.k
        if count != two_k:
            raise ValueError("base-case size must equal 2k for this field")
        # read per dft_general call, so a wrapper on it sees each rotation
        shift = self.shift
        if omega == self.shift_root:
            return shift
        if omega == self.shift_root_inv:
            return lambda a, t: shift(a, two_k - t)
        raise ValueError("omega^(N/2k) must equal the radix r or 1/r")
