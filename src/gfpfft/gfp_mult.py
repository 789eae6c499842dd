"""Arbitrary-element multiplication in GF(r^k + 1).

Two interchangeable pipelines compute x*y for canonical digit vectors:

  gfp_mul_fft     digitwise negacyclic convolution on plain residues modulo
                  each word prime of a CRT set, CRT reconstruction of the signed integer
                  coefficients, decomposition of each coefficient as
                  l + h*r + c*r^2 added into digit positions i, i+1, i+2,
                  and one carry pass over the digits.
  gfp_mul_bigint  evaluate at r, multiply as arbitrary-precision integers,
                  reduce mod p, re-encode.

Each convolution, the multiplier's and negacyclic_convolution's alike,
runs through one cached ConvolutionPlan per (prime, k): theta-weighting,
dft_general over IntModField, and the unweighting.  A constant that
multiplies many elements, such as a twiddle factor, is best built once
as FftOperand(params, crt, y), which keeps its transforms.

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
from functools import lru_cache
from itertools import combinations
from math import gcd, prod
from typing import NamedTuple

from .fft import BASE_SIZES, IntModField, build_plan, dft_general
from .gfp_field import (digits_value, gfp_add, gfp_encode, gfp_mul_pow_r,
                        gfp_sub, is_canonical)
from .word_field import P1, P2, P3, find_nth_root, word_prime


class ConfigurationError(ValueError):
    """Raised when a (field, prime set) combination cannot be used."""


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
    r, and the field-level carry pass downstream absorbs that.
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
        idempotents = tuple(modulus // q * pow(modulus // q, -1, q)
                            for q in primes)
        return cls(primes, modulus, (modulus - 1) // 2, idempotents)


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
    v = 0
    for a, q, e in zip(residues, params.primes, params.idempotents):
        if not 0 <= a < q:
            raise ValueError("residues must be reduced")
        v += a * e
    v %= params.modulus
    if v > params.half_range:
        return SignedCoefficient(params.modulus - v, True)
    return SignedCoefficient(v, False)


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
# convolutions over a word prime

def _transform_shape(n):
    # a power of two n >= 2 as K^e with K a base-case size, largest K first
    for K in reversed(BASE_SIZES):
        t, e = n, 0
        while t % K == 0:
            t //= K
            e += 1
        if t == 1:
            return K, e


class ConvolutionPlan:
    """Weights and transforms of the length-k negacyclic convolution mod q.

    Everything is a plain residue in [0, q).  theta is a primitive 2k-th
    root of unity; in_table[i] = theta^i weighs digit i before the forward
    transform, and out_table[i] = theta^-i / k undoes that weight and the
    1/k scale after the unscaled inverse.  fwd and inv run the six-step
    DFT at theta^2 over IntModField(q); the length-1 transform is the
    identity.
    """

    __slots__ = ("q", "in_table", "out_table", "_field", "_fft")

    def __init__(self, q, k):
        theta = find_nth_root(q, 2 * k)
        theta_inv = pow(theta, -1, q)
        k_inv = pow(k, -1, q)
        self.q = q
        self.in_table = [pow(theta, i, q) for i in range(k)]
        self.out_table = [k_inv * pow(theta_inv, i, q) % q for i in range(k)]
        self._field = IntModField(q)
        self._fft = None
        if k > 1:
            self._fft = build_plan(self._field, *_transform_shape(k),
                                   theta * theta % q)

    def fwd(self, v):
        if self._fft is not None:
            dft_general(v, self._fft, self._field)

    def inv(self, v):
        if self._fft is not None:
            dft_general(v, self._fft.inverse(), self._field)


_nega_plan = lru_cache(maxsize=None)(ConvolutionPlan)


def _weigh(plan, x):
    q = plan.q
    return [d * t % q for d, t in zip(x, plan.in_table)]


def _spectrum(plan, y):
    # forward transform of the weighted digits of y
    b = _weigh(plan, y)
    plan.fwd(b)
    return b


def _product(plan, a, b):
    # forward transform of the weighted vector a times the spectrum b,
    # inverse transformed but not yet scaled or unweighted
    plan.fwd(a)
    q = plan.q
    c = [u * w % q for u, w in zip(a, b)]
    plan.inv(c)
    return c


def _unweigh(plan, c):
    q = plan.q
    return tuple(u * t % q for u, t in zip(c, plan.out_table))


def _check_reduced(v, n, q):
    if len(v) != n:
        raise ValueError("vector length mismatch")
    for d in v:
        if not 0 <= d < q:
            raise ValueError("inputs must be reduced mod q")


def negacyclic_convolution(x, y, ctx, k):
    """Coefficients of f_x * f_y mod (R^k + 1) mod q.

    Inputs and output are plain residue vectors; the transforms run on
    the theta-weighted inputs, theta a primitive 2k-th root of unity.
    """
    plan = _nega_plan(ctx.q, k)
    _check_reduced(x, k, ctx.q)
    _check_reduced(y, k, ctx.q)
    return _unweigh(plan, _product(plan, _weigh(plan, x), _spectrum(plan, y)))


# ---------------------------------------------------------------------------
# the two multipliers

_LIBRARY_PRIMES = (P1, P2, P3)
_resolved = {}


def _resolve_crt(params, crt):
    key = (params.r, params.k, crt.primes)
    found = _resolved.get(key)
    if found is None:
        found = _resolved[key] = _extend_crt(params, crt)
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
    """A canonical element that keeps its own transforms.

    Still the plain digit tuple for equality, hashing, copies and every
    field operation.  spectra holds, per prime of primes, the forward
    transform of its theta-weighted digits, which gfp_mul_fft reuses as y
    over those primes: 4 NTTs per product instead of 6 over two primes."""

    def __new__(cls, params, crt, y):
        if not is_canonical(params, y):
            raise ValueError("non-canonical element")
        self = super().__new__(cls, y)
        crt = _resolve_crt(params, crt)
        self.primes = crt.primes
        self.spectra = tuple(tuple(_spectrum(_nega_plan(q, params.k), y))
                             for q in crt.primes)
        return self

    def __reduce__(self):
        return tuple, (tuple(self),)


def gfp_mul_fft(params, crt, x, y, profile=None):
    """x*y via convolution mod each word prime, CRT, and LHC reassembly.

    The convolutions run over crt's primes when check_prime_compat passes
    for them, otherwise over crt plus the fewest library primes that make
    it pass; ConfigurationError means no such extension exists.  A y built
    as FftOperand over that prime set brings its spectra along.

    profile, when given, accumulates seconds per pipeline step under the
    keys convert_in (theta-weighting x), convolution (the transforms and
    the pointwise product), convert_out (unweighting and the 1/k scale),
    crt, lhc (splitting and placing the coefficients), final (carries).
    """
    crt = _resolve_crt(params, crt)
    k, r = params.k, params.r
    plans = [_nega_plan(q, k) for q in crt.primes]
    timer = time.perf_counter if profile is not None else None

    def tick(phase, t0):
        profile[phase] = profile.get(phase, 0.0) + (timer() - t0)

    t0 = timer() if timer else 0
    xs = [_weigh(plan, x) for plan in plans]
    if timer:
        tick("convert_in", t0)

    t0 = timer() if timer else 0
    ys = (y.spectra if isinstance(y, FftOperand) and y.primes == crt.primes
          else [_spectrum(plan, y) for plan in plans])
    zs = [_product(plan, a, b) for plan, a, b in zip(plans, xs, ys)]
    if timer:
        tick("convolution", t0)

    t0 = timer() if timer else 0
    zs = [_unweigh(plan, z) for plan, z in zip(plans, zs)]
    if timer:
        tick("convert_out", t0)

    t0 = timer() if timer else 0
    coeffs = [crt_combine(*res, crt) for res in zip(*zs)]
    if timer:
        tick("crt", t0)

    t0 = timer() if timer else 0
    # coefficient i is l + h*r + c*r^2 at r^i: its signed parts go to digit
    # positions i, i+1, i+2, of which k and k+1 are folded back below
    bound = k * r * r
    acc = [0] * (k + 2)
    for i, s in enumerate(coeffs):
        mag = s.magnitude
        if mag > bound:
            raise ValueError("coefficient exceeds k*r^2: inputs are not "
                             "canonical field elements")
        l, h, c = lhc_decompose(mag, r)
        sign = -1 if s.negative else 1
        acc[i] += sign * l
        acc[i + 1] += sign * h
        acc[i + 2] += sign * c
    if timer:
        tick("lhc", t0)

    t0 = timer() if timer else 0
    # r^k = -1: each wrap past k negates (for k = 1, c wraps twice)
    for j in (k, k + 1):
        wraps, low = divmod(j, k)
        acc[low] += -acc[j] if wraps & 1 else acc[j]
    carry = 0
    for j in range(k):
        carry, acc[j] = divmod(acc[j] + carry, r)
    u = tuple(acc[:k])
    # the carry left over sits at r^k = -1
    if carry > 0:
        u = gfp_sub(params, u, gfp_encode(params, carry))
    elif carry < 0:
        u = gfp_add(params, u, gfp_encode(params, -carry))
    if timer:
        tick("final", t0)
    return u


def gfp_mul_bigint(params, x, y):
    """Reference product: evaluate at r, multiply as integers, re-encode."""
    xv, yv = digits_value(params, x), digits_value(params, y)
    return gfp_encode(params, xv * yv)


# ---------------------------------------------------------------------------
# field adapter: GF(p) elements for the fft machinery

class GfpFftField(IntModField):
    """Digit-vector field view used by dft_general over GF(r^k + 1).

    mul dispatches to the FFT pipeline or the bigint reference according
    to backend.  The power tables of IntModField hold FftOperands on the
    fft backend, and root_power_mul_factory multiplies by powers of r or
    1/r with a cyclic digit rotation; build_plan checks through shift_root
    and two_k that a plan's base root is one of those two.
    """

    def __init__(self, params, crt=None, backend="fft"):
        if backend not in ("fft", "bigint"):
            raise ValueError("unknown backend")
        if backend == "fft":
            crt = _resolve_crt(params, crt if crt is not None else crt_default())
        super().__init__(params.p)
        self.params = params
        self.crt = crt
        self.backend = backend
        self.two_k = 2 * params.k
        self.shift_root = gfp_encode(params, params.r)
        # r^(2k-1) = 1/r, the root inverse transforms align with
        self.shift_root_inv = self.shift(self.one(), self.two_k - 1)

    def add(self, a, b):
        return gfp_add(self.params, a, b)

    def sub(self, a, b):
        return gfp_sub(self.params, a, b)

    def mul(self, a, b):
        if self.backend == "fft":
            return gfp_mul_fft(self.params, self.crt, a, b)
        return gfp_mul_bigint(self.params, a, b)

    def pow(self, a, e):
        params = self.params
        return gfp_encode(params, pow(digits_value(params, a), e, params.p))

    def zero(self):
        return (0,) * self.params.k

    def one(self):
        return gfp_encode(self.params, 1)

    def inv_scalar(self, n):
        params = self.params
        return self._prepared(gfp_encode(params, pow(n, -1, params.p)))

    def shift(self, a, i):
        return gfp_mul_pow_r(self.params, a, i)

    def _prepared(self, a):
        if self.backend == "fft":
            return FftOperand(self.params, self.crt, a)
        return a

    def root_power_mul_factory(self, omega, count):
        if count <= self.two_k:
            params = self.params
            if omega == self.shift_root:
                return lambda a, t: gfp_mul_pow_r(params, a, t)
            if omega == self.shift_root_inv:
                two_k = self.two_k
                return lambda a, t: gfp_mul_pow_r(params, a, (two_k - t) % two_k)
        return super().root_power_mul_factory(omega, count)
