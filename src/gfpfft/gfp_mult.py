"""Arbitrary-element multiplication in GF(r^k + 1).

Two interchangeable pipelines compute x*y for canonical digit vectors:

  gfp_mul_fft     one negacyclic convolution of the digits modulo M, the
                  product of the word primes of a CRT set, then
                  gfp_field.settle of the coefficients lifted to
                  (-M/2, M/2), the library's one carry pass.
  gfp_mul_bigint  evaluate at r, multiply as arbitrary-precision integers,
                  reduce mod p, re-encode.

The paper convolves modulo each word prime and rebuilds the coefficients
by the CRT.  Z/M is the ring Z/q_1 x ... x Z/q_n, and a 2- or 3-word
Python int costs about what a 1-word one does, so the CRT lives in the
constants of one cached ConvolutionPlan per (primes, k) instead, and the
carry pass divides whole coefficients by r where the paper splits each
into words l + h*r + c*r^2 first; crt_combine and lhc_decompose keep
those steps.  A product wanted as a residue, as GfpFftField.mul returns
it, is instead evaluated at r by Horner's rule and reduced mod p.

A constant that multiplies many elements, such as a twiddle factor, is
best built once as FftOperand(params, crt, y), which keeps its transform.
GfpFftField, the view of GF(p) that fft transforms on residues mod p,
keeps its twiddle tables that way on the fft backend.

The coefficients reach k*r^2, so the primes must satisfy
k*r^2 <= (q_1*...*q_n - 1)/2 together with 2k | q_i - 1.
check_prime_compat reports exactly that for the primes it is given;
gfp_mul_fft and GfpFftField append the fewest of the library primes
P1, P2, P3 that make it hold, and raise ConfigurationError only when no
such extension exists.

The records here are immutable namedtuples and the plans are cached;
every operation here is a pure function of its arguments.
"""

import time
from collections import namedtuple
from functools import lru_cache, partial
from itertools import combinations
from math import gcd, prod
from operator import mul

from .fft import (BASE_SIZES, IntModField, build_plan, convolution_kernels,
                  dft_general, lap)
# gfp_add, gfp_sub and gfp_mul_pow_r are not called here; they stay module
# globals because perfbench/spans.py traces the add/sub and shift layers
# through them
from .gfp_field import (ConfigurationError, GfpParams, check_canonical,
                        gfp_add, gfp_encode, gfp_mul_pow_r, gfp_sub,
                        radix_codec, settle)
from .word_field import P1, P2, P3, find_nth_root, word_prime


# ---------------------------------------------------------------------------
# LHC splitting

class LhcTriple(namedtuple("LhcTriple", "l h c")):
    __slots__ = ()

    def value(self, r):
        return self.l + self.h * r + self.c * r * r


def lhc_decompose(s, r):
    """Write the non-negative int s as l + h*r + c*r^2 with 0 <= l,h < r.

    The caller guarantees s <= k*r^2 and attaches any sign itself.  c stays
    at most k; radices smaller than k are the only case where c can reach
    r.  s must have type int, so a float or a bool raises ValueError.
    """
    if type(s) is not int or s < 0:
        raise ValueError("value must be a non-negative int")
    hc, l = divmod(s, r)
    c, h = divmod(hc, r)
    return LhcTriple(l, h, c)


# ---------------------------------------------------------------------------
# CRT reconstruction over a set of word primes

class SignedCoefficient(namedtuple("SignedCoefficient", "magnitude negative")):
    __slots__ = ()

    def value(self):
        return -self.magnitude if self.negative else self.magnitude


class CrtParams(namedtuple("CrtParams",
                           "primes modulus half_range idempotents")):
    """Everything crt_combine needs, derived once from pairwise-coprime
    word primes q_1, ..., q_n (n >= 2), built by make(q_1, q_2, ...).

    idempotents[i] is 1 mod q_i and 0 mod every other q_j, so a value is
    rebuilt from its residues as sum(a_i * idempotents[i]) mod modulus.
    """

    __slots__ = ()

    p1 = property(lambda self: self.primes[0])
    p2 = property(lambda self: self.primes[1])

    @classmethod
    def make(cls, q1=P1, q2=P2, *more):
        primes = (q1, q2) + more
        if any(type(q) is not int for q in primes):
            raise ValueError("primes must be ints")
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

    Called as crt_combine(a_1, ..., a_n, params) with one reduced int
    residue per prime of params, in the order of params.primes.
    """
    *residues, params = args
    if len(residues) != len(params.primes):
        raise ValueError("expected one residue per prime")
    for a, q in zip(residues, params.primes):
        if type(a) is not int or not 0 <= a < q:
            raise ValueError("residues must be reduced ints")
    v = sum(map(mul, residues, params.idempotents)) % params.modulus
    negative = v > params.half_range
    return SignedCoefficient(params.modulus - v if negative else v, negative)


CompatReport = namedtuple("CompatReport", "passed slack reasons")


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
    unweigh; inv runs the forward plan and reads its output backwards.
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
            # the DFT at theta^-2 is this one with outputs 1..k-1 reversed
            v = dft_general([u * w % q for u, w in zip(a, b)], plan, field)
            return tuple(v[-i] * t % q for i, t in enumerate(scale))

        self.fwd, self.inv = fwd, inv


# bounded: primes and k come from the caller, and each plan holds
# compiled kernels
_nega_plan = lru_cache(maxsize=64)(ConvolutionPlan)


def negacyclic_convolution(x, y, ctx, k):
    """Coefficients of f_x * f_y mod (R^k + 1) mod q.

    Inputs and output are plain residue vectors; the transforms run on
    the theta-weighted inputs, theta a primitive 2k-th root of unity.
    Raises ValueError unless x and y are k int residues reduced mod q,
    before any plan is built.
    """
    q = ctx.q
    for v in (x, y):
        if len(v) != k or not all(type(d) is int and 0 <= d < q for d in v):
            raise ValueError("inputs must be k residues reduced mod q")
    plan = _nega_plan((q,), k)
    return plan.inv(plan.fwd(x), plan.fwd(y))


# ---------------------------------------------------------------------------
# the two multipliers

_LIBRARY_PRIMES = (P1, P2, P3)


def _resolve(params, crt):
    # (the prime set the multiplier runs over for crt, its plan)
    return _resolved(params.r, params.k, crt.primes)


@lru_cache(maxsize=64)  # bounded: r, k and the primes come from the caller
def _resolved(r, k, primes):
    params = GfpParams(r, k)
    wider = _extend_crt(params, CrtParams.make(*primes))
    return wider, _nega_plan(wider.primes, k)


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
    one settle of its coefficients.

    The primes are crt's when check_prime_compat passes for them, else
    crt's plus the fewest library primes that make it pass;
    ConfigurationError means no such extension exists.  A y built as
    FftOperand over that prime set brings its spectrum along.  Raises
    ValueError unless x and y are canonical elements.

    profile, when given, accumulates seconds per pipeline step under the
    keys convolution (the compiled kernels: theta-weighting, transforms,
    pointwise product, unweighting and 1/k; the CRT itself is in the
    plan's constants), carry (the signed lift of each coefficient from
    [0, M) and their settle) and boundary (the two operand checks).
    """
    t0 = time.perf_counter() if profile is not None else 0
    is_element = radix_codec(params.r, params.k).is_element
    if not (is_element(x) and is_element(y)):
        raise ValueError("non-canonical element")
    if profile is not None:
        lap(profile, "boundary", t0)
    return _mul_fft(params, crt, x, y, profile, digits=True)


def _mul_fft(params, crt, x, y, profile=None, digits=False):
    # x*y mod p as a residue, or as an element when digits is true; x and
    # y are digit tuples or residues
    crt, plan = _resolved(params.r, params.k, crt.primes)
    if profile is not None:
        t0 = time.perf_counter()
    if type(x) is int:
        x = gfp_encode(params, x)
    if isinstance(y, FftOperand) and y.primes == crt.primes:
        ys = y.spectrum
    else:
        ys = plan.fwd(gfp_encode(params, y) if type(y) is int else y)
    zs = plan.inv(plan.fwd(x), ys)
    if profile is not None:
        t0 = lap(profile, "convolution", t0)

    # coefficient i is the signed lift of zs[i] from [0, M), at r^i
    m, half, r = crt.modulus, crt.half_range, params.r
    if digits:
        z = settle(params, [v - m if v > half else v for v in zs])
    else:
        # Horner's rule at r, one reduction mod p
        z = 0
        for v in reversed(zs):
            z = z * r + (v - m if v > half else v)
        z %= params.p
    if profile is not None:
        lap(profile, "carry", t0)
    return z


def gfp_mul_bigint(params, x, y):
    """Reference product, inputs checked: evaluate at r, multiply, re-encode."""
    codec = radix_codec(params.r, params.k)
    return codec.encode(codec.decode(x) * codec.decode(y))


# ---------------------------------------------------------------------------
# field adapter: GF(p) elements for the fft machinery

class GfpFftField(IntModField):
    """Digit-vector field view used by dft_general over GF(r^k + 1).

    Elements are canonical digit tuples: encode and decode are the
    field's radix_codec, and decode checks its argument, so a transform
    decodes and checks each element once on entry and runs on residues
    mod p until it encodes each value once on exit.  The hot-path
    operations return residues and take residues or digit tuples: mul
    dispatches, unchecked, to the FFT pipeline or to x*y % p according to
    backend; shift(x, t) = x * r^t is a multiply by the cached r^t mod p,
    t <= 2k, and marks the field as one that fft runs on residues and
    rotates through shift.  pow is IntModField's, whose checked decode
    raises ValueError for a base that is not an element.  twiddle_table
    alone picks the plan's table: N residues on the bigint backend, N/K
    FftOperands on the fft backend.  check_base_root accepts only the
    base case of size 2k at root r.
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
        codec = radix_codec(params.r, params.k)
        self.encode = codec.encode
        self.decode = codec.decode
        self.is_element = codec.is_element
        # unchecked cores: the field's own elements are canonical
        value = codec.value
        p = params.p
        powers = [pow(params.r, t, p) for t in range(2 * params.k + 1)]
        if backend == "fft":
            self.mul = partial(_mul_fft, params, crt)
        else:
            self.mul = lambda x, y: ((x if type(x) is int else value(x))
                                     * (y if type(y) is int else value(y)) % p)
        self.shift = lambda x, t: (x if type(x) is int else value(x)) * powers[t] % p

    def twiddle_table(self, omega, N, K):
        """The bigint backend's N plain powers of omega, or on the fft
        backend omega^t, t < N/K, as N/K FftOperands: the twiddle stage
        runs omega^(a*N/K + b) as a shift by r^a, since check_base_root
        makes omega^(N/K) = r, and a multiply by omega^b."""
        if self.backend == "bigint":
            return self.power_table(omega, N)
        return [FftOperand(self.params, self.crt, self.encode(t))
                for t in self.power_table(omega, N // K)]

    def check_base_root(self, root, K):
        """Raise ValueError unless K = 2k and root is r: the paper picks
        omega with omega^(N/2k) = r, so the base case rotates by shift."""
        if K != 2 * self.params.k:
            raise ValueError("base-case size must equal 2k for this field")
        if root != self.encode(self.params.r):
            raise ValueError("omega^(N/2k) must equal the radix r")
