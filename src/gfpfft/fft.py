"""Six-step DFT of size K^e over interchangeable coefficient fields.

The transform follows the factorization

    DFT_N = L_K^N (I_J x DFT_K) L_J^N D_{K,J} (I_K x DFT_J) L_K^N,  N = J*K,

applied iteratively.  Since L_K^N (I_J x DFT_K) L_J^N = DFT_K x I_J, only
the input is permuted, by a right-to-left cascade of stride permutations;
then each level t < e, with m = K^t, runs a twiddle stage (for t > 0) and
one pass of K-point base cases on the strided lanes v[b+i::m] of every
block b of K*m entries, i < m.  Base cases for
K in {2, 4, ..., 64} are generated once by unrolling the radix-2 splitting
of DFT_K into a flat list of dft2 / twiddle / swap steps, compiled as
straight-line Python with unreduced butterflies and one reduction per
output (% q).  Over a word modulus q, the field base cases and the
negacyclic convolution kernels inline root powers as constants; a field
with shift calls it once per rotation by a power of the base root.
At e = 1 the transform is one base case.  dft_inverse runs the same plan:
the DFT at omega^(-1) is the DFT at omega with outputs 1..N-1 reversed, so
it reverses them and scales each residue by the plain int 1/N mod p.

A field defines its element form, encode(int) -> element and
decode(element) -> int, and its hot-path arithmetic: is_element and
mul(x, c), which multiplies a transform residue x by a table entry c.
IntModField below defines both for plain residues mod a prime,
mul(x, c) = x * c % p, and, through encode and decode, does the
plan-time math of every field once on native ints: pow, one and
power_table(omega, count), the plain residues omega^t, t < count.  The
field's twiddle_table(omega, N, K) is the plan's table: all N powers,
so a twiddle block is one slice multiply, or N/K entries in whatever
form mul takes fastest (GfpFftField's fft backend).  MontField is
an element codec only: a DFT is linear, so IntModField's arithmetic by
plain-residue constants, run on Montgomery residues, gives the
Montgomery form of the result.  A field with shift(x, t) = x * r^t,
such as GF(r^k + 1) on digit tuples, runs on residues mod p:
dft_general and dft_inverse decode, and so check, each element once on
entry and encode each value once on exit, and every rotation by a power
of the base root r, in a base case or a split twiddle, calls shift.
The paper picks omega with omega^(N/2k) = r, and build_plan runs the
field's check_base_root before it builds the twiddle table.  The other
fields' inputs, and every plan's root, are checked with is_element.
The arithmetic underneath checks nothing.

Plans are immutable records built only by build_plan, and shareable;
dft_general mutates exactly one caller-owned list.
"""

import time
from collections import namedtuple
from functools import lru_cache
from operator import mul

from .gfp_field import ConfigurationError
from .word_field import mont_convert_in, mont_mul

BASE_SIZES = (2, 4, 8, 16, 32, 64)

# the largest K^e build_plan accepts; ConvolutionPlan runs a length-k
# convolution, k up to gfp_field.MAX_K, as one transform of size k
MAX_N = 1 << 20


# ---------------------------------------------------------------------------
# stride permutation (the L_m^{mn} operator)

def stride_permutation(v, m, n, offset=0):
    """Transpose the n x m row-major view of v in place.

    Element j*m + i moves to position i*n + j: column i of the view is the
    extended slice [i::m], and the columns are laid out one after another.
    With an offset the permutation applies to the m*n block starting there,
    and v may extend past that block on either side.  Raises ValueError, v
    unchanged, unless m and n are positive ints, offset is a non-negative
    int and v has the block (bools are not ints here).
    """
    if {type(m), type(n), type(offset)} != {int} or min(m, n, offset + 1) < 1:
        raise ValueError("m, n must be positive ints and offset >= 0 an int")
    if len(v) < offset + m * n:
        raise ValueError("vector length must equal m*n")
    if m == 1 or n == 1:
        return v
    seg = v[offset:offset + m * n]
    out = []
    for i in range(m):
        out += seg[i::m]
    v[offset:offset + m * n] = out
    return v


# ---------------------------------------------------------------------------
# twiddle stage (the D_{K,J} operator)

def twiddle_apply(v, m, n, omega_i, field):
    """Multiply v[j*m + i] by omega_i^(i*j) for j < n blocks of m lanes.

    Decodes the m*n lanes, runs the transforms' twiddle kernel at stride
    1 on the m*n powers of omega_i and encodes the lanes back.  Raises
    ValueError, v unchanged, unless m and n are positive ints, omega_i is
    a field element, v has at least m*n entries and each of the first m*n
    is a field element.  A standalone helper: dft_general does not call it.
    """
    if {type(m), type(n)} != {int} or min(m, n) < 1:
        raise ValueError("m and n must be positive ints")
    size = m * n
    if not field.is_element(omega_i):
        raise ValueError("omega_i is not an element of the field")
    if len(v) < size or not all(map(field.is_element, v[:size])):
        raise ValueError("v must start with m*n field elements")
    lanes = list(map(field.decode, v[:size]))
    _twiddle_level_cheap(lanes, 0, m, n, 1, field.power_table(omega_i, size),
                         None, field.mul)
    v[:size] = map(field.encode, lanes)
    return v


def _twiddle_level_cheap(v, off, m, n, stride, table, shift, mul):
    # lane i of block j times omega_i^(i*j), omega_i = omega^stride: one
    # slice multiply per block from all N = n*m*stride powers; from N/K,
    # omega_base^a * omega_i^b, a, b = divmod(i*j, m), a rotated by shift
    if len(table) == n * m * stride:
        for j in range(1, n):
            b, s = off + j * m, stride * j
            v[b + 1:b + m] = map(mul, v[b + 1:b + m], table[s:s * m:s])
        return v
    for j in range(1, n):
        base = off + j * m
        for i in range(1, m):
            a, b = divmod(i * j, m)
            x = shift(v[base + i], a) if a else v[base + i]
            v[base + i] = mul(x, table[b * stride]) if b else x
    return v


# ---------------------------------------------------------------------------
# base cases

def _gen_layers(positions, unit):
    # Unrolls DFT_s = L_2 (I x DFT_2) L D_{2,s/2} (I_2 x DFT_{s/2}) L_2 into
    # layers of disjoint steps.  positions maps logical lanes to physical
    # slots; unit scales twiddle exponents so they are powers of the size-K
    # root throughout.  Returns (layers, final logical order).
    s = len(positions)
    if s == 2:
        return [[("dft2", positions[0], positions[1])]], list(positions)
    half = s // 2
    layers_a, order_a = _gen_layers(positions[0::2], unit * 2)
    layers_b, order_b = _gen_layers(positions[1::2], unit * 2)
    layers = [a + b for a, b in zip(layers_a, layers_b)]
    layers.append([("tw", order_b[t], t * unit) for t in range(1, half)])
    merged = []
    for i in range(half):
        merged.append(order_a[i])
        merged.append(order_b[i])
    layers.append([("dft2", merged[2 * i], merged[2 * i + 1]) for i in range(half)])
    return layers, merged[0::2] + merged[1::2]


@lru_cache(maxsize=None)
def base_case_ops(K):
    """The unrolled K-point DFT as a flat step list.

    Steps are ("dft2", i, j), ("tw", i, t) scaling slot i by the base
    root to the t-th power, 0 < t < K, and a trailing ("swap", i, j) layer
    that puts the output into natural order.
    """
    if K not in BASE_SIZES:
        raise ValueError("unsupported base-case size")
    layers, order = _gen_layers(list(range(K)), 1)
    ops = [step for layer in layers for step in layer]
    seen = [False] * K
    for start in range(K):
        if seen[start] or order[start] == start:
            continue
        cycle = [start]
        seen[start] = True
        t = order[start]
        while t != start:
            cycle.append(t)
            seen[t] = True
            t = order[t]
        for other in cycle[1:]:
            ops.append(("swap", cycle[0], other))
            cycle[0] = other
    return tuple(ops)


def _generate(name, args, K, unpack, prologue, dft2_line, tw_line, epilogue):
    # The one code generator: base_case_ops(K) as straight-line source over
    # a0..a(K-1), unpacked from the expression unpack, after the prologue
    # lines; compiled once and kept as fn.source.  A swap only renames, so
    # epilogue gets the output variables in natural order.
    names = ["a%d" % i for i in range(K)]
    body = ["%s, = %s" % (", ".join(names), unpack)] + prologue
    for kind, i, j in base_case_ops(K) if K > 1 else ():
        a, b = names[i], names[j]
        if kind == "dft2":
            body.append(dft2_line.format(a=a, b=b))
        elif kind == "tw":
            body.append(tw_line(a, j))
        else:
            names[i], names[j] = b, a
    body.append(epilogue(names))
    source = "def %s(%s):\n    %s\n" % (name, args, "\n    ".join(body))
    scope = {"mul": mul}
    exec(compile(source, "<%s K=%d>" % (name, K), "exec"), scope)
    scope[name].source = source
    return scope[name]


# the lazily reduced int templates: butterflies leave their sums and
# differences unreduced, and a twiddle by root^t inlines the constant
_BUTTERFLY = "{a}, {b} = {a} + {b}, {a} - {b}"


def _twiddle(root, q):
    return lambda a, t: "%s = %s * %d %% %d" % (a, a, pow(root, t, q), q)


def _base_template(q, K, args, tw_line):
    # base(v, off, s, ...): DFT_K mod q on the K entries v[off::s] from
    # off on, written back in place with one % q per output
    lanes = "v[off:off + %d * s:s]" % K
    return _generate("base", args, K, lanes, [], _BUTTERFLY, tw_line,
                     lambda out: "%s = %s" % (lanes, ", ".join(
                         "%s %% %d" % (a, q) for a in out)))


@lru_cache(maxsize=128)  # bounded: q and omega come from the caller
def _int_base(q, K, omega):
    # base(v, off, s) at the plain root omega; a DFT is linear, so on
    # Montgomery residues it returns the Montgomery form of the result
    return _base_template(q, K, "v, off, s", _twiddle(omega, q))


@lru_cache(maxsize=128)  # bounded: p comes from the caller
def _lazy_base(p, K):
    # base(v, off, s, mul_pow) mod p, rotating by mul_pow, the field's shift
    return _base_template(p, K, "v, off, s, mul_pow",
                          lambda a, t: "%s = mul_pow(%s, %d)" % (a, a, t))


def convolution_kernels(q, k, theta):
    """Compiled (fwd, inv) of the length-k negacyclic convolution mod q.

    theta is a primitive 2k-th root of unity mod q, and k is 1 or in
    BASE_SIZES.  fwd(x) weighs digit i by theta^i and transforms at
    theta^2; inv(a, b) multiplies two spectra pointwise, transforms at
    theta^-2 and scales output i by theta^-i / k.  So inv(fwd(x), fwd(y))
    is the convolution as a tuple of residues, for x of any non-negative
    ints.  Python ints cannot overflow, so only twiddles and outputs reduce.
    """
    omega = theta * theta % q
    scale = [pow(theta, -i, q) * pow(k, -1, q) % q for i in range(k)]
    fwd = _generate("fwd", "x", k, "x",
                    ["a%d *= %d" % (i, pow(theta, i, q)) for i in range(1, k)],
                    _BUTTERFLY, _twiddle(omega, q),
                    lambda out: "return (%s,)" % ", ".join(
                        "%s %% %d" % (a, q) for a in out))
    inv = _generate("inv", "x, y", k, "map(mul, x, y)", [],
                    _BUTTERFLY, _twiddle(pow(omega, -1, q), q),
                    lambda out: "return (%s,)" % ", ".join(
                        "%s * %d %% %d" % (a, c, q) for a, c in zip(out, scale)))
    return fwd, inv


# ---------------------------------------------------------------------------
# plans and the general transform

Plan = namedtuple("Plan", "field K e N omega omega_base twiddle_table")


def build_plan(field, K, e, omega):
    """Check the sizes and omega, then build the plan's twiddle table.

    K and e must have type int, so a float or a bool raises ValueError,
    and K^e above MAX_N raises ConfigurationError before K^e is computed.
    omega must be a field element with omega^N = 1, omega^(N/2) = -1, and
    the field's check_base_root must accept the base root omega^(N/K) at
    size K; GfpFftField raises there unless K = 2k and the base root is
    r.  Every check comes before field.twiddle_table(omega, N, K) builds
    the table: N residues, 44 MB at MAX_N for a 64-bit p and 97 MB for a
    473-bit p, or N/K FftOperands on GfpFftField's fft backend.  Returns
    an immutable Plan that alone holds that table.
    """
    if type(K) is not int or type(e) is not int:
        raise ValueError("K and e must be ints")
    if K not in BASE_SIZES:
        raise ValueError("unsupported base-case size")
    if e < 1:
        raise ValueError("e must be at least 1")
    if e * (K.bit_length() - 1) > MAX_N.bit_length() - 1:
        raise ConfigurationError("K^e = %d^%d exceeds MAX_N = %d"
                                 % (K, e, MAX_N))
    if not field.is_element(omega):
        raise ValueError("omega is not an element of the field")
    N, p = K ** e, field.p
    w = field.decode(omega)
    if pow(w, N, p) != 1 or pow(w, N // 2, p) != p - 1:
        raise ValueError("omega is not a primitive N-th root")
    omega_base = field.pow(omega, N // K)
    field.check_base_root(omega_base, K)
    return Plan(field, K, e, N, omega, omega_base,
                field.twiddle_table(omega, N, K))


def _base_pass(v, plan, field, m):
    # I_(N/Km) x DFT_K x I_m: DFT_K on v[b+i::m] for every block b of K*m
    # entries and every lane i < m
    K = plan.K
    if hasattr(field, "shift"):
        base, ops = _lazy_base(field.p, K), (field.shift,)
    else:
        base, ops = _int_base(field.p, K, field.decode(plan.omega_base)), ()
    for b in range(0, plan.N, K * m):
        for i in range(b, b + m):
            base(v, i, m, *ops)


def lap(profile, phase, t0):
    """Add the seconds since t0 to profile[phase]; return the time now."""
    now = time.perf_counter()
    profile[phase] = profile.get(phase, 0.0) + (now - t0)
    return now


def dft_general(v, plan, field, profile=None):
    """In-place DFT of K^e points following the six-step schedule.

    Raises ValueError, v unchanged, unless field is plan.field and v holds
    K^e field elements.  A field with shift runs on residues mod p: each
    element is decoded, and so checked, once on entry and each value
    encoded once on exit.  profile, when given, accumulates wall time per
    phase: permutation (the input cascade), basecase, twiddle and boundary
    (the element check, decode, reversal, 1/N scale and encode).
    """
    return _transform(v, plan, field, profile)


def dft_inverse(v, plan, field, profile=None):
    """Inverse transform on the forward plan: the DFT at omega^(-1) is the
    DFT at omega with outputs 1..N-1 in reverse order, then scale by 1/N."""
    return _transform(v, plan, field, profile, inverse=True)


def _transform(v, plan, field, profile, inverse=False):
    K, e, N = plan.K, plan.e, plan.N
    t0 = time.perf_counter() if profile is not None else 0
    if field is not plan.field:
        raise ValueError("field is not the plan's field")
    digits = hasattr(field, "shift")
    if len(v) != N or not (digits or all(map(field.is_element, v))):
        raise ValueError("v must hold K^e field elements")
    if digits:
        # the checked decode raises ValueError before v changes
        v[:] = map(field.decode, v)
    if profile is not None:
        t0 = lap(profile, "boundary", t0)
    for i in range(e - 1):
        size = K ** (e - i)
        sub = size // K
        for j in range(0, N, size):
            stride_permutation(v, K, sub, offset=j)
    if profile is not None:
        t0 = lap(profile, "permutation", t0)

    shift, mul = getattr(field, "shift", None), field.mul
    for t in range(e):
        m = K ** t
        if t:
            for j in range(0, N, K * m):
                _twiddle_level_cheap(v, j, m, K, N // (K * m),
                                     plan.twiddle_table, shift, mul)
            if profile is not None:
                t0 = lap(profile, "twiddle", t0)
        _base_pass(v, plan, field, m)
        if profile is not None:
            t0 = lap(profile, "basecase", t0)
    if inverse:
        # v holds residues mod p, plain or Montgomery; a DFT is linear, so
        # the plain int 1/N scales either form
        p, n_inv = field.p, pow(N, -1, field.p)
        v[:] = [x * n_inv % p for x in v[:1] + v[:0:-1]]
    if digits:
        v[:] = map(field.encode, v)
    if profile is not None:
        lap(profile, "boundary", t0)
    return v


# ---------------------------------------------------------------------------
# the word-prime field adapters

class IntModField:
    """Field view of Z/pZ on plain residues in [0, p) for the DFT machinery.

    The base of the other fields, which define their element form, encode
    and decode, and may replace the hot-path arithmetic, is_element and
    mul, and the plan hooks check_base_root and twiddle_table.  mul(x, c)
    multiplies a transform residue x by a table entry c as x * c % p; the
    entry is a plain residue, so on an encoding that is linear over
    Z/pZ, such as Montgomery form, x * c is again in that encoding.  pow,
    one and power_table are written once here on native ints.
    """

    def __init__(self, p):
        self.p = p

    def encode(self, n):
        return n % self.p

    def decode(self, a):
        return a

    def is_element(self, a):
        return type(a) is int and 0 <= a < self.p

    def mul(self, a, b):
        return a * b % self.p

    def pow(self, a, e):
        return self.encode(pow(self.decode(a), e, self.p))

    def one(self):
        return self.encode(1)

    def power_table(self, omega, count):
        """[omega^t for t < count] as plain residues."""
        w, p, wt = self.decode(omega), self.p, 1
        table = []
        for _ in range(count):
            table.append(wt)
            wt = wt * w % p
        return table

    def twiddle_table(self, omega, N, K):
        """A size-N plan's twiddle table: all N powers of omega, so a
        twiddle block is one slice multiply."""
        return self.power_table(omega, N)

    def check_base_root(self, root, K):
        """Raise ValueError if the K-point base case cannot run at root;
        every root serves here."""


class MontField(IntModField):
    """Field view of Z/qZ on Montgomery residues a * 2^64 mod q.

    An element codec only: encode and decode convert, and the transforms
    run IntModField's arithmetic on the Montgomery residues, since a DFT
    and its plain-residue twiddles are linear.
    """

    def __init__(self, ctx):
        super().__init__(ctx.q)
        self.ctx = ctx

    def encode(self, n):
        return mont_convert_in(self.ctx, n % self.p)

    def decode(self, a):
        # mont_convert_out inlined: perfbench/spans.py counts fft.mont_mul
        return mont_mul(self.ctx, a, 1)
