"""Six-step DFT of size K^e over interchangeable coefficient fields.

The transform follows the factorization

    DFT_N = L_K^N (I_J x DFT_K) L_J^N D_{K,J} (I_K x DFT_J) L_K^N,  N = J*K,

applied iteratively: a right-to-left cascade of stride permutations, one
pass of K-point base cases, then per level a twiddle stage, a permutation,
another base-case pass, and a closing permutation.  Base cases for
K in {2, 4, ..., 64} are generated once by unrolling the radix-2 splitting
of DFT_K and are interpreted as a flat list of dft2 / twiddle / swap steps;
at e = 1 the transform is one base case.

A field is any object providing add, sub, mul, pow, zero, one, inv_scalar,
power_table and root_power_mul_factory; IntModField below implements them
for plain residues mod a prime, and MontField and GfpFftField inherit the
last two.  power_table(omega, count) is the field's cached list of omega^t,
t < count; plans take their twiddle table from it, so a field may store its
entries in whatever form its mul handles fastest.
root_power_mul_factory(omega, count) returns the closure x, t -> x*omega^t
that the base cases and every twiddle stage use for powers of the base
root.  It multiplies by the power table unless the field knows a cheaper
way: GfpFftField returns a digit rotation when omega is r or 1/r, which
turns the base cases and most twiddle work into linear-time digit moves.
A field that can rotate also has shift_root and two_k; only build_plan reads
them, to check that K = 2k and that omega^(N/2k) is r or 1/r.

Plans are immutable after construction and shareable; dft_general mutates
exactly one caller-owned list.
"""

from .word_field import mont_convert_in, mont_inv, mont_mul, word_pow

BASE_SIZES = (2, 4, 8, 16, 32, 64)


# ---------------------------------------------------------------------------
# stride permutation (the L_m^{mn} operator)

def stride_permutation(v, m, n, offset=0):
    """Transpose the n x m row-major view of v in place.

    Element j*m + i moves to position i*n + j: column i of the view is the
    extended slice [i::m], and the columns are laid out one after another.
    With an offset the permutation applies to the m*n block starting there;
    deep recursion hits blocks at offset 0 that are shorter than the whole
    vector.
    """
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

def twiddle_apply(v, m, n, omega_i, field, offset=0):
    """Multiply v[j*m + i] by omega_i^(i*j) for j < n blocks of m lanes.

    Exponents are never formed with a generic power: each block keeps a
    running row step omega_i^j and each lane multiplies the running factor
    by it, so the stage costs O(m*n) multiplications.  A standalone
    helper: dft_general does not call it.
    """
    if m == 1:
        return v
    mul = field.mul
    row = omega_i
    for j in range(1, n):
        base = offset + j * m
        w = row
        v[base + 1] = mul(v[base + 1], w)
        for i in range(2, m):
            w = mul(w, row)
            v[base + i] = mul(v[base + i], w)
        row = mul(row, omega_i)
    return v


def _twiddle_level_cheap(v, off, m, n, stride, table, mul_base, mul):
    # factor omega_i^(i*j) split as omega_base^a * omega_i^b with
    # a, b = divmod(i*j, m), since omega_i^m is the base root; mul_base
    # is the field's multiplier by powers of that root
    for j in range(1, n):
        base = off + j * m
        for i in range(1, m):
            a, b = divmod(i * j, m)
            x = v[base + i]
            if a:
                x = mul_base(x, a)
            if b:
                x = mul(x, table[b * stride])
            v[base + i] = x
    return v


# ---------------------------------------------------------------------------
# base cases

def dft2(a, b, field):
    """(a, b) -> (a + b, a - b)."""
    return field.add(a, b), field.sub(a, b)


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


_base_ops_cache = {}


def base_case_ops(K):
    """The unrolled K-point DFT as a flat step list.

    Steps are ("dft2", i, j), ("tw", i, t) scaling slot i by the base
    root to the t-th power, and a trailing ("swap", i, j) layer that puts
    the output into natural order.
    """
    if K not in BASE_SIZES:
        raise ValueError("unsupported base-case size")
    ops = _base_ops_cache.get(K)
    if ops is not None:
        return ops
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
    ops = tuple(ops)
    _base_ops_cache[K] = ops
    return ops


def _run_base(v, off, ops, field, mul_pow):
    add = field.add
    sub = field.sub
    for op in ops:
        kind, i, j = op
        if kind == "dft2":
            a, b = v[off + i], v[off + j]
            v[off + i] = add(a, b)
            v[off + j] = sub(a, b)
        elif kind == "tw":
            v[off + i] = mul_pow(v[off + i], j)
        else:
            v[off + i], v[off + j] = v[off + j], v[off + i]


# ---------------------------------------------------------------------------
# plans and the general transform

class FftPlan:
    """Precomputed data for a size K^e transform at root omega."""

    def __init__(self, field, K, e, omega):
        self.field = field
        self.K = K
        self.e = e
        self.N = K ** e
        self.omega = omega
        self.omega_base = field.pow(omega, K ** (e - 1))
        self.twiddle_table = field.power_table(omega, K ** (e - 1))
        self._inverse = None
        self._n_inv = None

    def inverse(self):
        """Plan for the same size at omega^(N-1) = omega^(-1)."""
        if self._inverse is None:
            field = self.field
            omega_inv = field.pow(self.omega, self.N - 1)
            self._inverse = build_plan(field, self.K, self.e, omega_inv)
        return self._inverse

    def n_inv(self):
        if self._n_inv is None:
            self._n_inv = self.field.inv_scalar(self.N)
        return self._n_inv


def build_plan(field, K, e, omega):
    """Validate omega and precompute the twiddle table.

    The primitivity check omega^N = 1, omega^(N/2) = -1 runs here.  For
    fields with a shift root the base-case constraint K = 2k is enforced and
    omega^(N/2k) must equal the shift root r, or its inverse for plans
    running the transform backwards, so that the base root is one the
    field multiplies by with a digit rotation.
    """
    if K not in BASE_SIZES:
        raise ValueError("unsupported base-case size")
    if e < 1:
        raise ValueError("e must be at least 1")
    N = K ** e
    one = field.one()
    minus_one = field.sub(field.zero(), one)
    if field.pow(omega, N) != one or field.pow(omega, N // 2) != minus_one:
        raise ValueError("omega is not a primitive N-th root")
    shift_root = getattr(field, "shift_root", None)
    if shift_root is not None:
        two_k = field.two_k
        if K != two_k:
            raise ValueError("base-case size must equal 2k for this field")
        # inverse plans land on 1/r
        if field.pow(omega, N // two_k) not in (shift_root, field.shift_root_inv):
            raise ValueError("omega^(N/2k) must equal the radix r or 1/r")
    return FftPlan(field, K, e, omega)


def _base_pass(v, plan, field, mul_base):
    K = plan.K
    ops = base_case_ops(K)
    for j in range(0, plan.N, K):
        _run_base(v, j, ops, field, mul_base)


def dft_general(v, plan, field, profile=None):
    """In-place DFT of K^e points following the six-step schedule.

    profile, when given, is a mapping that accumulates wall time per phase
    under the keys "permutation", "basecase", "twiddle".
    """
    K, e, N = plan.K, plan.e, plan.N
    if len(v) != N:
        raise ValueError("vector length must equal K^e")
    timer = None
    if profile is not None:
        import time
        timer = time.perf_counter

    def tick(phase, t0):
        profile[phase] = profile.get(phase, 0.0) + (timer() - t0)

    t0 = timer() if timer else 0
    for i in range(e - 1):
        size = K ** (e - i)
        sub = size // K
        for j in range(0, N, size):
            stride_permutation(v, K, sub, offset=j)
    if timer:
        tick("permutation", t0)

    mul_base = field.root_power_mul_factory(plan.omega_base, K)
    t0 = timer() if timer else 0
    _base_pass(v, plan, field, mul_base)
    if timer:
        tick("basecase", t0)

    for i in range(e - 2, -1, -1):
        size = K ** (e - i)
        m = K ** (e - i - 1)
        stride = K ** i

        t0 = timer() if timer else 0
        for j in range(0, N, size):
            _twiddle_level_cheap(v, j, m, K, stride, plan.twiddle_table,
                                 mul_base, field.mul)
        if timer:
            tick("twiddle", t0)

        t0 = timer() if timer else 0
        for j in range(0, N, size):
            stride_permutation(v, m, K, offset=j)
        if timer:
            tick("permutation", t0)

        t0 = timer() if timer else 0
        _base_pass(v, plan, field, mul_base)
        if timer:
            tick("basecase", t0)

        t0 = timer() if timer else 0
        for j in range(0, N, size):
            stride_permutation(v, K, m, offset=j)
        if timer:
            tick("permutation", t0)
    return v


def dft_inverse(v, plan, field, profile=None):
    """Inverse transform: dft_general at omega^(-1), then scale by 1/N."""
    dft_general(v, plan.inverse(), field, profile=profile)
    n_inv = plan.n_inv()
    mul = field.mul
    for i in range(len(v)):
        v[i] = mul(v[i], n_inv)
    return v


# ---------------------------------------------------------------------------
# the word-prime field adapters

class IntModField:
    """Field view of Z/pZ on plain residues in [0, p) for the DFT machinery.

    The base of the other fields: power_table and root_power_mul_factory
    are written once here on top of one, mul and the _prepared hook.
    """

    def __init__(self, p):
        self.p = p
        self._tables = {}

    def add(self, a, b):
        c = a + b
        p = self.p
        return c - p if c >= p else c

    def sub(self, a, b):
        c = a - b
        return c + self.p if c < 0 else c

    def mul(self, a, b):
        return a * b % self.p

    def pow(self, a, e):
        return pow(a, e, self.p)

    def zero(self):
        return 0

    def one(self):
        return 1

    def inv_scalar(self, n):
        return pow(n, -1, self.p)

    def _prepared(self, a):
        # a in the form mul takes fastest as its right operand
        return a

    def power_table(self, omega, count):
        """[omega^t for t < count], cached, each entry _prepared."""
        key = (omega, count)
        table = self._tables.get(key)
        if table is None:
            table = [self.one()]
            for _ in range(count - 1):
                table.append(self.mul(table[-1], omega))
            table = self._tables[key] = [self._prepared(t) for t in table]
        return table

    def root_power_mul_factory(self, omega, count):
        """Multiplier closure for x * omega^t, t < count, from a power table."""
        table = self.power_table(omega, count)
        mul = self.mul

        def mul_pow(x, t):
            return mul(x, table[t])

        return mul_pow


class MontField(IntModField):
    """Field view of Z/qZ on Montgomery residues for the DFT machinery."""

    def __init__(self, ctx):
        super().__init__(ctx.q)
        self.ctx = ctx

    def mul(self, a, b):
        return mont_mul(self.ctx, a, b)

    def pow(self, a, e):
        return word_pow(self.ctx, a, e)

    def one(self):
        return self.ctx.one_mont

    def inv_scalar(self, n):
        return mont_inv(self.ctx, mont_convert_in(self.ctx, n % self.ctx.q))
