"""Six-step transform machinery against the quadratic-time oracle."""

import ast
import random
from functools import partial
from types import SimpleNamespace

import pytest

from gfpfft import fft
from gfpfft.fft import (
    BASE_SIZES, IntModField, MontField, base_case_ops, build_plan,
    dft_general, dft_inverse, stride_permutation, twiddle_apply,
)
from gfpfft.gfp_field import (
    MAX_K, ConfigurationError, GfpParams, digits_value, gfp_decode,
    gfp_encode, gfp_find_nth_root, gfp_primitive_root, is_canonical,
)
from gfpfft.gfp_mult import FftOperand, GfpFftField
from gfpfft.oracle import oracle_is_probable_prime, oracle_naive_dft
from gfpfft.word_field import (
    P1, find_nth_root, mont_convert_in, mont_convert_out, word_prime,
    word_primitive_root,
)

SEED = 0xF1F0

# the unrolled 8-point schedule: three DFT2 layers with merged twiddles,
# then the output-order fixup as transpositions
DFT8_OPS = (
    ("dft2", 0, 4), ("dft2", 2, 6), ("dft2", 1, 5), ("dft2", 3, 7),
    ("tw", 6, 2), ("tw", 7, 2),
    ("dft2", 0, 2), ("dft2", 4, 6), ("dft2", 1, 3), ("dft2", 5, 7),
    ("tw", 5, 1), ("tw", 3, 2), ("tw", 7, 3),
    ("dft2", 0, 1), ("dft2", 4, 5), ("dft2", 2, 3), ("dft2", 6, 7),
    ("swap", 1, 4), ("swap", 3, 6),
)

GFP_R = (1 << 59) + (1 << 16)  # k=8, r^8+1 prime, supports base case K=16


def gf257():
    return IntModField(257)


def root_257(order):
    # 3 generates the full group mod 257
    w = pow(3, 256 // order, 257)
    assert pow(w, order // 2, 257) == 256
    return w


def gfp_root(params, N):
    g = gfp_find_nth_root(params, N, seed=0)
    return gfp_primitive_root(params, N, g)


# ---------------------------------------------------------------------------
# permutations and twiddles

def test_stride_permutation_example():
    v = list(range(8))
    assert stride_permutation(v, 2, 4) == [0, 2, 4, 6, 1, 3, 5, 7]


@pytest.mark.parametrize("m,n", [(2, 4), (8, 4), (16, 16), (8, 64), (3, 5)])
@pytest.mark.parametrize("offset", [1, 2, 16, 100])
def test_stride_permutation_inverse_pair(m, n, offset):
    # the m*n block sits at the offset, with entries on both sides of it
    rng = random.Random(SEED)
    v = [rng.randrange(1000) for _ in range(offset + m * n + 3)]
    w = list(v)
    stride_permutation(w, m, n, offset)
    stride_permutation(w, n, m, offset)
    assert w == v
    block = v[offset:offset + m * n]
    stride_permutation(w, m, n, offset)
    assert w[:offset] == v[:offset] and w[offset + m * n:] == v[offset + m * n:]
    assert w[offset:offset + m * n] == stride_permutation(block, m, n)


def test_stride_permutation_definition():
    # element j*m + i lands at i*n + j
    m, n = 4, 8
    v = list(range(m * n))
    w = list(v)
    stride_permutation(w, m, n)
    for j in range(n):
        for i in range(m):
            assert w[i * n + j] == v[j * m + i]


def test_stride_permutation_offset_blocks():
    rng = random.Random(SEED)
    v = [rng.randrange(1000) for _ in range(32)]
    first, second = v[:16], v[16:]
    stride_permutation(v, 4, 4, offset=16)
    stride_permutation(second, 4, 4)
    assert v == first + second


def test_stride_permutation_length_check():
    with pytest.raises(ValueError):
        stride_permutation(list(range(7)), 2, 4)


@pytest.mark.parametrize("n,m,sizes", [
    (16, -2, (4,)), (16, 4, (-2,)), (8, 2, (2, -4)), (8, 0, (8,)),
    (8, True, (8,)), (8, 2, (True,)), (8, 2, (2, True)), (8, 2.0, (4,)),
    (8, 2, (2, 0.0)),
])
def test_stride_permutation_rejects_bad_sizes(n, m, sizes):
    # unchecked, a negative m deletes entries, a negative n permutes a
    # smaller block and a negative offset leaves v as it is
    v = list(range(n))
    with pytest.raises(ValueError):
        stride_permutation(v, m, *sizes)
    assert v == list(range(n))


@pytest.mark.parametrize("m,n", [(-2, -3), (2, -4), (0, 8), (True, 8), (2, 4.0)])
def test_twiddle_apply_rejects_bad_sizes(m, n):
    v = [1] * 8
    with pytest.raises(ValueError, match="positive ints"):
        twiddle_apply(v, m, n, 5, IntModField(97))
    assert v == [1] * 8


@pytest.mark.parametrize("kind", ["intmod", "mont", "fft", "bigint"])
def test_twiddle_apply_powers(kind):
    # over MontField both the lanes and omega_i are Montgomery residues,
    # over GF(r^k + 1) digit tuples; each lane is an element again and is
    # checked after decoding.  A vector shorter than m*n, a non-element in
    # lane 0 (factor 1) or in the last lane, or a non-element omega_i
    # raises, v unchanged
    if kind == "intmod":
        field, p, w = gf257(), 257, root_257(16)
        bad = [257 + 7, -3, 1.0]
    elif kind == "mont":
        field, p, w = MontField(word_prime(P1)), P1, find_nth_root(P1, 16)
        bad = [P1 + 7, -3, 1.0]
    else:
        params = GfpParams(GFP_R, 8)
        field, p = GfpFftField(params, backend=kind), params.p
        w = gfp_decode(params, gfp_root(params, 16))
        bad = [(GFP_R + 5,) + (0,) * 7, (1, 2), 3]
    rng = random.Random(SEED)
    m, n = 4, 4
    v = [0, 1, p - 2, p - 1] + [rng.randrange(p) for _ in range(m * n - 4)]
    rng.shuffle(v)
    got = list(map(field.encode, v))
    twiddle_apply(got, m, n, field.encode(w), field)
    for j in range(n):
        for i in range(m):
            want = v[j * m + i] * pow(w, i * j, p) % p
            assert field.is_element(got[j * m + i])
            assert field.decode(got[j * m + i]) == want
    short = list(map(field.encode, v[:m * n - 1]))
    with pytest.raises(ValueError):
        twiddle_apply(short, m, n, field.encode(w), field)
    assert short == list(map(field.encode, v[:m * n - 1]))
    for x in bad:
        for i in (0, m * n - 1):
            got = list(map(field.encode, v))
            got[i] = x
            with pytest.raises(ValueError):
                twiddle_apply(got, m, n, field.encode(w), field)
            assert got[:i] + got[i + 1:] == [field.encode(a) for a in v[:i] + v[i + 1:]]
            assert got[i] is x
        # nor is a non-element omega_i
        got = list(map(field.encode, v))
        with pytest.raises(ValueError):
            twiddle_apply(got, m, n, x, field)
        assert got == list(map(field.encode, v))


def test_twiddle_diagonal_structure():
    # D_{2,4} over p = r^4 + 1 must be (1,1,1,1, 1,r,r^2,r^3)
    params = GfpParams((1 << 64) - (1 << 50), 4)
    field = GfpFftField(params, backend="bigint")
    r_elem = gfp_encode(params, params.r)
    v = [field.one()] * 8
    twiddle_apply(v, 4, 2, r_elem, field)
    want = [1, 1, 1, 1, 1, params.r, params.r ** 2, params.r ** 3]
    assert [gfp_decode(params, x) for x in v] == want


# ---------------------------------------------------------------------------
# base cases

def test_base_case_ops_dft8_transcript():
    assert base_case_ops(8) == DFT8_OPS


@pytest.mark.parametrize("K", BASE_SIZES)
def test_base_case_ops_shape(K):
    import math
    ops = base_case_ops(K)
    kinds = [op[0] for op in ops]
    assert set(kinds) <= {"dft2", "tw", "swap"}
    assert kinds.count("dft2") == K // 2 * int(math.log2(K))
    for op in ops:
        assert 0 <= op[1] < K
        if op[0] != "tw":
            assert 0 <= op[2] < K
        else:
            assert 0 < op[2] < K  # unit twiddles are never emitted


@pytest.mark.parametrize("K", BASE_SIZES)
def test_base_case_matches_naive(K):
    # at e = 1 the transform is one base case
    field = gf257()
    w = root_257(K)
    plan = build_plan(field, K, 1, w)
    rng = random.Random(SEED ^ K)
    for _ in range(20):
        v = [rng.randrange(257) for _ in range(K)]
        assert dft_general(list(v), plan, field) == oracle_naive_dft(v, w, 257)


def test_base_case_montgomery_field():
    ctx = word_prime(P1)
    field = MontField(ctx)
    w = word_primitive_root(ctx, 8)
    rng = random.Random(SEED)
    v = [rng.randrange(P1) for _ in range(8)]
    vm = [mont_convert_in(ctx, a) for a in v]
    dft_general(vm, build_plan(field, 8, 1, w), field)
    got = [mont_convert_out(ctx, a) for a in vm]
    assert got == oracle_naive_dft(v, mont_convert_out(ctx, w), P1)


@pytest.mark.parametrize("K", BASE_SIZES)
def test_field_base_case_is_straight_line(K):
    # every compiled template at size K: the int field base case, the
    # GF(p) base case and both convolution kernels at k = K
    int_base = fft._int_base(P1, K, find_nth_root(P1, K))
    fwd, inv = fft.convolution_kernels(P1, K, find_nth_root(P1, 2 * K))
    for fn in (int_base, fft._lazy_base(P1, K), fwd, inv):
        tree = ast.parse(fn.source)
        assert not [n for n in ast.walk(tree)
                    if isinstance(n, (ast.For, ast.While, ast.comprehension))]
    # the int base case calls nothing and reduces each output once
    tree = ast.parse(int_base.source)
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
    outputs = tree.body[0].body[-1].value.elts
    assert len(outputs) == K
    assert all(isinstance(o.op, ast.Mod) and o.right.value == P1 for o in outputs)


@pytest.mark.parametrize("K", BASE_SIZES)
def test_lazy_base_case_is_straight_line(K):
    # the GF(p) template calls only the field's mul_pow, once per
    # rotation, and reduces each output once with an inline % p
    p = GfpParams(4, 2).p
    tree = ast.parse(fft._lazy_base(p, K).source)
    assert not [n for n in ast.walk(tree)
                if isinstance(n, (ast.For, ast.While, ast.comprehension))]
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
    assert {c.func.id for c in calls} <= {"mul_pow"}
    assert len(calls) == sum(op[0] == "tw" for op in fft.base_case_ops(K))
    outputs = tree.body[0].body[-1].value.elts
    assert len(outputs) == K
    assert all(isinstance(o.op, ast.Mod) and o.right.value == p for o in outputs)


@pytest.mark.parametrize("K", BASE_SIZES)
def test_field_base_case_montgomery_every_size(K):
    # the int base case runs on Montgomery residues with plain root
    # constants and returns the Montgomery form of the DFT
    ctx = word_prime(P1)
    field = MontField(ctx)
    w = word_primitive_root(ctx, K)
    rng = random.Random(SEED ^ K)
    for _ in range(5):
        v = [rng.randrange(P1) for _ in range(K)]
        vm = [mont_convert_in(ctx, a) for a in v]
        dft_general(vm, build_plan(field, K, 1, w), field)
        got = [mont_convert_out(ctx, a) for a in vm]
        assert got == oracle_naive_dft(v, mont_convert_out(ctx, w), P1)


@pytest.mark.parametrize("backend", ["fft", "bigint"])
@pytest.mark.parametrize("k,r", [(8, GFP_R), (2, 4)])
def test_field_base_case_gfp_matches_naive(backend, k, r):
    # e = 1 at K = 2k: every twiddle of the base case is a multiply by a
    # power of r, and the inverse runs the same plan
    params = GfpParams(r, k)
    field = GfpFftField(params, backend=backend)
    K = 2 * k
    omega = gfp_root(params, K)
    plan = build_plan(field, K, 1, omega)
    w = gfp_decode(params, omega)
    rng = random.Random(SEED ^ k)
    for _ in range(5):
        v = [rng.randrange(params.p) for _ in range(K)]
        x = [gfp_encode(params, a) for a in v]
        out = dft_general(list(x), plan, field)
        assert [gfp_decode(params, a) for a in out] == \
            oracle_naive_dft(v, w, params.p)
        assert dft_inverse(out, plan, field) == x


@pytest.mark.parametrize("name", ["intmod", "mont", "fft-17", "bigint-17"])
def test_base_pass_runs_base_case_on_strided_lanes(name):
    # I x DFT_K x I_m: for m in 1, K, K^2, _base_pass runs DFT_K at the
    # base root on the K entries v[b+i::m] of every block b of K*m
    # entries, i < m, on residues as _transform hands them over:
    # Montgomery residues for MontField, residues mod p for GF(r^k + 1)
    if name == "intmod":
        field, K = gf257(), 4
        plan = build_plan(field, K, 1, root_257(K))
    elif name == "mont":
        ctx = word_prime(P1)
        field, K = MontField(ctx), 8
        plan = build_plan(field, K, 1, word_primitive_root(ctx, K))
    else:
        params = GfpParams(4, 2)
        field, K = GfpFftField(params, backend=name.partition("-")[0]), 4
        plan = build_plan(field, K, 1, gfp_root(params, K))
    residue, value = (field.encode, field.decode) if name == "mont" else (int, int)
    p, N = field.p, K ** 3
    w = field.decode(plan.omega_base)
    # _base_pass reads K, N and omega_base: N = K^3 holds one block of
    # K^3 entries at m = K^2, also where K^3 does not divide p - 1
    plan = SimpleNamespace(K=K, N=N, omega_base=plan.omega_base)
    rng = random.Random(SEED ^ K)
    for m in (1, K, K * K):
        ints = [0, 1, p - 2, p - 1] + [rng.randrange(p) for _ in range(N - 4)]
        rng.shuffle(ints)
        v = list(map(residue, ints))
        fft._base_pass(v, plan, field, m)
        for b in range(0, N, K * m):
            for i in range(b, b + m):
                lanes = slice(i, b + K * m, m)
                assert [value(x) for x in v[lanes]] == \
                    oracle_naive_dft(ints[lanes], w, p)


# ---------------------------------------------------------------------------
# general transforms

def test_dft_general_matches_naive_gf257():
    field = gf257()
    for K, e in ((8, 2), (16, 2)):
        w = root_257(K ** e)
        plan = build_plan(field, K, e, w)
        rng = random.Random(SEED ^ K)
        v = [rng.randrange(257) for _ in range(K ** e)]
        assert dft_general(list(v), plan, field) == oracle_naive_dft(v, w, 257)


def test_dft_general_matches_naive_montgomery():
    ctx = word_prime(P1)
    field = MontField(ctx)
    w = word_primitive_root(ctx, 64)
    plan = build_plan(field, 8, 2, w)
    rng = random.Random(SEED)
    v = [rng.randrange(P1) for _ in range(64)]
    vm = [mont_convert_in(ctx, a) for a in v]
    dft_general(vm, plan, field)
    got = [mont_convert_out(ctx, a) for a in vm]
    assert got == oracle_naive_dft(v, mont_convert_out(ctx, w), P1)


def test_dft_general_length_check():
    field = gf257()
    plan = build_plan(field, 8, 2, root_257(64))
    with pytest.raises(ValueError):
        dft_general([1] * 65, plan, field)


def _noncanonical_form(params, x):
    # the value of x with one unit of digit i+1 moved down as r to digit i
    y = list(x)
    i = next(i for i in range(params.k - 1) if y[i + 1])
    y[i] += params.r
    y[i + 1] -= 1
    return tuple(y)


def _transform_with_non_elements(kind):
    # (field, plan, a valid input vector, non-element entries, non-element
    # forms of the plan's root)
    if kind == "intmod":
        field = gf257()
        w = root_257(64)
        return (field, build_plan(field, 8, 2, w), list(range(64)),
                [-3, 257, 0.5, True], [w - 257, w + 257])
    if kind == "mont":
        ctx = word_prime(P1)
        field = MontField(ctx)
        w = word_primitive_root(ctx, 64)
        vm = [mont_convert_in(ctx, a) for a in range(64)]
        return field, build_plan(field, 8, 2, w), vm, [P1], [w + P1]
    params = GfpParams(GFP_R, 8)
    field = GfpFftField(params, backend=kind)
    w = gfp_root(params, 256)
    v = [gfp_encode(params, 3 * i + 1) for i in range(256)]
    r_below_top = (params.r,) + (0,) * (params.k - 1)
    fraction = (1.5,) + (0,) * (params.k - 1)
    return (field, build_plan(field, 16, 2, w), v, [r_below_top, fraction],
            [_noncanonical_form(params, w)])


@pytest.mark.parametrize("kind", ["intmod", "mont", "fft", "bigint"])
def test_transforms_reject_non_elements(kind):
    field, plan, v, bad_entries, bad_roots = _transform_with_non_elements(kind)
    for bad in bad_entries:
        assert not field.is_element(bad)
        for pos in (0, len(v) - 1):
            u = list(v)
            u[pos] = bad
            with pytest.raises(ValueError):
                dft_general(u, plan, field)
            with pytest.raises(ValueError):
                dft_inverse(list(u), plan, field)
    for w in bad_roots:
        if kind in ("fft", "bigint"):
            # the root's value in a non-canonical form, which pow refuses
            assert digits_value(field.params, w) == field.decode(plan.omega)
            with pytest.raises(ValueError):
                field.pow(w, plan.N)
        else:
            assert field.pow(w, plan.N) == field.pow(plan.omega, plan.N)
        with pytest.raises(ValueError):
            build_plan(field, plan.K, plan.e, w)
    assert all(map(field.is_element, dft_general(list(v), plan, field)))


@pytest.mark.parametrize("kind", ["intmod", "mont", "fft", "bigint"])
def test_transforms_leave_v_unchanged_on_non_element(kind):
    # a GF(p) field's checked decode is the input check: it raises
    # before v is overwritten, as is_element does for the other fields
    field, plan, v, bad_entries, _ = _transform_with_non_elements(kind)
    for bad in bad_entries:
        for pos in (0, len(v) // 2, len(v) - 1):
            for transform in (dft_general, dft_inverse):
                u = list(v)
                u[pos] = bad
                want = list(u)
                with pytest.raises(ValueError):
                    transform(u, plan, field)
                assert u == want and all(a is b for a, b in zip(u, want))


@pytest.mark.parametrize("kind", ["intmod", "mont", "fft", "bigint"])
def test_transforms_run_only_on_the_plans_field(kind):
    # a plan runs with the field object it was built over: an equal field
    # built again, another kind, or IntModField(p) reading a MontField(p)
    # plan's Montgomery root as a plain residue, raises with v unchanged
    field, plan, v, _, _ = _transform_with_non_elements(kind)
    if kind == "intmod":
        again = IntModField(field.p)
    elif kind == "mont":
        again = MontField(field.ctx)
    else:
        again = GfpFftField(field.params, field.crt, backend=kind)
    others = [again, IntModField(field.p)] + [
        _transform_with_non_elements(other)[0]
        for other in ("intmod", "mont", "fft", "bigint") if other != kind]
    for other in others:
        for transform in (dft_general, dft_inverse):
            u = list(v)
            with pytest.raises(ValueError, match="plan's field"):
                transform(u, plan, other)
            assert u == v and all(a is b for a, b in zip(u, v))


def test_dft_linearity():
    field = gf257()
    plan = build_plan(field, 8, 2, root_257(64))
    rng = random.Random(SEED)
    x = [rng.randrange(257) for _ in range(64)]
    y = [rng.randrange(257) for _ in range(64)]
    a = rng.randrange(1, 257)
    lhs = dft_general([(a * u + w) % 257 for u, w in zip(x, y)], plan, field)
    fx = dft_general(list(x), plan, field)
    fy = dft_general(list(y), plan, field)
    assert lhs == [(a * u + w) % 257 for u, w in zip(fx, fy)]


def test_convolution_theorem_cyclic():
    field = gf257()
    n = 64
    plan = build_plan(field, 8, 2, root_257(n))
    rng = random.Random(SEED)
    x = [rng.randrange(257) for _ in range(n)]
    y = [rng.randrange(257) for _ in range(n)]
    want = [0] * n
    for i in range(n):
        for j in range(n):
            want[(i + j) % n] = (want[(i + j) % n] + x[i] * y[j]) % 257
    fx = dft_general(list(x), plan, field)
    fy = dft_general(list(y), plan, field)
    fz = [u * w % 257 for u, w in zip(fx, fy)]
    assert dft_inverse(fz, plan, field) == want


def test_inverse_roundtrip_small():
    field = gf257()
    plan = build_plan(field, 16, 2, root_257(256))
    rng = random.Random(SEED)
    for _ in range(5):
        v = [rng.randrange(257) for _ in range(256)]
        w = dft_general(list(v), plan, field)
        assert dft_inverse(w, plan, field) == v


def test_inverse_roundtrip_gfp():
    params = GfpParams(GFP_R, 8)
    field = GfpFftField(params, backend="bigint")
    N = 256
    plan = build_plan(field, 16, 2, gfp_root(params, N))
    rng = random.Random(SEED)
    for _ in range(3):
        v = [gfp_encode(params, rng.randrange(params.p)) for _ in range(N)]
        w = dft_general(list(v), plan, field)
        assert dft_inverse(w, plan, field) == v


INVERSE_CASES = ["intmod", "mont", "fft", "bigint", "fft-17", "bigint-17"]


def _inverse_case(name):
    # (field, K, e, plain root, p, encode, decode): N = 256 over P1 and
    # over GF(r^k + 1) at k = 8, N = 16 over GF(4^2 + 1) = GF(17)
    if name in ("intmod", "mont"):
        ctx = word_prime(P1)
        w = find_nth_root(P1, 256)
        if name == "intmod":
            return IntModField(P1), 16, 2, w, P1, int, int
        return (MontField(ctx), 16, 2, w, P1, partial(mont_convert_in, ctx),
                partial(mont_convert_out, ctx))
    backend, _, small = name.partition("-")
    params = GfpParams(4, 2) if small else GfpParams(GFP_R, 8)
    K = 2 * params.k
    w = gfp_decode(params, gfp_root(params, K * K))
    return (GfpFftField(params, backend=backend), K, 2, w, params.p,
            partial(gfp_encode, params), partial(gfp_decode, params))


@pytest.mark.parametrize("name", INVERSE_CASES)
def test_dft_inverse_is_naive_dft_at_inverse_root(name):
    # the forward plan read backwards: the DFT at omega^-1, times 1/N
    field, K, e, w, p, enc, dec = _inverse_case(name)
    N = K ** e
    plan = build_plan(field, K, e, enc(w))
    rng = random.Random(SEED)
    ints = [0, 1, p - 2, p - 1] + [rng.randrange(p) for _ in range(N - 4)]
    rng.shuffle(ints)
    n_inv = pow(N, -1, p)
    want = [a * n_inv % p for a in oracle_naive_dft(ints, pow(w, -1, p), p)]
    assert [dec(x) for x in dft_inverse(list(map(enc, ints)), plan, field)] == want


@pytest.mark.parametrize("name", INVERSE_CASES)
def test_dft_inverse_builds_no_plan(name, monkeypatch):
    # the inverse runs the forward plan: neither transform builds a plan
    # or asks the field for a table; the plan holds its twiddle table
    field, K, e, w, p, enc, dec = _inverse_case(name)
    plan = build_plan(field, K, e, enc(w))
    v = list(map(enc, range(K ** e)))
    plans, tables = [], []
    monkeypatch.setattr(fft, "build_plan",
                        lambda *args: plans.append(args) or build_plan(*args))
    power_table = field.power_table
    monkeypatch.setattr(field, "power_table",
                        lambda *args: tables.append(args) or power_table(*args))
    dft_general(list(v), plan, field)
    dft_inverse(list(v), plan, field)
    assert plans == [] and tables == []


def test_profile_accumulates_phases():
    field = gf257()
    plan = build_plan(field, 8, 2, root_257(64))
    profile = {}
    dft_general([0] * 64, plan, field, profile=profile)
    assert set(profile) == {"permutation", "basecase", "twiddle", "boundary"}
    assert all(t >= 0 for t in profile.values())


# ---------------------------------------------------------------------------
# GFP plan constraints and the cheap twiddle path

@pytest.mark.parametrize("backend", ["fft", "bigint"])
def test_gfp_dft_k2_matches_naive(backend):
    # p = 4^2 + 1 = 17 needs base case K = 2k = 4
    params = GfpParams(4, 2)
    field = GfpFftField(params, backend=backend)
    omega = gfp_root(params, 16)
    plan = build_plan(field, 4, 2, omega)
    w = gfp_decode(params, omega)
    rng = random.Random(SEED)
    for _ in range(5):
        v = [rng.randrange(17) for _ in range(16)]
        got = dft_general([gfp_encode(params, a) for a in v], plan, field)
        assert [gfp_decode(params, x) for x in got] == oracle_naive_dft(v, w, 17)
        assert dft_inverse(got, plan, field) == [gfp_encode(params, a) for a in v]


def test_gfp_plan_base_root_is_radix():
    params = GfpParams(GFP_R, 8)
    field = GfpFftField(params, backend="bigint")
    plan = build_plan(field, 16, 2, gfp_root(params, 256))
    assert plan.omega_base == field.encode(params.r)


def test_cheap_twiddle_identity():
    # (x * r^i) * omega^j = x * omega^(i*N/K + j), the relation that lets
    # twiddle stages trade generic powers for digit rotations
    params = GfpParams(GFP_R, 8)
    field = GfpFftField(params, backend="bigint")
    K, e = 16, 2
    N = K ** e
    omega = gfp_root(params, N)
    rng = random.Random(SEED)
    for _ in range(20):
        x = gfp_encode(params, rng.randrange(params.p))
        i = rng.randrange(2 * params.k + 1)
        j = rng.randrange(N // K)
        lhs = field.mul(field.shift(x, i), field.pow(omega, j))
        rhs = field.mul(x, field.pow(omega, i * N // K + j))
        assert lhs == rhs


def _level_field(kind, K, e):
    # a field of the named kind and a primitive K^e-th root in it
    if kind in ("intmod", "mont"):
        ctx = word_prime(P1)
        w = word_primitive_root(ctx, K ** e)
        if kind == "mont":
            return MontField(ctx), w
        return IntModField(P1), mont_convert_out(ctx, w)
    backend, _, size = kind.partition("-")
    params = GfpParams(4, 2) if size else GfpParams(GFP_R, 8)
    return GfpFftField(params, backend=backend), gfp_root(params, K ** e)


@pytest.mark.parametrize("kind, K, e", [
    ("intmod", 8, 3), ("mont", 8, 3), ("fft", 16, 2), ("fft", 16, 3),
    ("bigint", 16, 2), ("bigint", 16, 3), ("fft-17", 4, 2), ("bigint-17", 4, 2),
])
def test_twiddle_level_matches_native_pow(kind, K, e):
    # on every level m = K^t, lane i of block j leaves the twiddle stage as
    # x * omega^(s*i*j), s = N/(K*m), whether the plan holds all N powers
    # or, on the fft backend, N/K operands and splits off the base root
    field, omega = _level_field(kind, K, e)
    plan = build_plan(field, K, e, omega)
    p, N, w = field.p, K ** e, field.decode(omega)
    assert len(plan.twiddle_table) == (N // K if kind.startswith("fft") else N)
    rng = random.Random(SEED)
    for t in range(1, e):
        m = K ** t
        s = N // (K * m)
        x = [0, 1, p - 2, p - 1] + [rng.randrange(p) for _ in range(N - 4)]
        v = list(x)
        for off in range(0, N, K * m):
            fft._twiddle_level_cheap(v, off, m, K, s, plan.twiddle_table,
                                     getattr(field, "shift", None), field.mul)
        assert v == [x[off + j * m + i] * pow(w, s * i * j, p) % p
                     for off in range(0, N, K * m)
                     for j in range(K) for i in range(m)]


@pytest.mark.parametrize("backend", ["fft", "bigint"])
def test_gfp_plan_takes_twiddle_table_from_field(backend):
    # the field's twiddle_table is the plan's table.  The fft backend
    # holds N/K operands and splits each factor; the bigint backend
    # multiplies residues, so it holds all N plain powers
    params = GfpParams(GFP_R, 8)
    field = GfpFftField(params, backend=backend)
    omega = gfp_root(params, 256)
    plan = build_plan(field, 16, 2, omega)
    table = field.twiddle_table(omega, 256, 16)
    if backend == "fft":
        assert all(type(t) is FftOperand for t in table)
        assert table == [field.pow(omega, t) for t in range(16)]
    else:
        assert all(type(t) is int for t in table)
        w, p = field.decode(omega), params.p
        assert table == [pow(w, t, p) for t in range(256)]
    assert plan.twiddle_table == table
    rng = random.Random(SEED)
    v = [gfp_encode(params, rng.randrange(params.p)) for _ in range(256)]
    assert dft_inverse(dft_general(list(v), plan, field), plan, field) == v


@pytest.mark.parametrize("backend", ["fft", "bigint"])
def test_gfp_transforms_hand_back_canonical_tuples(backend):
    # the transforms run on residues inside; dft_general, dft_inverse and
    # twiddle_apply leave only canonical digit tuples in v, and an input
    # that is not an element raises before v is changed
    params = GfpParams(4, 2)  # p = 17, base case K = 4
    field = GfpFftField(params, backend=backend)
    plan = build_plan(field, 4, 2, gfp_root(params, 16))
    v = [gfp_encode(params, a) for a in range(16, 0, -1)]  # p - 1 first

    def canonical(w):
        return all(type(x) is tuple and is_canonical(params, x) for x in w)

    for run in (dft_general, dft_inverse):
        assert canonical(run(list(v), plan, field))
    assert canonical(twiddle_apply(list(v), 4, 4, gfp_encode(params, 2), field))
    # nor is an int entry, the field's inner form, or None
    for bad in [(4, 0), (1, 4), (0.0, 1), (1, 2, 0), 3, None]:
        w = list(v)
        w[7] = bad
        for run in (dft_general, dft_inverse):
            with pytest.raises(ValueError):
                run(w, plan, field)
            assert w[:7] == v[:7] and w[8:] == v[8:] and w[7] == bad


def _fuzz_fields(rng):
    # seeded draws of prime p = r^k + 1 for k in 1, 2, 4, 8: every radix
    # below max(k, 3) that gives a prime (r < k for k = 4 and 8), then two
    # random multiples of 4, so that (2k)^2 divides p - 1 = r^k; a size
    # (2k)^e that does not divide p - 1 is skipped
    for k in (1, 2, 4, 8):
        found = [r for r in range(2, max(k, 3))
                 if oracle_is_probable_prime(r ** k + 1, 20)]
        want = len(found) + 2
        while len(found) < want:
            r = 4 * rng.randrange(1, 1 << 14)
            if r not in found and oracle_is_probable_prime(r ** k + 1, 20):
                found.append(r)
        for r in found:
            for e in (1, 2):
                if r ** k % (2 * k) ** e == 0:
                    yield GfpParams(r, k), e


def test_gfp_transform_fuzz_small_fields():
    # forward and inverse K = 2k transforms over drawn fields, both
    # backends, against the naive DFT; inputs hold 0, 1, r, p - 2, p - 1
    rng = random.Random(SEED ^ 0xF022)
    seen = set()
    for params, e in _fuzz_fields(rng):
        p, K = params.p, 2 * params.k
        N = K ** e
        omega = gfp_root(params, N)
        w = gfp_decode(params, omega)
        ints = [0, p - 1, 1, params.r, p - 2][:N]
        ints += [rng.randrange(p) for _ in range(N - len(ints))]
        rng.shuffle(ints)
        want = oracle_naive_dft(ints, w, p)
        n_inv = pow(N, -1, p)
        want_inv = [a * n_inv % p for a in oracle_naive_dft(ints, pow(w, -1, p), p)]
        for backend in ("fft", "bigint"):
            field = GfpFftField(params, backend=backend)
            plan = build_plan(field, K, e, omega)
            v = [gfp_encode(params, a) for a in ints]
            assert [gfp_decode(params, x) for x in dft_general(list(v), plan, field)] == want
            assert [gfp_decode(params, x) for x in dft_inverse(v, plan, field)] == want_inv
        seen.add((params.k, params.r < params.k, e))
    assert {(k, False, 2) for k in (1, 2, 4, 8)} | {(4, True, 1), (8, True, 2)} <= seen


def test_gfp_plan_base_must_match_2k():
    params = GfpParams(GFP_R, 8)
    field = GfpFftField(params, backend="bigint")
    omega = gfp_root(params, 32 ** 2)
    with pytest.raises(ValueError):
        build_plan(field, 32, 2, omega)


def test_gfp_plan_root_must_align_with_radix():
    params = GfpParams(GFP_R, 8)
    field = GfpFftField(params, backend="bigint")
    omega = gfp_root(params, 256)
    skewed = field.pow(omega, 3)  # still primitive, lands on r^3 not r
    with pytest.raises(ValueError):
        build_plan(field, 16, 2, skewed)


@pytest.mark.parametrize("backend", ["fft", "bigint"])
def test_gfp_plan_checks_base_root_before_any_table(backend):
    # omega^3 and omega^-1 are primitive 256th roots whose base roots are
    # r^3 and 1/r, and K = 8 is not 2k at k = 8; build_plan refuses all
    # three before power_table is asked
    params = GfpParams(GFP_R, 8)
    field = GfpFftField(params, backend=backend)
    omega = gfp_root(params, 256)
    counts = []
    field.power_table = lambda omega, count: counts.append(count) or []
    for skewed in (field.pow(omega, 3), field.pow(omega, 255)):
        with pytest.raises(ValueError, match="radix r"):
            build_plan(field, 16, 2, skewed)
    with pytest.raises(ValueError, match="size must equal 2k"):
        build_plan(field, 8, 2, gfp_root(params, 64))
    assert counts == []


@pytest.mark.parametrize("kind", ["intmod", "fft"])
def test_plan_attributes_cannot_be_rebound(kind):
    if kind == "intmod":
        plan = build_plan(gf257(), 8, 2, root_257(64))
    else:
        params = GfpParams(GFP_R, 8)
        plan = build_plan(GfpFftField(params), 16, 2, gfp_root(params, 256))
    for name in ("field", "K", "e", "N", "omega", "omega_base", "twiddle_table"):
        value = getattr(plan, name)
        with pytest.raises(AttributeError):
            setattr(plan, name, value)
        assert getattr(plan, name) is value
    with pytest.raises(AttributeError):
        plan.inverse = None


def test_plan_rejects_bad_parameters():
    field = gf257()
    with pytest.raises(ValueError):
        build_plan(field, 12, 2, 3)
    with pytest.raises(ValueError):
        build_plan(field, 8, 0, 3)
    with pytest.raises(ValueError):
        build_plan(field, 8, 2, 1)  # not a primitive 64th root


@pytest.mark.parametrize("K,e", [(16, 2.0), (16, True), (16, "2"),
                                 (16, None), (16.0, 2), (True, 2)])
def test_plan_rejects_sizes_that_are_not_ints(K, e):
    # 16.0 equals 16 and True equals 1, so only a type check refuses them
    field = gf257()
    with pytest.raises(ValueError, match="must be ints"):
        build_plan(field, K, e, root_257(256))


def test_plan_size_limit_raises_before_any_table():
    # 2^128 divides p - 1 here, so 16^20 = 2^80 has primitive roots; the
    # limit refuses that plan before power_table is asked for 16^19 entries
    p = GfpParams(GFP_R, 8).p
    field = IntModField(p)
    counts = []
    field.power_table = lambda omega, count: counts.append(count) or []
    assert fft.MAX_N >= MAX_K
    with pytest.raises(ConfigurationError, match="MAX_N"):
        build_plan(field, 16, 20, find_nth_root(p, 2 ** 80))
    with pytest.raises(ConfigurationError, match="MAX_N"):
        build_plan(field, 64, 10 ** 18, 1)
    assert counts == []
    # the largest size allowed still builds, asking only for its twiddle
    # table of all N powers
    build_plan(field, 16, 5, find_nth_root(p, fft.MAX_N))
    assert counts == [fft.MAX_N]


def test_montfield_adapter_operations():
    # mul takes a Montgomery residue and a plain table constant and
    # returns the Montgomery residue of the product
    ctx = word_prime(P1)
    field = MontField(ctx)
    rng = random.Random(SEED)
    for _ in range(200):
        a, b = rng.randrange(P1), rng.randrange(P1)
        am = mont_convert_in(ctx, a)
        assert mont_convert_out(ctx, field.mul(am, b)) == a * b % P1
    assert mont_convert_out(ctx, field.one()) == 1
    x = mont_convert_in(ctx, 12345)
    assert mont_convert_out(ctx, field.pow(x, 7)) == pow(12345, 7, P1)


@pytest.mark.parametrize("kind", ["intmod", "mont", "fft", "bigint"])
def test_field_plan_math_matches_native_ints(kind):
    # encode/decode, pow, one and power tables against plain ints mod p
    if kind == "intmod":
        field, K, e = IntModField(P1), 8, 2
    elif kind == "mont":
        field, K, e = MontField(word_prime(P1)), 8, 2
    else:
        field, K, e = GfpFftField(GfpParams(GFP_R, 8), backend=kind), 16, 2
    p, N = field.p, K ** e
    rng = random.Random(SEED)
    for n in [0, 1, p - 1, p, p + 5, -1, -p - 3, rng.randrange(p ** 2)]:
        assert field.decode(field.encode(n)) == n % p
    a = rng.randrange(p)
    assert field.decode(field.pow(field.encode(a), 5)) == pow(a, 5, p)
    assert field.decode(field.one()) == 1
    w = find_nth_root(p, N) if kind in ("intmod", "mont") else \
        gfp_decode(field.params, gfp_root(field.params, N))
    plan = build_plan(field, K, e, field.encode(w))
    # power tables hold plain residues on every field
    assert field.power_table(plan.omega, 20) == [pow(w, t, p) for t in range(20)]
