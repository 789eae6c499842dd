"""Six-step transform machinery against the quadratic-time oracle."""

import random

import pytest

from gfpfft.fft import (
    BASE_SIZES, IntModField, MontField, base_case_ops, build_plan, dft2,
    dft_general, dft_inverse, stride_permutation, twiddle_apply,
)
from gfpfft.gfp_field import (
    GfpParams, gfp_decode, gfp_encode, gfp_find_nth_root, gfp_primitive_root,
)
from gfpfft.gfp_mult import FftOperand, GfpFftField
from gfpfft.oracle import oracle_naive_dft
from gfpfft.word_field import (
    P1, mont_convert_in, mont_convert_out, word_prime, word_primitive_root,
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


def test_twiddle_apply_powers():
    field = gf257()
    w = root_257(16)
    rng = random.Random(SEED)
    m, n = 4, 4
    v = [rng.randrange(257) for _ in range(m * n)]
    got = list(v)
    twiddle_apply(got, m, n, w, field)
    for j in range(n):
        for i in range(m):
            assert got[j * m + i] == v[j * m + i] * pow(w, i * j, 257) % 257


def test_twiddle_diagonal_structure():
    # D_{2,4} over p = r^4 + 1 must be (1,1,1,1, 1,r,r^2,r^3)
    params = GfpParams((1 << 64) - (1 << 50), 4)
    field = GfpFftField(params, backend="bigint")
    r_elem = gfp_encode(params, params.r)
    v = [field.one()] * 8
    twiddle_apply(v, 4, 2, r_elem, field)
    want = [1, 1, 1, 1, 1, params.r, params.r ** 2, params.r ** 3]
    assert [gfp_decode(params, x) for x in v] == want


def test_dft2():
    field = gf257()
    assert dft2(200, 100, field) == (43, 100)


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


def test_profile_accumulates_phases():
    field = gf257()
    plan = build_plan(field, 8, 2, root_257(64))
    profile = {}
    dft_general([0] * 64, plan, field, profile=profile)
    assert set(profile) == {"permutation", "basecase", "twiddle"}
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
    assert plan.omega_base == field.shift_root


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


@pytest.mark.parametrize("backend", ["fft", "bigint"])
def test_gfp_plan_takes_twiddle_table_from_field(backend):
    # one power table per field: plan twiddles and generic base-case
    # factories share it, and the fft backend stores prepared operands
    params = GfpParams(GFP_R, 8)
    field = GfpFftField(params, backend=backend)
    omega = gfp_root(params, 256)
    plan = build_plan(field, 16, 2, omega)
    table = field.power_table(omega, 16)
    assert plan.twiddle_table is table
    kind = FftOperand if backend == "fft" else tuple
    assert all(type(t) is kind for t in table)
    assert table == [field.pow(omega, t) for t in range(16)]
    assert type(plan.n_inv()) is kind and plan.n_inv() is plan.n_inv()
    rng = random.Random(SEED)
    v = [gfp_encode(params, rng.randrange(params.p)) for _ in range(256)]
    assert dft_inverse(dft_general(list(v), plan, field), plan, field) == v


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


def test_plan_rejects_bad_parameters():
    field = gf257()
    with pytest.raises(ValueError):
        build_plan(field, 12, 2, 3)
    with pytest.raises(ValueError):
        build_plan(field, 8, 0, 3)
    with pytest.raises(ValueError):
        build_plan(field, 8, 2, 1)  # not a primitive 64th root


def test_montfield_adapter_operations():
    ctx = word_prime(P1)
    field = MontField(ctx)
    rng = random.Random(SEED)
    for _ in range(200):
        a, b = rng.randrange(P1), rng.randrange(P1)
        am, bm = mont_convert_in(ctx, a), mont_convert_in(ctx, b)
        assert mont_convert_out(ctx, field.add(am, bm)) == (a + b) % P1
        assert mont_convert_out(ctx, field.sub(am, bm)) == (a - b) % P1
        assert mont_convert_out(ctx, field.mul(am, bm)) == a * b % P1
    assert field.zero() == 0
    assert mont_convert_out(ctx, field.one()) == 1
    x = mont_convert_in(ctx, 12345)
    assert mont_convert_out(ctx, field.pow(x, 7)) == pow(12345, 7, P1)
    assert mont_convert_out(ctx, field.mul(field.inv_scalar(64),
                                           mont_convert_in(ctx, 64))) == 1
