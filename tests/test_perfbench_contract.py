"""What the benchmark under perfbench/ relies on in the library.

perfbench/spans.py traces by wrapping module globals and the field's
methods at the point of lookup, and perfbench/run.py reconciles traced
multiplies with bench_cli._mult_count.  A refactor that renames one of
those globals or bypasses field.mul would otherwise surface only in
perfbench/selftest.py, which the unit suite does not run.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from gfpfft import bench_cli, fft, gfp_mult
from gfpfft.fft import IntModField, build_plan, dft_general
from gfpfft.gfp_field import (
    GfpParams, gfp_encode, gfp_find_nth_root, gfp_primitive_root,
)
from gfpfft.word_field import P1, mont_convert_out, word_prime, word_primitive_root

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def _module_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MODULE_SPANS


def test_traced_module_globals_exist():
    modules = {"gfp_mult": gfp_mult, "fft": fft}
    # gfp_mult does not import gfp_decode: the tracer would count every
    # bigint decode inside it as a codec span.  It keeps gfp_mul_pow_r,
    # which no transform calls: on mul-k8, whose workload has no field,
    # that global is what makes gfp_field.shift.calls present
    wanted = [(mod, name) for mod, name, _ in _module_spans()
              if (mod, name) != ("gfp_mult", "gfp_decode")]
    assert len(wanted) == 14
    for mod, name in wanted:
        assert callable(getattr(modules[mod], name, None)), (mod, name)
    assert not hasattr(gfp_mult, "gfp_decode")


def test_mult_count_exists():
    assert callable(bench_cli._mult_count)


def test_twiddle_multiplies_go_through_field_mul():
    params = GfpParams((1 << 59) + (1 << 16), 8)
    N = 256
    omega = gfp_primitive_root(params, N, gfp_find_nth_root(params, N, seed=0))
    field = gfp_mult.GfpFftField(params)
    plan = build_plan(field, 16, 2, omega)
    calls = []
    plain_mul = field.mul

    def counting_mul(a, b):
        calls.append(1)
        return plain_mul(a, b)

    field.mul = counting_mul
    v = [gfp_encode(params, 3 * i + 1) for i in range(N)]
    dft_general(v, plan, field)
    assert len(calls) == 208


def test_base_root_rotations_go_through_field_shift():
    # the tracer counts rotations only through the field's shift method:
    # 544 in the base cases and 180 in the twiddle stage
    params = GfpParams((1 << 59) + (1 << 16), 8)
    N = 256
    omega = gfp_primitive_root(params, N, gfp_find_nth_root(params, N, seed=0))
    field = gfp_mult.GfpFftField(params)
    plan = build_plan(field, 16, 2, omega)
    calls = []
    plain_shift = field.shift

    def counting_shift(a, i):
        calls.append(1)
        return plain_shift(a, i)

    field.shift = counting_shift
    v = [gfp_encode(params, 3 * i + 1) for i in range(N)]
    dft_general(v, plan, field)
    assert len(calls) == 724


@pytest.mark.parametrize("backend", ["fft", "bigint"])
def test_gfp_base_cases_carry_only_in_normalize(backend, monkeypatch):
    # the base cases add residues directly and reduce each output once
    # inline, so the field has no add, sub or normalize; in a K=16, e=2
    # transform every base-case rotation still goes through field.shift,
    # 544 on both backends.  The twiddle stage rotates 180 lanes on the
    # fft backend, which splits its factors, and none on bigint, which
    # multiplies by all N powers
    params = GfpParams((1 << 59) + (1 << 16), 8)
    N = 256
    omega = gfp_primitive_root(params, N, gfp_find_nth_root(params, N, seed=0))
    field = gfp_mult.GfpFftField(params, backend=backend)
    plan = build_plan(field, 16, 2, omega)
    assert not {"add", "sub", "normalize"} & set(dir(field))
    stage = []
    calls = {"basecase": 0, "twiddle": 0}

    def inside(name, fn):
        def run(*args):
            stage.append(name)
            try:
                return fn(*args)
            finally:
                stage.pop()
        return run

    monkeypatch.setattr(fft, "_base_pass", inside("basecase", fft._base_pass))
    monkeypatch.setattr(fft, "_twiddle_level_cheap",
                        inside("twiddle", fft._twiddle_level_cheap))
    plain_shift = field.shift

    def counting_shift(a, t):
        calls[stage[-1]] += 1
        return plain_shift(a, t)

    field.shift = counting_shift
    v = [gfp_encode(params, 3 * i + 1) for i in range(N)]
    dft_general(v, plan, field)
    assert calls == {"basecase": 544, "twiddle": 180 if backend == "fft" else 0}
    assert all(type(x) is tuple for x in v)


def test_benchmark_selftest_passes():
    # a metric set or multiply/shift reconcile broken by a library change
    # shows only when the benchmark itself runs
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize("kind", ["intmod", "gfp"])
def test_every_twiddle_stage_runs_the_level_function(kind, monkeypatch):
    # the tracer reads m and n of a twiddle stage from positional
    # arguments 2 and 3 of fft._twiddle_level_cheap
    if kind == "intmod":
        K, e = 8, 3
        field = IntModField(P1)
        ctx = word_prime(P1)
        omega = mont_convert_out(ctx, word_primitive_root(ctx, K ** e))
        v = list(range(K ** e))
    else:
        K, e = 16, 2
        params = GfpParams((1 << 59) + (1 << 16), 8)
        omega = gfp_primitive_root(params, K ** e,
                                   gfp_find_nth_root(params, K ** e, seed=0))
        field = gfp_mult.GfpFftField(params, backend="bigint")
        v = [gfp_encode(params, i) for i in range(K ** e)]
    plan = build_plan(field, K, e, omega)
    shapes = []
    level = fft._twiddle_level_cheap

    def recording(*args):
        shapes.append((args[2], args[3]))
        return level(*args)

    def forbidden(*args, **kwargs):
        raise AssertionError("twiddle_apply called")

    monkeypatch.setattr(fft, "_twiddle_level_cheap", recording)
    monkeypatch.setattr(fft, "twiddle_apply", forbidden)
    dft_general(v, plan, field)
    want = []
    for i in range(e - 2, -1, -1):
        want += [(K ** (e - i - 1), K)] * (K ** i)
    assert shapes == want


def test_word_prime_convolutions_skip_the_general_transform(monkeypatch):
    # the NTTs inside a multiply run as compiled kernels, so the tracer's
    # fft.basecase and fft.dft spans see only the outer transform
    def forbidden(*args, **kwargs):
        raise AssertionError("general transform called")

    monkeypatch.setattr(fft, "_base_pass", forbidden)
    monkeypatch.setattr(fft, "dft_general", forbidden)
    monkeypatch.setattr(gfp_mult, "dft_general", forbidden)
    params = GfpParams((1 << 59) + (1 << 16), 8)
    crt = gfp_mult.crt_default()
    a, b = 3 ** 200 % params.p, 5 ** 300 % params.p
    x, y = gfp_encode(params, a), gfp_encode(params, b)
    want = gfp_encode(params, a * b)
    assert gfp_mult.gfp_mul_fft(params, crt, x, y) == want
    assert gfp_mult.gfp_mul_fft(params, crt, x,
                                gfp_mult.FftOperand(params, crt, y)) == want
