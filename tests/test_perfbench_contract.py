"""What the benchmark under perfbench/ relies on in the library.

perfbench/spans.py traces by wrapping module globals and the field's
methods at the point of lookup, and perfbench/run.py reconciles traced
multiplies with bench_cli._mult_count.  A refactor that renames one of
those globals or bypasses field.mul would otherwise surface only in
perfbench/selftest.py, which the unit suite does not run.
"""

import importlib.util
from pathlib import Path

import pytest

from gfpfft import bench_cli, fft, gfp_mult
from gfpfft.fft import IntModField, build_plan, dft_general
from gfpfft.gfp_field import (
    GfpParams, gfp_encode, gfp_find_nth_root, gfp_primitive_root,
)
from gfpfft.word_field import P1, mont_convert_out, word_prime, word_primitive_root

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _module_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MODULE_SPANS


def test_traced_module_globals_exist():
    modules = {"gfp_mult": gfp_mult, "fft": fft}
    # gfp_mult does not import gfp_decode: the tracer would count every
    # bigint decode inside it as a codec span
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
