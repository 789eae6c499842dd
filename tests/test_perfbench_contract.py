"""What the benchmark under perfbench/ relies on in the library.

perfbench/spans.py traces by wrapping module globals and the field's
methods at the point of lookup, and perfbench/run.py reconciles traced
multiplies with bench_cli._mult_count.  A refactor that renames one of
those globals or bypasses field.mul would otherwise surface only in
perfbench/selftest.py, which the unit suite does not run.
"""

import importlib.util
from pathlib import Path

from gfpfft import bench_cli, fft, gfp_mult
from gfpfft.fft import build_plan, dft_general
from gfpfft.gfp_field import (
    GfpParams, gfp_encode, gfp_find_nth_root, gfp_primitive_root,
)

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
