"""Arithmetic for generalized Fermat prime fields GF(r^k + 1).

Elements are little-endian radix-r digit tuples; multiplication runs
either through a negacyclic-convolution FFT pipeline over as many 64-bit
primes as the field needs (two for most, three for the widest radices)
or through arbitrary-precision integers, and a six-step DFT of
size K^e works over any of the supported coefficient fields.
"""

from .gfp_field import (GfpParams, gfp_add, gfp_decode, gfp_encode,
                        gfp_find_nth_root, gfp_mul_pow_r, gfp_primitive_root,
                        gfp_sub)
from .gfp_mult import (ConfigurationError, CrtParams, FftOperand,
                       GfpFftField, check_prime_compat, crt_combine,
                       crt_default, gfp_mul_bigint,
                       gfp_mul_fft, lhc_decompose, negacyclic_convolution)
from .fft import (IntModField, MontField, build_plan, dft_general,
                  dft_inverse, stride_permutation, twiddle_apply)
from .word_field import (P1, P2, P3, WordPrime, mont_convert_in,
                         mont_convert_out, mont_inv, mont_mul, word_prime,
                         word_primitive_root)

__version__ = "0.1.0"

__all__ = [
    "GfpParams", "gfp_add", "gfp_sub", "gfp_mul_pow_r",
    "gfp_encode", "gfp_decode", "gfp_primitive_root", "gfp_find_nth_root",
    "ConfigurationError", "CrtParams", "FftOperand", "GfpFftField",
    "check_prime_compat", "crt_combine", "crt_default",
    "gfp_mul_bigint", "gfp_mul_fft", "lhc_decompose",
    "negacyclic_convolution",
    "IntModField", "MontField", "build_plan", "dft_general", "dft_inverse",
    "stride_permutation", "twiddle_apply",
    "P1", "P2", "P3", "WordPrime", "mont_convert_in", "mont_convert_out",
    "mont_inv", "mont_mul", "word_prime", "word_primitive_root",
    "__version__",
]
