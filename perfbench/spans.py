"""Layer spans recorded from outside the library.

The tracer wraps the functions each layer exposes at the point where the
caller looks them up: module globals of gfp_mult and fft, which those
modules resolve at call time, and the methods of the field object the
benchmark built.  src/ is never edited.  Installing swaps the wrappers in;
uninstalling puts the originals back, so untraced ops run the plain code.

A span is opened at each layer boundary and closed on return or raise.
A call whose innermost open span has the same name (field.mul calling
gfp_mul_fft, field.add calling gfp_add) passes straight through, so one
call into a layer is one span.  Each span records its duration, its self
time (duration minus its direct child spans) and, when no span of the same
name encloses it, its busy time.  Call counts are keyed by (name, name of
the enclosing span), which tells a twiddle-stage multiply from a base-case
shift.  mont_mul is too cheap to time per call, so it is only counted.

A span name none of whose targets the library still has is left out of
`present`; metrics built only from it are reported as absent, not zero.
"""

import time
from collections import Counter, defaultdict

# (module attribute of Library, global name) -> span name
MODULE_SPANS = (
    ("gfp_mult", "gfp_mul_fft", "gfp_mult.mul"),
    ("gfp_mult", "gfp_mul_bigint", "gfp_mult.mul"),
    ("gfp_mult", "crt_combine", "gfp_mult.crt"),
    ("gfp_mult", "lhc_decompose", "gfp_mult.lhc"),
    ("gfp_mult", "dft_general", "fft.dft"),
    ("gfp_mult", "gfp_add", "gfp_field.add_sub"),
    ("gfp_mult", "gfp_sub", "gfp_field.add_sub"),
    ("gfp_mult", "gfp_mul_pow_r", "gfp_field.shift"),
    ("gfp_mult", "gfp_encode", "gfp_field.codec"),
    ("gfp_mult", "gfp_decode", "gfp_field.codec"),
    ("fft", "dft_general", "fft.dft"),
    ("fft", "stride_permutation", "fft.permutation"),
    ("fft", "_base_pass", "fft.basecase"),
    ("fft", "_twiddle_level_cheap", "fft.twiddle"),
    ("fft", "twiddle_apply", "fft.twiddle"),
)

# field method -> span name
FIELD_SPANS = (
    ("mul", "gfp_mult.mul"),
    ("add", "gfp_field.add_sub"),
    ("sub", "gfp_field.add_sub"),
    ("shift", "gfp_field.shift"),
)

# (module, global name) -> counter name; counted, not timed
MODULE_COUNTS = (
    ("gfp_mult", "mont_mul", "word_field.mont_mul@gfp_mult"),
    ("fft", "mont_mul", "word_field.mont_mul@fft"),
)

# twiddle stages multiply lanes 1..m-1 of blocks 1..n-1: (m-1)(n-1)
# non-unit factors, read from the call's (m, n) arguments
TWIDDLE_SHAPE = {"_twiddle_level_cheap": (2, 3), "twiddle_apply": (1, 2)}
TWIDDLE_FACTORS = "fft.twiddle.factors"


class Tracer:
    def __init__(self, lib, field=None):
        self.stack = []
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self._depth = defaultdict(int)
        self._patches = []
        self._saved = []
        for mod_name, name, span in MODULE_SPANS:
            self._wrap(getattr(lib, mod_name), name, span, self._span,
                       TWIDDLE_SHAPE.get(name))
        if field is not None:
            for name, span in FIELD_SPANS:
                self._wrap(field, name, span, self._span)
        for mod_name, name, counter in MODULE_COUNTS:
            self._wrap(getattr(lib, mod_name), name, counter, self._count)
        self.present = {span for _, _, span, _ in self._patches}

    def _wrap(self, owner, name, span, make, *extra):
        fn = getattr(owner, name, None)
        if fn is not None:
            self._patches.append((owner, name, span, make(span, fn, *extra)))

    def _span(self, name, fn, shape=None):
        stack, calls, busy, self_time, depth = (
            self.stack, self.calls, self.busy, self.self_time, self._depth)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            calls[name, stack[-1][0] if stack else None] += 1
            if shape is not None:
                calls[TWIDDLE_FACTORS, None] += (args[shape[0]] - 1) * (args[shape[1]] - 1)
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                depth[name] -= 1
                self_time[name] += d - frame[1]
                if not depth[name]:
                    busy[name] += d
                if stack:
                    stack[-1][1] += d

        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args):
            calls[name, None] += 1
            return fn(*args)

        return wrapper

    def install(self):
        self._saved = [(owner, name, owner.__dict__.get(name))
                       for owner, name, _, _ in self._patches]
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, old in reversed(self._saved):
            if old is None:
                delattr(owner, name)
            else:
                setattr(owner, name, old)
        self._saved = []
