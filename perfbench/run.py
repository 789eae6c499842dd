"""gfpfft benchmark: seeded closed-loop workloads with an independent check.

    python3 perfbench/run.py --workload mul-k8 --seed 1 --seconds 30 --trace 0
    python3 perfbench/selftest.py

Run from the repository root; the library is imported from src/.  One
process, one thread and one caller, pinned to one CPU: each op starts after
the previous one returned and was checked.  Inputs come from --seed and are
generated, one op at a time, outside the timer; every result is checked
after its timer stops (see workloads.py), and a wrong result or a raise
counts as failed, never retried or dropped.

Workloads (one op each):
  mul-k8            gfp_mul_fft on a fresh random pair, k=8, r=2^59+2^16
  dft-K16e2-fft     forward dft_general of 256 fresh elements, gfp-fft field
  dft-K16e3-bigint  forward dft_general of 4096 fresh elements, gfp-bigint

--trace 0 reports the end-to-end metrics in the result line:
  op_p90_ms    nearest-rank 90th-percentile op latency, over at least 100
               ops (ten samples beyond it)
  setup_s      median over PROBES fresh interpreters, started between ops
               and spread over the run, of spawn to ready-to-time: import,
               parameters, root search, plans, one warm-up op (probe.py);
               warm-up input generation is subtracted
  peak_rss_mb  median peak resident set of those interpreters when ready
and prints beside them, by name and unit, three figures the result line
leaves out: ops_per_s (ops / seconds spent inside ops), op_p50_ms and
error_rate (failed / attempted; failures also fail the result line).

Why the median and the throughput are printed but not gated: the CPU of a
shared host runs for seconds at a time either quiet or up to 1.8x slower.
A figure that mixes both states, such as the median or the mean over all
ops (or the 10th percentile when a whole run stays contended), moved by
15-50% between seeds; the 90th percentile, which needs only a tenth of the
run contended to sit in one state, moved by about 10%.

--trace 1 alternates untraced and traced ops and reports per-layer metrics
per traced op (spans.py); call counts come from the first COUNT_WINDOW
traced ops so that they repeat exactly for a seed, and the traced minus
untraced median latency is reported as the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import gc
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
MIN_OPS = 100         # op_p90_ms needs ten samples beyond it
PROBES = 7
COUNT_WINDOW = 4
WALL_CAP_S = 120.0    # stop the loop here even short of MIN_OPS

END_TO_END = {
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# printed with the end-to-end metrics, not part of the result line
UNGATED = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "error_rate": "fraction",
}

PER_LAYER = {
    "gfp_mult.mul.calls": "count",
    "gfp_mult.mul.ms": "ms",
    "gfp_mult.crt.ms": "ms",
    "gfp_mult.lhc.ms": "ms",
    "gfp_mult.self.ms": "ms",
    "gfp_field.add_sub.calls": "count",
    "gfp_field.shift.calls": "count",
    "gfp_field.ms": "ms",
    "fft.permutation.ms": "ms",
    "fft.basecase.ms": "ms",
    "fft.twiddle.ms": "ms",
    "fft.self.ms": "ms",
    "fft.twiddle.general_mul_share": "fraction",
    "word_field.mont_mul.calls": "count",
    "word_field.ms": "ms",
    "oracle.checked": "count",
    "oracle.failed": "count",
    "trace.overhead_ms": "ms",
}


def pin_to_one_cpu():
    """Pin to the lowest CPU allowed; returns (cpu, whether it took effect)."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu, os.sched_getaffinity(0) == {cpu}
    except (AttributeError, OSError):
        return None, False


def host_facts():
    """Host description; pins this process, and the set-up probes it
    starts later, to one CPU on the way."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cpu, pinned = pin_to_one_cpu()
    return {"python": platform.python_version(), "nproc": nproc,
            "cpu_model": model, "gc_enabled": gc.isenabled(),
            "gc_threshold": list(gc.get_threshold()),
            "pinned_cpu": cpu, "pin_effective": pinned}


def probe_setup(name):
    """(set-up seconds, peak RSS in MB) of one fresh interpreter."""
    cmd = [sys.executable, str(HERE / "probe.py"), name]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise SystemExit("perfbench: set-up probe failed (exit %s)" % proc.returncode)
    info = json.loads(line)
    return ready - info["gen_s"], info["rss_mb"]


def mont_mul_cost(lib):
    """Seconds per mont_mul call on random residues, loop overhead removed."""
    wf = lib.word_field
    try:
        f, ctx = wf.mont_mul, wf.word_prime(wf.P1)
    except AttributeError:
        return None
    rng = random.Random(0)
    pairs = [(rng.randrange(ctx.q), rng.randrange(ctx.q)) for _ in range(5000)]
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        for a, b in pairs:
            f(ctx, a, b)
        t1 = time.perf_counter()
        for a, b in pairs:
            pass
        t2 = time.perf_counter()
        samples.append(((t1 - t0) - (t2 - t1)) / len(pairs))
    return statistics.median(samples)


class Loop:
    """The closed loop: generate, time one op, check; repeat."""

    def __init__(self, wl, seed, tracer=None):
        self.wl = wl
        self.inputs = random.Random("%s/%d/inputs" % (wl.name, seed))
        self.checks = random.Random("%s/%d/checks" % (wl.name, seed))
        self.tracer = tracer
        self.plain, self.traced = [], []
        self.failed = 0
        self.window = None
        self.first_error = None

    def op(self, traced, full):
        inp, ints = self.wl.make_input(self.inputs)
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = self.wl.run(inp)
        except Exception:
            out = None
            self.first_error = self.first_error or traceback.format_exc()
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            self.traced.append(dt)
            if len(self.traced) == COUNT_WINDOW:
                self.window = (Counter(tracer.calls), COUNT_WINDOW)
        else:
            self.plain.append(dt)
        if out is None or not self.check(ints, out, full):
            self.failed += 1
        return dt

    def check(self, ints, out, full):
        try:
            return self.wl.check(ints, out, full, self.checks)
        except Exception:
            self.first_error = self.first_error or traceback.format_exc()
            return False

    def run(self, seconds, min_ops, between=()):
        """Ops until `seconds` were spent inside them and each series has
        min_ops; the first op's output is checked in full.  The callables
        in `between` run between ops, spread evenly over the busy time."""
        self.wl.prepare_checks(self.checks)
        pending = list(between)
        gc.collect()
        start = time.perf_counter()
        busy = 0.0
        i = 0
        while busy < seconds or min(self.counts()) < min_ops:
            if time.perf_counter() - start > WALL_CAP_S:
                print("perfbench: wall-clock cap reached after %d ops" % i,
                      file=sys.stderr)
                break
            if pending and busy >= (len(between) - len(pending)) * seconds / len(between):
                pending.pop()()
            busy += self.op(self.tracer is not None and i % 2 == 1, full=i == 0)
            i += 1
        for fn in pending:
            fn()
        return i

    def counts(self):
        if self.tracer is None:
            return (len(self.plain),)
        return len(self.plain), len(self.traced)


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end_metrics(loop, setup_s, rss_mb):
    """(gated metrics, ungated figures) of an untraced run."""
    lat = sorted(loop.plain)
    gated = {
        "op_p90_ms": nearest_rank(lat, 0.9) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    ungated = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "error_rate": loop.failed / len(lat),
    }
    return gated, ungated


def layer_metrics(lib, wl, loop, tracer):
    """Per traced op; a metric whose spans the library lacks is left out.

    Call counts come from the first COUNT_WINDOW traced ops (all of them if
    the wall-clock cap cut the run shorter), times from every traced op.
    """
    n = len(loop.traced)
    window, window_ops = loop.window or (tracer.calls, n)
    cost = mont_mul_cost(lib)
    present = tracer.present

    def per_op(name, parent=None):
        # call counts of span name over the window, per op
        return sum(v for (s, p), v in window.items()
                   if s == name and (parent is None or p == parent)) / window_ops

    def ms(seconds):
        return seconds / n * 1e3

    def mont(site):
        return tracer.calls["word_field.mont_mul@" + site, None] * (cost or 0.0)

    fft_spans = ("fft.dft", "fft.permutation", "fft.basecase", "fft.twiddle")
    field_spans = ("gfp_field.add_sub", "gfp_field.shift", "gfp_field.codec")
    factors = per_op(spans.TWIDDLE_FACTORS)
    values = {
        "gfp_mult.mul.calls": (("gfp_mult.mul",), per_op("gfp_mult.mul")),
        "gfp_mult.mul.ms": (("gfp_mult.mul",), ms(tracer.busy["gfp_mult.mul"])),
        "gfp_mult.crt.ms": (("gfp_mult.crt",), ms(tracer.busy["gfp_mult.crt"])),
        "gfp_mult.lhc.ms": (("gfp_mult.lhc",), ms(tracer.busy["gfp_mult.lhc"])),
        "gfp_mult.self.ms": (("gfp_mult.mul",), ms(
            tracer.self_time["gfp_mult.mul"] - mont("gfp_mult"))),
        "gfp_field.add_sub.calls": (("gfp_field.add_sub",), per_op("gfp_field.add_sub")),
        "gfp_field.shift.calls": (("gfp_field.shift",), per_op("gfp_field.shift")),
        "gfp_field.ms": (field_spans, ms(sum(tracer.busy[s] for s in field_spans))),
        "fft.permutation.ms": (("fft.permutation",), ms(tracer.busy["fft.permutation"])),
        "fft.basecase.ms": (("fft.basecase",), ms(tracer.busy["fft.basecase"])),
        "fft.twiddle.ms": (("fft.twiddle",), ms(tracer.busy["fft.twiddle"])),
        "fft.self.ms": (("fft.dft",), ms(
            sum(tracer.self_time[s] for s in fft_spans) - mont("fft"))),
        "fft.twiddle.general_mul_share": (
            ("fft.twiddle", "gfp_mult.mul"),
            per_op("gfp_mult.mul", "fft.twiddle") / factors if factors else 0.0),
        "word_field.mont_mul.calls": (
            ("word_field.mont_mul@gfp_mult", "word_field.mont_mul@fft"),
            per_op("word_field.mont_mul@gfp_mult") + per_op("word_field.mont_mul@fft")),
        "word_field.ms": (
            ("word_field.mont_mul@gfp_mult", "word_field.mont_mul@fft"),
            ms(mont("gfp_mult") + mont("fft")) if cost is not None else None),
        "oracle.checked": ((), len(loop.plain) + n),
        "oracle.failed": ((), loop.failed),
        "trace.overhead_ms": ((), (statistics.median(loop.traced)
                                   - statistics.median(loop.plain)) * 1e3),
    }
    metrics = {name: value for name, (needs, value) in values.items()
               if value is not None and (not needs or any(s in present for s in needs))}
    return metrics, reconcile(wl, per_op, factors)


def reconcile(wl, per_op, factors):
    """Twiddle-style multiplies seen in the trace against the closed form
    bench_cli._mult_count(K, e), per op.  The closed form counts each
    non-unit twiddle factor once; a factor applied as both a shift and a
    multiply is seen twice, so the difference should equal the number of
    such factors, twiddle muls + twiddle shifts - factors, and leave
    nothing unexplained."""
    if not isinstance(wl, workloads.Dft):
        return None
    from gfpfft import bench_cli
    mult_count = getattr(bench_cli, "_mult_count", None)
    if mult_count is None:
        return None
    closed = mult_count(wl.K, wl.e)
    base_shifts = per_op("gfp_field.shift", "fft.basecase")
    tw_muls = per_op("gfp_mult.mul", "fft.twiddle")
    tw_shifts = per_op("gfp_field.shift", "fft.twiddle")
    measured = base_shifts + tw_muls + tw_shifts
    difference = measured - closed
    return {"closed_form": closed, "basecase_shifts": base_shifts,
            "twiddle_muls": tw_muls, "twiddle_shifts": tw_shifts,
            "measured": measured, "difference": difference,
            "twiddle_factors": factors,
            "unexplained": difference - (tw_muls + tw_shifts - factors)}


def run_workload(name, seed, seconds, trace, min_ops=MIN_OPS, probes=PROBES,
                 hook=None):
    """One benchmark run; returns (result dict, report dict).

    hook(wl), when given, runs after set-up; the self-test uses it to
    inject a wrong multiply.
    """
    lib = workloads.Library()
    report = {"host": host_facts()}
    wl = workloads.WORKLOADS[name](lib)
    wl.run(wl.make_input(random.Random("warm-up"))[0])
    if hook is not None:
        hook(wl)
    tracer = spans.Tracer(lib, wl.field) if trace else None
    loop = Loop(wl, seed, tracer)
    setups = []
    if trace:
        attempted = loop.run(seconds, COUNT_WINDOW)
    else:
        # probes spread over the run sample the host's states like the ops do
        attempted = loop.run(seconds, min_ops,
                             [lambda: setups.append(probe_setup(name))] * probes)
    if trace:
        metrics, report["reconcile"] = layer_metrics(lib, wl, loop, tracer)
        units = PER_LAYER
        report["absent"] = sorted(set(PER_LAYER) - set(metrics))
    else:
        metrics, report["ungated"] = end_to_end_metrics(
            loop, statistics.median(s for s, _ in setups),
            statistics.median(r for _, r in setups))
        units = END_TO_END
        report["samples"] = len(loop.plain)
    report["first_error"] = loop.first_error
    result = {"correct": loop.failed == 0, "attempted": attempted,
              "failed": loop.failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    return result, report


def print_report(name, result, report):
    print(json.dumps({"host": report["host"]}))
    if report.get("reconcile"):
        print(json.dumps({"reconcile": report["reconcile"]}))
    if report.get("first_error"):
        print(report["first_error"], file=sys.stderr)
    lines = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    lines += [(k, v, UNGATED[k]) for k, v in report.get("ungated", {}).items()]
    for key, value, unit in lines:
        note = ""
        if key == "op_p90_ms":
            note = "  (n=%d)" % report["samples"]
        elif key == "error_rate":
            note = "  (%d/%d)" % (result["failed"], result["attempted"])
        elif key == "word_field.ms":
            note = "  (computed: calls x per-call cost)"
        print("%s %s %.6g %s%s" % (name, key, value, unit, note))
    for key in report.get("absent", ()):
        print("%s %s absent" % (name, key))
    print(json.dumps(result))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_report(args.workload, result, report)


if __name__ == "__main__":
    main()
