"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload: a short untraced run emits every end-to-end metric with
its unit and fails no op; two traced runs with one seed emit every
per-layer metric, repeat every call count exactly and, for the DFTs,
reconcile the traced multiplies and shifts with bench_cli._mult_count; and
a multiply that perturbs one digit of its result drives the failure count
above zero.  The radix-2 reference DFT used for full-vector checks must
also agree with direct sums at every index of the e=2 vector.  Exits 1
listing the broken expectations.
"""

import random
import sys

import run
import workloads

SEED = 7


def perturbed(fn):
    def wrong(*args):
        out = list(fn(*args))
        out[0] ^= 1
        return tuple(out)
    return wrong


def inject_wrong_multiply(wl):
    if wl.field is not None:
        wl.field.mul = perturbed(wl.field.mul)
    else:
        wl.lib.gfp_mult.gfp_mul_fft = perturbed(wl.lib.gfp_mult.gfp_mul_fft)


def units(result):
    return {k: m["unit"] for k, m in result["metrics"].items()}


def check_workload(name):
    problems = []
    result, report = run.run_workload(name, SEED, 0, 0, min_ops=2, probes=1)
    if units(result) != run.END_TO_END or set(report["ungated"]) != set(run.UNGATED):
        problems.append("end-to-end metrics or units differ: %s" % units(result))
    if not result["correct"] or result["failed"]:
        problems.append("untraced run failed %d ops" % result["failed"])

    traced = [run.run_workload(name, SEED, 0, 1) for _ in range(2)]
    for result, report in traced:
        if units(result) != run.PER_LAYER:
            problems.append("per-layer metrics or units differ: %s" % units(result))
        if not result["correct"]:
            problems.append("traced run failed %d ops" % result["failed"])
        if report["reconcile"] and report["reconcile"]["unexplained"]:
            problems.append("multiply count does not reconcile: %s" % report["reconcile"])
    calls = [{k: m["value"] for k, m in r["metrics"].items() if k.endswith(".calls")}
             for r, _ in traced]
    if calls[0] != calls[1]:
        problems.append("call counts differ between traced runs: %s" % calls)

    gfp_mult = workloads.Library().gfp_mult
    original = gfp_mult.gfp_mul_fft
    try:
        result, _ = run.run_workload(name, SEED, 0, 0, min_ops=2, probes=1,
                                     hook=inject_wrong_multiply)
    finally:
        gfp_mult.gfp_mul_fft = original
    if result["failed"] == 0 or result["correct"]:
        problems.append("a wrong multiply went unnoticed")
    return problems


def check_reference_dft():
    wl = workloads.Dft(workloads.Library(), 2, "bigint")
    rng = random.Random(SEED)
    wl.prepare_checks(rng)
    ints = wl.make_input(rng)[1]
    ref = workloads.reference_dft(ints, wl.w, wl.p)
    if ref != [wl.direct_sum(ints, i) for i in range(wl.N)]:
        return ["reference_dft disagrees with direct sums"]
    return []


def main():
    problems = check_reference_dft()
    print("reference_dft: %s" % ("; ".join(problems) or "ok"))
    failed = bool(problems)
    for name in workloads.WORKLOADS:
        problems = check_workload(name)
        print("%s: %s" % (name, "; ".join(problems) or "ok"))
        failed = failed or bool(problems)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
