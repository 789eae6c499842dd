"""Set-up probe: one fresh interpreter, from start to ready-to-time.

    python3 perfbench/probe.py <workload>

Imports gfpfft, builds the workload (field parameters, root search, plans)
and runs one warm-up op, which fills the lazy negacyclic plans and the
compatibility cache.  Then it prints one JSON line with the seconds spent
generating the warm-up input, which the caller subtracts, and the peak
resident set so far.  run.py times this process from spawn to that line.
"""

import json
import random
import resource
import sys
import time

import workloads


def main(name):
    lib = workloads.Library()
    wl = workloads.WORKLOADS[name](lib)
    t0 = time.perf_counter()
    inp, _ = wl.make_input(random.Random("warm-up"))
    gen_s = time.perf_counter() - t0
    wl.run(inp)
    print(json.dumps({"gen_s": gen_s, "rss_mb": peak_rss_mb()}), flush=True)


def peak_rss_mb():
    # VmHWM covers this program's own address space only; ru_maxrss also
    # keeps the resident set the parent had when it started this process
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


if __name__ == "__main__":
    main(sys.argv[1])
