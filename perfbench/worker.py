"""One in-process measuring worker, started by run.py.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE

Imports decogate, runs one small op of each kind in the workload's cycle as
a warm-up, then prints ``ready``.  A ``go`` line on stdin starts the
measurement, whose result is printed as one JSON line; end of input exits.
"""

import json
import resource
import sys

from harness import measure, run_op
from tracer import Tracer
from workloads import WORKLOADS, Cli

# Warm-up inputs use op indices the measurement never reaches; the offset
# is a multiple of every cycle length, so index WARMUP + k has kind k.
WARMUP = 1 << 20


def main(argv) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    w = Cli(in_process=True) if name == "cli" else WORKLOADS[name]()
    for k in range(len(w.cycle)):
        _, failures = run_op(w, w.inputs(seed, WARMUP + k, small=True), None, {})
        if failures:
            print(f"warm-up op failed: {failures}", file=sys.stderr)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    result = measure(w, seed, seconds, Tracer() if trace else None)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
